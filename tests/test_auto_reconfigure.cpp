/**
 * @file
 * Section 4.6 self-configuration: falling back to CBR under near-idle
 * traffic, re-enabling under load, and — crucially — never violating a
 * retention deadline across either transition (the overlap argument).
 */

#include <gtest/gtest.h>

#include "core/smart_refresh.hh"
#include "ctrl/memory_controller.hh"
#include "sim/random.hh"
#include <cmath>

#include "test_config.hh"

using namespace smartref;

namespace {

struct AutoRig
{
    explicit AutoRig(const DramConfig &cfg = tcfg::tinyConfig())
        : config(cfg), root("root"), dram(cfg, eq, &root),
          ctrl(dram, eq, ControllerConfig{}, &root),
          policy(cfg, makeConfig(), eq, &root)
    {
        ctrl.setRefreshPolicy(&policy);
    }

    static SmartRefreshConfig
    makeConfig()
    {
        SmartRefreshConfig sc;
        sc.autoReconfigure = true;
        return sc;
    }

    Addr
    addrOf(std::uint64_t blockRow) const
    {
        return blockRow * config.org.rowBytes();
    }

    /**
     * Schedule traffic touching `fraction` of rows per interval. Rows
     * are picked round-robin so the number of *distinct* activations
     * per window is deterministic (the monitor counts activations).
     */
    void
    trafficPhase(double fraction, Tick from, Tick until,
                 std::uint64_t seed = 5)
    {
        auto rng = std::make_shared<Rng>(seed);
        auto nextRow = std::make_shared<std::uint64_t>(0);
        const std::uint64_t totalRows = config.org.totalRows();
        const auto touches = static_cast<std::uint64_t>(
            std::ceil(fraction * static_cast<double>(totalRows)));
        const Tick interval = config.timing.retention;
        for (Tick t = from; t < until; t += interval) {
            for (std::uint64_t i = 0; i < touches; ++i) {
                eq.schedule(t + rng->nextBelow(interval),
                            [this, rng, nextRow, totalRows] {
                    ctrl.access(addrOf((*nextRow)++ % totalRows), false);
                });
            }
        }
    }

    DramConfig config;
    EventQueue eq;
    StatGroup root;
    DramModule dram;
    MemoryController ctrl;
    SmartRefreshPolicy policy;
};

} // namespace

TEST(AutoReconfigure, IdleTrafficFallsBackToCbr)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    // Essentially no traffic: after a window + overlap the policy must
    // sit in CBR mode with the counters off.
    rig.eq.runUntil(4 * retention);
    EXPECT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Cbr);
    EXPECT_FALSE(rig.policy.countersActive());
    EXPECT_TRUE(rig.policy.cbrActive());
    EXPECT_GE(rig.policy.monitor().switchesToCbr(), 1u);
    EXPECT_EQ(rig.dram.retention().violations(), 0u);
    EXPECT_EQ(rig.dram.retention().finalCheck(rig.eq.now()), 0u);
}

TEST(AutoReconfigure, ActivityReenablesSmart)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    // Idle for 4 intervals (drops to CBR), then busy for 6.
    rig.trafficPhase(0.5, 4 * retention, 10 * retention);
    rig.eq.runUntil(10 * retention);
    EXPECT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Smart);
    EXPECT_TRUE(rig.policy.countersActive());
    EXPECT_FALSE(rig.policy.cbrActive());
    EXPECT_GE(rig.policy.monitor().switchesToSmart(), 1u);
    EXPECT_EQ(rig.dram.retention().violations(), 0u);
}

TEST(AutoReconfigure, TransitionsNeverViolateRetention)
{
    // Alternate idle and busy phases to force repeated transitions in
    // both directions; the overlap must keep every deadline.
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    for (int cycle = 0; cycle < 3; ++cycle) {
        const Tick busyStart = (6 * cycle + 3) * retention;
        rig.trafficPhase(0.5, busyStart, busyStart + 3 * retention,
                         100 + cycle);
    }
    rig.eq.runUntil(20 * retention);
    EXPECT_EQ(rig.dram.retention().violations(), 0u);
    EXPECT_EQ(rig.dram.retention().finalCheck(rig.eq.now()), 0u);
    EXPECT_GE(rig.policy.monitor().switchesToCbr(), 2u);
    EXPECT_GE(rig.policy.monitor().switchesToSmart(), 1u);
}

TEST(AutoReconfigure, OverlapRunsBothMechanisms)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    // First window closes at 1 interval with no traffic: transition to
    // DisableOverlap, during which both counters and CBR run.
    rig.eq.runUntil(retention + retention / 2);
    EXPECT_EQ(rig.policy.mode(),
              SmartRefreshPolicy::Mode::DisableOverlap);
    EXPECT_TRUE(rig.policy.countersActive());
    EXPECT_TRUE(rig.policy.cbrActive());
    // Overlap refreshes cost extra: more refreshes than a single
    // mechanism would issue in that window.
    EXPECT_GT(rig.policy.cbrRefreshesRequested(), 0u);
    EXPECT_GT(rig.policy.smartRefreshesRequested(), 0u);
}

// A CBR refresh issued while the counters are live resets the row's
// counter (Section 4.6), so in the disable overlap Smart Refresh skips
// the rows CBR has just restored: CBR covers all 128 rows once, Smart
// about half of them. Without the reset Smart also refreshes every row.
TEST(AutoReconfigure, DisableOverlapSkipsRowsCbrRestored)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    rig.eq.runUntil(retention);
    const std::uint64_t smart = rig.policy.smartRefreshesRequested();
    const std::uint64_t cbr = rig.policy.cbrRefreshesRequested();
    rig.eq.runUntil(2 * retention);
    const std::uint64_t smartInOverlap =
        rig.policy.smartRefreshesRequested() - smart;
    const std::uint64_t cbrInOverlap =
        rig.policy.cbrRefreshesRequested() - cbr;
    EXPECT_EQ(cbrInOverlap, rig.config.org.totalRows());
    EXPECT_LT(smartInOverlap, cbrInOverlap);
}

TEST(AutoReconfigure, CbrModeStopsCounterTraffic)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    rig.eq.runUntil(4 * retention);
    ASSERT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Cbr);
    const std::uint64_t reads = rig.policy.counters().sramReads();
    rig.eq.runUntil(6 * retention);
    // No counter walk while disabled: SRAM reads frozen.
    EXPECT_EQ(rig.policy.counters().sramReads(), reads);
}

TEST(AutoReconfigure, LightTrafficInHysteresisBandKeepsMode)
{
    AutoRig rig;
    const Tick retention = rig.config.timing.retention;
    // ~1.5 % of rows per interval: between the 1 % and 2 % thresholds,
    // so the initial Smart mode sticks.
    rig.trafficPhase(0.015, 0, 6 * retention);
    rig.eq.runUntil(6 * retention);
    EXPECT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Smart);
    EXPECT_EQ(rig.policy.monitor().switchesToCbr(), 0u);
}

TEST(AutoReconfigure, DisabledMonitorNeverSwitches)
{
    DramConfig cfg = tcfg::tinyConfig();
    EventQueue eq;
    StatGroup root("root");
    DramModule dram(cfg, eq, &root);
    MemoryController ctrl(dram, eq, ControllerConfig{}, &root);
    SmartRefreshConfig sc;
    sc.autoReconfigure = false;
    SmartRefreshPolicy policy(cfg, sc, eq, &root);
    ctrl.setRefreshPolicy(&policy);
    eq.runUntil(6 * cfg.timing.retention);
    EXPECT_EQ(policy.mode(), SmartRefreshPolicy::Mode::Smart);
    EXPECT_EQ(policy.monitor().switchesToCbr(), 0u);
}
