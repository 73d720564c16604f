#include <gtest/gtest.h>

#include "core/smart_refresh.hh"
#include "ctrl/memory_controller.hh"
#include "test_config.hh"

using namespace smartref;

namespace {

struct SmartRig
{
    explicit SmartRig(const DramConfig &cfg = tcfg::tinyConfig(),
                      SmartRefreshConfig sc = {})
        : config(cfg), root("root"), dram(cfg, eq, &root),
          ctrl(dram, eq, ControllerConfig{}, &root),
          policy(cfg, sc, eq, &root)
    {
        ctrl.setRefreshPolicy(&policy);
    }

    Addr
    addrOf(std::uint64_t blockRow) const
    {
        return blockRow * config.org.rowBytes();
    }

    DramConfig config;
    EventQueue eq;
    StatGroup root;
    DramModule dram;
    MemoryController ctrl;
    SmartRefreshPolicy policy;
};

SmartRefreshConfig
noAuto()
{
    SmartRefreshConfig sc;
    sc.autoReconfigure = false;
    return sc;
}

} // namespace

TEST(SmartRefresh, StartsInSmartMode)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    EXPECT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Smart);
    EXPECT_TRUE(rig.policy.countersActive());
    EXPECT_FALSE(rig.policy.cbrActive());
}

TEST(SmartRefresh, CanStartInCbrMode)
{
    SmartRefreshConfig sc = noAuto();
    sc.startInCbrMode = true;
    SmartRig rig(tcfg::tinyConfig(), sc);
    EXPECT_EQ(rig.policy.mode(), SmartRefreshPolicy::Mode::Cbr);
    EXPECT_FALSE(rig.policy.countersActive());
    EXPECT_TRUE(rig.policy.cbrActive());
}

TEST(SmartRefresh, IdleRateEqualsBaseline)
{
    // With no demand traffic the scheme degenerates to distributed
    // refresh: totalRows refreshes per interval in steady state.
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    const Tick retention = rig.config.timing.retention;
    rig.eq.runUntil(retention);
    const std::uint64_t afterWarm = rig.dram.totalRefreshes();
    rig.eq.runUntil(2 * retention);
    const std::uint64_t inSteady = rig.dram.totalRefreshes() - afterWarm;
    EXPECT_EQ(inSteady, rig.config.org.totalRows());
    EXPECT_EQ(rig.dram.retention().violations(), 0u);
}

TEST(SmartRefresh, AccessedRowsSkipRefreshes)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    const Tick retention = rig.config.timing.retention;
    // Touch row-block 0 (rank 0, bank 0, row 0) every eighth of an
    // interval, forever.
    std::function<void()> touch = [&] {
        rig.ctrl.access(rig.addrOf(0), false);
        rig.eq.scheduleAfter(retention / 8, touch);
    };
    rig.eq.schedule(0, touch);

    rig.eq.runUntil(6 * retention);
    // In steady state every row refreshes once per interval except the
    // touched one, which never expires.
    const std::uint64_t total = rig.dram.totalRefreshes();
    const std::uint64_t expectedAllRows =
        6 * rig.config.org.totalRows();
    EXPECT_LT(total, expectedAllRows - 3);
    EXPECT_EQ(rig.dram.retention().violations(), 0u);
}

TEST(SmartRefresh, CountersResetOnActivateAndClose)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    const std::uint64_t writesBefore = rig.policy.counters().sramWrites();
    rig.ctrl.access(rig.addrOf(5), false);
    rig.eq.runUntil(10 * kMicrosecond); // demand + idle precharge close
    // At least two counter resets: one at activate, one at page close.
    EXPECT_GE(rig.policy.counters().sramWrites(), writesBefore + 2);
}

TEST(SmartRefresh, PendingQueueStaysBounded)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    rig.eq.runUntil(3 * rig.config.timing.retention);
    EXPECT_LE(rig.policy.pendingQueue().maxDepth(),
              rig.policy.pendingQueue().capacity());
    EXPECT_EQ(rig.policy.pendingQueue().overflows(), 0u);
}

TEST(SmartRefresh, OverheadEnergyGrows)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    rig.eq.runUntil(rig.config.timing.retention);
    EXPECT_GT(rig.policy.overheadEnergy(), 0.0);
    EXPECT_GT(rig.policy.bus().totalEnergy(), 0.0);
    // Bus accesses == RAS-only refreshes issued.
    EXPECT_EQ(rig.policy.bus().accesses(), rig.dram.rasOnlyRefreshes());
}

TEST(SmartRefresh, SyncEnergyStatsIsIdempotent)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    rig.eq.runUntil(rig.config.timing.retention / 2);
    rig.policy.syncEnergyStats();
    const double once = rig.policy.sram().totalEnergy();
    rig.policy.syncEnergyStats();
    EXPECT_DOUBLE_EQ(rig.policy.sram().totalEnergy(), once);
    EXPECT_NEAR(once,
                rig.policy.sram().energyFor(
                    rig.policy.counters().sramReads(),
                    rig.policy.counters().sramWrites()),
                once * 1e-9);
}

TEST(SmartRefresh, CounterAreaMatchesFormula)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    const auto &org = rig.config.org;
    EXPECT_DOUBLE_EQ(rig.policy.counterAreaKBUsed(),
                     counterAreaKB(org.banks, org.ranks, org.rows, 3));
    // The stagger walk touches one counter per segment per step, so
    // the policy lays the counters out interleaved by segment.
    EXPECT_EQ(rig.policy.counters().interleave(),
              SmartRefreshConfig{}.segments);
}

TEST(SmartRefresh, RequestedCountsTrackIssued)
{
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    rig.eq.runUntil(2 * rig.config.timing.retention);
    EXPECT_EQ(rig.policy.smartRefreshesRequested(),
              rig.dram.rasOnlyRefreshes());
    EXPECT_EQ(rig.policy.cbrRefreshesRequested(), 0u);
}

TEST(SmartRefresh, ControllerMaxCapacityCounterBanks)
{
    // Section 5: a controller built for 16x the installed capacity has
    // 16 counter banks with only one enabled, and its (larger) SRAM
    // array costs more per access.
    DramConfig cfg = tcfg::tinyConfig();
    SmartRefreshConfig exact = noAuto();
    SmartRefreshConfig big = noAuto();
    big.controllerMaxRows = cfg.org.totalRows() * 16;

    SmartRig rigExact(cfg, exact);
    SmartRig rigBig(cfg, big);

    EXPECT_EQ(rigExact.policy.counterBanksTotal(), 1u);
    EXPECT_EQ(rigBig.policy.counterBanksTotal(), 16u);
    EXPECT_EQ(rigBig.policy.counterBanksEnabled(), 1u);
    EXPECT_GT(rigBig.policy.sram().readEnergy(),
              rigExact.policy.sram().readEnergy());
    EXPECT_GT(rigBig.policy.sram().arrayKB(),
              rigExact.policy.sram().arrayKB());
}

TEST(SmartRefresh, PerBankRefreshSpreadIsUniformWhenIdle)
{
    // With no demand traffic every (rank, bank) receives exactly
    // rows-per-bank refreshes per interval.
    SmartRig rig(tcfg::tinyConfig(), noAuto());
    const Tick retention = rig.config.timing.retention;
    rig.eq.runUntil(retention); // warm
    const std::uint64_t b0 = rig.dram.refreshesToBank(0, 0);
    const std::uint64_t b1 = rig.dram.refreshesToBank(0, 1);
    rig.eq.runUntil(2 * retention);
    EXPECT_EQ(rig.dram.refreshesToBank(0, 0) - b0, rig.config.org.rows);
    EXPECT_EQ(rig.dram.refreshesToBank(0, 1) - b1, rig.config.org.rows);
}
