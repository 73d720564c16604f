/**
 * @file
 * End-to-end tests of a System with a stacked DRAM cache stage: cache
 * behaviour in front of two DRAM domains, refresh policies on the
 * stacked die, and the retention-vs-reduction relationship between
 * 64 ms and 32 ms.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "sim/mini_json.hh"
#include "sim/stats_json.hh"
#include "test_config.hh"

using namespace smartref;

namespace {

SystemConfig
tinyThreeD(PolicyKind policy, Tick retention = 4 * kMillisecond)
{
    SystemConfig cfg;
    cfg.dram = tcfg::tinyConfig();
    cfg.dram.name = "tiny3d";
    cfg.dram.stackedCache = true;
    cfg.dram.allowPowerDown = false;
    cfg.dram.timing.retention = retention;
    cfg.mainMem = tcfg::smallConfig();
    cfg.policy = policy;
    cfg.smart.autoReconfigure = false;
    return cfg;
}

WorkloadParams
cacheWorkload(const DramConfig &threeD, double coverage,
              double revisitFraction = 0.5)
{
    WorkloadParams wp;
    wp.name = "cachews";
    wp.footprintRows = static_cast<std::uint64_t>(
        coverage * static_cast<double>(threeD.org.totalRows()));
    const double retentionSec =
        static_cast<double>(threeD.timing.retention) /
        static_cast<double>(kSecond);
    wp.rowVisitsPerSecond = static_cast<double>(wp.footprintRows) /
                            (retentionSec * revisitFraction);
    wp.accessesPerVisit = 1;
    wp.randomJumpProb = 0.0;
    wp.readFraction = 0.8;
    wp.interArrivalJitter = 0.3;
    wp.seed = 4;
    return wp;
}

} // namespace

TEST(ThreeDIntegration, WarmWorkingSetHitsInCache)
{
    System sys(tinyThreeD(PolicyKind::Cbr));
    // High re-visit rate: every resident line is touched many times.
    sys.addWorkload(cacheWorkload(sys.config().dram, 0.5, 0.05));
    sys.run(4 * sys.config().dram.timing.retention);
    // After the first sweep the resident set always hits.
    EXPECT_GT(sys.cache()->hitRate(), 0.8);
    // Main memory saw only the cold misses.
    EXPECT_LT(sys.mainDram()->reads() + sys.mainDram()->writes(),
              sys.dram().reads() + sys.dram().writes());
}

TEST(ThreeDIntegration, AccessEntersThroughTheCache)
{
    // The trace-replay entry: a demand access goes through the tags,
    // so one cold miss reaches main memory and the repeats hit.
    System sys(tinyThreeD(PolicyKind::Cbr));
    sys.run(0);
    for (int i = 0; i < 4; ++i)
        sys.access(0, false);
    sys.run(kMillisecond);
    EXPECT_EQ(sys.cache()->demandAccesses(), 4u);
    EXPECT_EQ(sys.cache()->misses(), 1u);
    EXPECT_EQ(sys.mainController()->demandReads(), 1u);
    EXPECT_EQ(sys.controller().demandReads(), 3u);
}

TEST(ThreeDIntegration, BothRetentionDomainsAreSafe)
{
    System sys(tinyThreeD(PolicyKind::Smart));
    sys.addWorkload(cacheWorkload(sys.config().dram, 0.5));
    sys.run(5 * sys.config().dram.timing.retention);
    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.mainDram()->retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(
                  sys.eventQueue().now()),
              0u);
    EXPECT_EQ(sys.mainDram()->retention().finalCheck(
                  sys.eventQueue().now()),
              0u);
}

TEST(ThreeDIntegration, SmartReducesStackedRefreshes)
{
    auto run = [](PolicyKind kind) {
        System sys(tinyThreeD(kind));
        sys.addWorkload(cacheWorkload(sys.config().dram, 0.5));
        const Tick retention = sys.config().dram.timing.retention;
        sys.run(retention);
        const EnergySnapshot warm = captureSnapshot(sys);
        sys.run(3 * retention);
        const EnergySnapshot end = captureSnapshot(sys);
        return end - warm;
    };
    const EnergySnapshot cbr = run(PolicyKind::Cbr);
    const EnergySnapshot smart = run(PolicyKind::Smart);
    EXPECT_LT(smart.refreshes, cbr.refreshes);
    EXPECT_LT(smart.totalEnergy(), cbr.totalEnergy());
}

TEST(ThreeDIntegration, HalvedRetentionDoublesBaselineRefreshes)
{
    auto run = [](Tick retention) {
        System sys(tinyThreeD(PolicyKind::Cbr, retention));
        sys.run(8 * kMillisecond);
        return sys.dram().totalRefreshes();
    };
    const auto at4ms = run(4 * kMillisecond);
    const auto at2ms = run(2 * kMillisecond);
    EXPECT_NEAR(static_cast<double>(at2ms),
                2.0 * static_cast<double>(at4ms),
                0.05 * static_cast<double>(at2ms));
}

TEST(ThreeDIntegration, FasterRefreshShrinksRelativeReduction)
{
    // The Fig. 12 vs Fig. 15 effect: an identical access stream
    // eliminates a smaller fraction of refreshes at the doubled rate.
    auto reduction = [](Tick retention) {
        auto run = [&](PolicyKind kind) {
            System sys(tinyThreeD(kind, retention));
            // Calibrate the stream against 4 ms regardless of config
            // (revisit ~2 ms: inside the 3-bit deadline at 4 ms, only
            // just inside at 2 ms).
            DramConfig ref = tinyThreeD(kind, 4 * kMillisecond).dram;
            sys.addWorkload(cacheWorkload(ref, 0.5, 0.6));
            sys.run(4 * kMillisecond);
            const EnergySnapshot warm = captureSnapshot(sys);
            sys.run(12 * kMillisecond);
            const EnergySnapshot end = captureSnapshot(sys);
            return (end - warm).refreshes;
        };
        const auto cbr = run(PolicyKind::Cbr);
        const auto smart = run(PolicyKind::Smart);
        return 1.0 -
               static_cast<double>(smart) / static_cast<double>(cbr);
    };
    const double at4ms = reduction(4 * kMillisecond);
    const double at2ms = reduction(2 * kMillisecond);
    EXPECT_GT(at4ms, 0.0);
    EXPECT_GT(at2ms, 0.0);
    EXPECT_LT(at2ms, at4ms);
}

TEST(ThreeDIntegration, MainMemoryRunsCbr)
{
    System sys(tinyThreeD(PolicyKind::Smart));
    sys.run(2 * sys.config().mainMem.timing.retention);
    // Main memory refreshes at its geometric baseline under CBR.
    EXPECT_GE(sys.mainDram()->totalRefreshes(),
              sys.config().mainMem.org.totalRows());
}

TEST(ThreeDIntegration, DirtyWorkingSetWritesBack)
{
    System sys(tinyThreeD(PolicyKind::Cbr));
    WorkloadParams wp = cacheWorkload(sys.config().dram, 0.5);
    wp.readFraction = 0.0; // all writes
    // Make the footprint twice the cache capacity so aliasing lines
    // continually evict dirty victims.
    wp.footprintRows = 2 * sys.config().dram.org.totalRows();
    sys.addWorkload(wp);
    sys.run(3 * sys.config().dram.timing.retention);
    EXPECT_GT(sys.cache()->writebacks(), 0u);
    EXPECT_GT(sys.mainDram()->writes(), 0u);
}

TEST(ThreeDIntegration, RetentionAwarePolicyOnStackedDie)
{
    // Section 8 composition also applies to the 3D module: RAPID-style
    // classes on the stacked die's rows.
    SystemConfig cfg = tinyThreeD(PolicyKind::RetentionAware);
    RetentionClassParams cp;
    cp.seed = 12;
    cfg.retentionClasses = std::make_shared<RetentionClassMap>(
        cfg.dram.org.totalRows(), cp);
    System sys(cfg);
    sys.addWorkload(cacheWorkload(sys.config().dram, 0.3));
    sys.run(6 * cfg.dram.timing.retention);
    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(
                  sys.eventQueue().now()),
              0u);
    // Classes skip refreshes even without Smart Refresh.
    EXPECT_LT(sys.dram().totalRefreshes(),
              6 * cfg.dram.org.totalRows());
}

TEST(ThreeDIntegration, SmartWithClassesOnStackedDie)
{
    SystemConfig cfg = tinyThreeD(PolicyKind::Smart);
    RetentionClassParams cp;
    cp.seed = 13;
    cfg.retentionClasses = std::make_shared<RetentionClassMap>(
        cfg.dram.org.totalRows(), cp);
    System sys(cfg);
    sys.addWorkload(cacheWorkload(sys.config().dram, 0.4));
    sys.run(8 * cfg.dram.timing.retention);
    EXPECT_EQ(sys.smartPolicy()->counters().bits(), 5u); // widened
    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(
                  sys.eventQueue().now()),
              0u);
}

TEST(ThreeDIntegration, StatsExportKeepsBothDomainsApart)
{
    // Main memory's module, controller and CBR policy sit under
    // "mainMem", so every exported path names exactly one stat — also
    // under CBR, where both domains run a policy named "refresh.cbr".
    for (PolicyKind kind : {PolicyKind::Smart, PolicyKind::Cbr}) {
        SCOPED_TRACE(toString(kind));
        System sys(tinyThreeD(kind));
        WorkloadParams wp = cacheWorkload(sys.config().dram, 0.5);
        // Twice the cache capacity, so misses reach main memory.
        wp.footprintRows = 2 * sys.config().dram.org.totalRows();
        sys.addWorkload(wp);
        sys.run(2 * sys.config().dram.timing.retention);
        ASSERT_GT(sys.mainController()->demandReads(), 0u);

        std::ostringstream os;
        ASSERT_NO_THROW(writeStatsJson(sys, os));
        const minijson::Value doc = minijson::parse(os.str());
        const minijson::Value &stats = doc.at("stats");
        EXPECT_EQ(stats.at("system3d.ctrl.demandReads").at("value").number,
                  double(sys.controller().demandReads()));
        EXPECT_EQ(
            stats.at("system3d.mainMem.ctrl.demandReads").at("value").number,
            double(sys.mainController()->demandReads()));

        const std::string stacked =
            std::string("system3d.refresh.") + toString(kind) + ".";
        const std::string main = "system3d.mainMem.refresh.cbr.";
        std::size_t stackedStats = 0;
        std::size_t mainStats = 0;
        for (const auto &[key, value] : stats.object) {
            stackedStats += key.compare(0, stacked.size(), stacked) == 0;
            mainStats += key.compare(0, main.size(), main) == 0;
        }
        EXPECT_GT(stackedStats, 0u);
        EXPECT_GT(mainStats, 0u);
    }
}
