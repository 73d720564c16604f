/**
 * @file
 * The Section 8 orthogonality claim, executable: RAPID-style retention
 * classes alone (RetentionAwarePolicy), Smart Refresh alone, and the
 * two composed — all retention-safe, with composition skipping the most
 * refreshes.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hh"
#include "test_config.hh"

using namespace smartref;

namespace {

std::shared_ptr<const RetentionClassMap>
makeClasses(const DramConfig &cfg, std::uint64_t seed = 7)
{
    RetentionClassParams params;
    params.seed = seed;
    return std::make_shared<RetentionClassMap>(cfg.org.totalRows(),
                                               params);
}

SystemConfig
classySystem(PolicyKind policy, const DramConfig &dram,
             std::shared_ptr<const RetentionClassMap> classes)
{
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policy;
    cfg.smart.autoReconfigure = false;
    cfg.retentionClasses = std::move(classes);
    return cfg;
}

} // namespace

TEST(RetentionClassMap, PopulationsMatchFractions)
{
    RetentionClassParams params; // 2 % / 28 % / 70 %
    RetentionClassMap map(100000, params);
    EXPECT_EQ(map.maxMultiplier(), 4u);
    EXPECT_NEAR(static_cast<double>(map.population(1)), 2000.0, 400.0);
    EXPECT_NEAR(static_cast<double>(map.population(2)), 28000.0, 1500.0);
    EXPECT_NEAR(static_cast<double>(map.population(4)), 70000.0, 1500.0);
    EXPECT_EQ(map.population(1) + map.population(2) + map.population(4),
              100000u);
}

TEST(RetentionClassMap, DeterministicPerSeed)
{
    RetentionClassParams params;
    RetentionClassMap a(1000, params), b(1000, params);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(a.multiplier(i), b.multiplier(i));
}

TEST(RetentionClassMap, IdealRateBelowBaseline)
{
    RetentionClassMap map(131072, RetentionClassParams{});
    const double ideal = map.idealRefreshRate(64 * kMillisecond);
    // Baseline is 2.048 M/s; with 70 % of rows at 4x and 28 % at 2x the
    // ideal is roughly 0.02 + 0.28/2 + 0.70/4 = 33.5 % of it.
    EXPECT_LT(ideal, 2048000.0 * 0.40);
    EXPECT_GT(ideal, 2048000.0 * 0.25);
}

TEST(RetentionAware, RefreshesAtTheIdealClassRate)
{
    // RAPID's bound end to end: after a warm-up, a 2 GB retention-aware
    // run refreshes every row exactly once per class deadline, never
    // later (0 violations) and never earlier, idle or under traffic.
    const DramConfig dram = ddr2_2GB();
    RetentionClassParams params;
    params.seed = 42;
    auto classes =
        std::make_shared<RetentionClassMap>(dram.org.totalRows(), params);
    const Tick retention = dram.timing.retention;
    const double ideal = classes->idealRefreshRate(retention);
    EXPECT_NEAR(ideal, 685769.53, 0.01);
    // A window of 4 x 64 ms is a whole number of every class period.
    const Tick window = 4 * retention;
    const std::uint64_t perWindow = 4 * classes->population(1) +
                                    2 * classes->population(2) +
                                    classes->population(4);
    for (const bool traffic : {false, true}) {
        System sys(classySystem(PolicyKind::RetentionAware, dram, classes));
        for (const auto &wp :
             traffic ? conventionalParams(findProfile("mummer"), dram)
                     : std::vector<WorkloadParams>{idleParams(dram)})
            sys.addWorkload(wp);
        sys.run(window);
        const std::uint64_t warm = sys.dram().totalRefreshes();
        sys.run(window);
        const std::uint64_t refreshes = sys.dram().totalRefreshes() - warm;
        EXPECT_EQ(refreshes, perWindow) << "traffic " << traffic;
        EXPECT_DOUBLE_EQ(static_cast<double>(refreshes) /
                             (static_cast<double>(window) /
                              static_cast<double>(kSecond)),
                         ideal);
        EXPECT_EQ(sys.dram().retention().violations(), 0u);
        EXPECT_EQ(
            sys.dram().retention().finalCheck(sys.eventQueue().now()), 0u);
    }
}

TEST(RetentionClassMap, RejectsBadParams)
{
    RetentionClassParams bad;
    bad.classes = {{1, 0.5}, {3, 0.5}}; // 3 is not a power of two
    EXPECT_THROW(RetentionClassMap(100, bad), std::logic_error);
    bad.classes = {{1, 0.5}, {2, 0.2}}; // fractions do not sum to 1
    EXPECT_THROW(RetentionClassMap(100, bad), std::logic_error);
    bad.classes = {{2, 0.5}, {2, 0.5}}; // not ascending
    EXPECT_THROW(RetentionClassMap(100, bad), std::logic_error);
}

TEST(RetentionAware, SafeAndSkipsOnIdleModule)
{
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    System sys(classySystem(PolicyKind::RetentionAware, dram, classes));
    const Tick retention = dram.timing.retention;
    sys.run(retention); // first pass refreshes everything
    const std::uint64_t firstPass = sys.dram().totalRefreshes();
    sys.run(4 * retention);
    const std::uint64_t steady =
        sys.dram().totalRefreshes() - firstPass;

    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(sys.eventQueue().now()),
              0u);
    // Steady state must sit near the ideal multi-rate count and well
    // below the 4-intervals-of-everything baseline.
    const double baseline = 4.0 * dram.org.totalRows();
    EXPECT_LT(static_cast<double>(steady), baseline * 0.5);
    EXPECT_GT(static_cast<double>(steady), baseline * 0.25);
}

TEST(RetentionAware, RequiresClassMap)
{
    SystemConfig cfg;
    cfg.dram = tcfg::tinyConfig();
    cfg.policy = PolicyKind::RetentionAware;
    EXPECT_THROW(System sys(cfg), std::logic_error);
}

TEST(SmartWithClasses, MultiRateCountersAreSafe)
{
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    System sys(classySystem(PolicyKind::Smart, dram, classes));
    // Widened counters: 3 base bits + 2 for the 4x class.
    EXPECT_EQ(sys.smartPolicy()->counters().bits(), 5u);
    sys.run(6 * dram.timing.retention);
    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(sys.eventQueue().now()),
              0u);
}

TEST(SmartWithClasses, SkipsMoreThanEitherAlone)
{
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    const Tick retention = dram.timing.retention;

    auto steadyRefreshes = [&](PolicyKind kind, bool withClasses) {
        System sys(classySystem(kind, dram,
                                withClasses ? classes : nullptr));
        sys.run(2 * retention); // absorb first-interval transients
        const std::uint64_t warm = sys.dram().totalRefreshes();
        sys.run(4 * retention);
        EXPECT_EQ(sys.dram().retention().violations(), 0u);
        return sys.dram().totalRefreshes() - warm;
    };

    const std::uint64_t cbr = steadyRefreshes(PolicyKind::Cbr, false);
    const std::uint64_t rapidOnly =
        steadyRefreshes(PolicyKind::RetentionAware, true);
    const std::uint64_t combined =
        steadyRefreshes(PolicyKind::Smart, true);

    // On an idle module, access-driven skipping contributes nothing, so
    // "combined" reduces to the class-driven rate: it must match
    // RAPID-only (and beat CBR), demonstrating the mechanisms coexist.
    EXPECT_LT(rapidOnly, cbr);
    EXPECT_LT(combined, cbr);
    EXPECT_NEAR(static_cast<double>(combined),
                static_cast<double>(rapidOnly),
                static_cast<double>(rapidOnly) * 0.25);
}

TEST(SmartWithClasses, AccessesStillSkipOnTop)
{
    // Under traffic, the combined scheme must beat RAPID-only: touched
    // rows skip even their class-deadline refreshes.
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    const Tick retention = dram.timing.retention;

    auto run = [&](PolicyKind kind) {
        System sys(classySystem(kind, dram, classes));
        WorkloadParams wp;
        wp.footprintRows = dram.org.totalRows() / 2;
        wp.rowVisitsPerSecond =
            static_cast<double>(wp.footprintRows) /
            (static_cast<double>(retention) /
             static_cast<double>(kSecond)) *
            2.0;
        wp.seed = 5;
        sys.addWorkload(wp);
        sys.run(2 * retention);
        const std::uint64_t warm = sys.dram().totalRefreshes();
        sys.run(6 * retention);
        EXPECT_EQ(sys.dram().retention().violations(), 0u);
        EXPECT_EQ(
            sys.dram().retention().finalCheck(sys.eventQueue().now()),
            0u);
        return sys.dram().totalRefreshes() - warm;
    };

    const std::uint64_t rapidOnly = run(PolicyKind::RetentionAware);
    const std::uint64_t combined = run(PolicyKind::Smart);
    EXPECT_LT(combined, rapidOnly);
}

TEST(TrackerClassLimits, PerRowDeadlinesApply)
{
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    System sys(classySystem(PolicyKind::Cbr, dram, classes));
    // Find one 4x row and check its limit.
    for (std::uint64_t i = 0; i < dram.org.totalRows(); ++i) {
        if (classes->multiplier(i) == 4) {
            const auto row =
                static_cast<std::uint32_t>(i % dram.org.rows);
            const auto rb = i / dram.org.rows;
            const auto bank =
                static_cast<std::uint32_t>(rb % dram.org.banks);
            const auto rank =
                static_cast<std::uint32_t>(rb / dram.org.banks);
            EXPECT_EQ(sys.dram().retention().rowLimit(rank, bank, row),
                      4 * dram.timing.retention);
            return;
        }
    }
    FAIL() << "no 4x row found";
}

TEST(SmartWithClasses, AutoReconfigureTransitionsStaySafe)
{
    // Mode switches with multi-rate counters: the overlap plus the
    // counter reset on every CBR refresh carries each row's *class*
    // deadline across the handover (a 4x row re-enabled with a full
    // counter could otherwise exceed 4x retention).
    const DramConfig dram = tcfg::tinyConfig();
    auto classes = makeClasses(dram);
    SystemConfig cfg = classySystem(PolicyKind::Smart, dram, classes);
    cfg.smart.autoReconfigure = true;
    System sys(cfg);

    // Busy (keeps Smart on), then idle (falls back to CBR), then busy
    // again (re-enables) — spanning several 4x-class deadlines.
    const Tick retention = dram.timing.retention;
    WorkloadParams busy1;
    busy1.name = "busy1";
    busy1.footprintRows = dram.org.totalRows() / 2;
    busy1.rowVisitsPerSecond =
        static_cast<double>(busy1.footprintRows) /
        (static_cast<double>(retention) / static_cast<double>(kSecond)) *
        2.0;
    busy1.stopAfter = 4 * retention;
    busy1.seed = 5;
    WorkloadParams busy2 = busy1;
    busy2.name = "busy2";
    busy2.startAfter = 12 * retention;
    busy2.stopAfter = kTickMax;
    busy2.seed = 6;
    sys.addWorkload(busy1);
    sys.addWorkload(busy2);

    sys.run(24 * retention);
    EXPECT_GE(sys.smartPolicy()->monitor().switchesToCbr(), 1u);
    EXPECT_GE(sys.smartPolicy()->monitor().switchesToSmart(), 1u);
    EXPECT_EQ(sys.dram().retention().violations(), 0u);
    EXPECT_EQ(sys.dram().retention().finalCheck(sys.eventQueue().now()),
              0u);
}
