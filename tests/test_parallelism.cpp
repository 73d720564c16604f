/**
 * @file
 * Refresh-access parallelism tests: mode parsing, subarray busy-window
 * bookkeeping in the bank/device models, the REFab rank stall, the DARP
 * idle predictor and forced dispatch, sweep-axis plumbing
 * (pointKey/seed/expansion), the
 * -j1 vs -jN byte-identity of parallelism sweeps, and the headline
 * ordering property — DARP/SARP block demand strictly less than
 * all-bank refresh at equal refresh counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "ctrl/darp_predictor.hh"
#include "ctrl/memory_controller.hh"
#include "ctrl/refresh_audit.hh"
#include "dram/dram_module.hh"
#include "dram/refresh_parallelism.hh"
#include "harness/sweep.hh"
#include "test_config.hh"

using namespace smartref;

TEST(ParallelismNames, RoundTrip)
{
    for (RefreshParallelism p :
         {RefreshParallelism::None, RefreshParallelism::PerBank,
          RefreshParallelism::Darp, RefreshParallelism::Sarp,
          RefreshParallelism::DSarp}) {
        EXPECT_EQ(parallelismFromString(toString(p)), p);
    }
    EXPECT_EQ(parallelismFromString("refpb"), RefreshParallelism::PerBank);
    EXPECT_EQ(parallelismFromString("all"), RefreshParallelism::DSarp);
    EXPECT_THROW(parallelismFromString("nosuch"), std::runtime_error);
}

TEST(ParallelismNames, LayerPredicates)
{
    EXPECT_FALSE(parallelismUsesDarp(RefreshParallelism::PerBank));
    EXPECT_TRUE(parallelismUsesDarp(RefreshParallelism::Darp));
    EXPECT_TRUE(parallelismUsesDarp(RefreshParallelism::DSarp));
    EXPECT_FALSE(parallelismUsesSubarrays(RefreshParallelism::Darp));
    EXPECT_TRUE(parallelismUsesSubarrays(RefreshParallelism::Sarp));
    EXPECT_TRUE(parallelismUsesSubarrays(RefreshParallelism::DSarp));
}

TEST(SubarrayGeometry, MapsRowsAndValidates)
{
    DramConfig c = tcfg::tinyConfig(); // 64 rows, 8 subarrays
    EXPECT_EQ(c.org.rowsPerSubarray(), 8u);
    EXPECT_EQ(c.org.subarrayOf(0), 0u);
    EXPECT_EQ(c.org.subarrayOf(7), 0u);
    EXPECT_EQ(c.org.subarrayOf(8), 1u);
    EXPECT_EQ(c.org.subarrayOf(63), 7u);
    c.org.subarraysPerBank = 7; // 64 % 7 != 0
    EXPECT_THROW(c.validate(), std::runtime_error);
    c.org.subarraysPerBank = 0;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(SubarrayGeometry, RefreshClosesPageOnlyInSameSubarray)
{
    DramConfig c = tcfg::tinyConfig();
    // Outside subarray modes any refresh closes the open page.
    c.parallelism = RefreshParallelism::PerBank;
    EXPECT_TRUE(c.refreshClosesPage(3, 60));
    c.parallelism = RefreshParallelism::Sarp;
    EXPECT_TRUE(c.refreshClosesPage(3, 5));   // both subarray 0
    EXPECT_FALSE(c.refreshClosesPage(3, 60)); // subarray 0 vs 7
    c.parallelism = RefreshParallelism::DSarp;
    EXPECT_FALSE(c.refreshClosesPage(3, 60));
}

class SubarrayBankTest : public ::testing::Test
{
  protected:
    SubarrayBankTest() { bank.configureSubarrays(8); }

    DramTiming t = tcfg::tinyConfig().timing;
    Bank bank;
};

TEST_F(SubarrayBankTest, RefreshBusiesOnlyTargetSubarray)
{
    const Tick done = bank.refreshSubarray(2, 1000, t, false);
    EXPECT_EQ(done, 1000 + t.tRFCrow);
    EXPECT_EQ(bank.subarrayBusyUntil(2), done);
    EXPECT_EQ(bank.subarrayBusyUntil(0), 0u);
    EXPECT_EQ(bank.subarrayBusyUntil(3), 0u);
    EXPECT_EQ(bank.maxSubarrayBusyUntil(), done);
    EXPECT_EQ(bank.lastRefreshStart(), 1000u);
    // Bank-level windows are untouched: demand may proceed elsewhere.
    EXPECT_EQ(bank.busyUntil(), 0u);
    EXPECT_EQ(bank.actAllowedAt(), 0u);
}

TEST_F(SubarrayBankTest, OpenPageSurvivesOtherSubarrayRefresh)
{
    bank.activate(3, 0, t); // row 3 lives in subarray 0
    bank.refreshSubarray(5, t.tRAS, t, /*closesOwnPage=*/false);
    EXPECT_TRUE(bank.isOpen());
    EXPECT_EQ(bank.openRow(), 3u);
}

TEST_F(SubarrayBankTest, SameSubarrayRefreshClosesPageAndAddsPrecharge)
{
    bank.activate(3, 0, t);
    const Tick start = t.tRAS;
    const Tick done =
        bank.refreshSubarray(0, start, t, /*closesOwnPage=*/true);
    EXPECT_EQ(done, start + t.tRP + t.tRFCrow);
    EXPECT_FALSE(bank.isOpen());
    EXPECT_EQ(bank.subarrayBusyUntil(0), done);
}

TEST_F(SubarrayBankTest, BusyWindowsMergeByMax)
{
    bank.refreshSubarray(1, 1000, t, false);
    const Tick first = bank.subarrayBusyUntil(1);
    bank.refreshSubarray(1, 500, t, false); // earlier start, shorter end
    EXPECT_EQ(bank.subarrayBusyUntil(1), first);
}

TEST(RefabStall, StallAllBanksMergesByMax)
{
    Bank bank;
    EXPECT_EQ(bank.refreshStall(), 0u);
    bank.stallForRefresh(5000);
    bank.stallForRefresh(3000); // earlier: must not shrink the window
    EXPECT_EQ(bank.refreshStall(), 5000u);
}

class ParallelismModuleTest : public ::testing::Test
{
  protected:
    DramModule &
    make(RefreshParallelism p)
    {
        DramConfig c = tcfg::tinyConfig();
        c.parallelism = p;
        dram = std::make_unique<DramModule>(c, eq);
        return *dram;
    }

    EventQueue eq;
    std::unique_ptr<DramModule> dram;
};

TEST_F(ParallelismModuleTest, RefabRefreshStallsSiblingBanks)
{
    DramModule &d = make(RefreshParallelism::None);
    const Tick done = d.issue({DramCommandType::RefreshRasOnly, 0, 0, 0, 0});
    // The sibling bank is stalled until the refresh completes...
    EXPECT_EQ(d.refreshBlockedUntil(0, 1, 0), done);
    EXPECT_GE(d.earliestIssue({DramCommandType::Activate, 0, 1, 9, 0}),
              done);
}

TEST_F(ParallelismModuleTest, PerBankRefreshLeavesSiblingBanksFree)
{
    DramModule &d = make(RefreshParallelism::PerBank);
    const Tick done = d.issue({DramCommandType::RefreshRasOnly, 0, 0, 0, 0});
    EXPECT_EQ(d.refreshBlockedUntil(0, 0, 0), done);
    EXPECT_EQ(d.refreshBlockedUntil(0, 1, 0), 0u);
    EXPECT_EQ(d.earliestIssue({DramCommandType::Activate, 0, 1, 9, 0}),
              eq.now());
}

TEST_F(ParallelismModuleTest, SarpRefreshBlocksOnlyItsSubarray)
{
    DramModule &d = make(RefreshParallelism::Sarp);
    // Refresh row 0 (subarray 0) of bank 0.
    const Tick done = d.issue({DramCommandType::RefreshRasOnly, 0, 0, 0, 0});
    // A row in the refreshed subarray is blocked until completion; a
    // row in another subarray of the same bank is not.
    EXPECT_EQ(d.refreshBlockedUntil(0, 0, 3), done);
    EXPECT_EQ(d.subarrayBlockedUntil(0, 0, 3), done);
    EXPECT_EQ(d.subarrayBlockedUntil(0, 0, 60), 0u);
    EXPECT_EQ(d.refreshBlockedUntil(0, 0, 60), 0u);
}

TEST_F(ParallelismModuleTest, SarpOpenPageSurvivesOtherSubarrayRefresh)
{
    DramModule &d = make(RefreshParallelism::Sarp);
    eq.runUntil(d.earliestIssue({DramCommandType::Activate, 0, 0, 60, 0}));
    d.issue({DramCommandType::Activate, 0, 0, 60, 0}); // subarray 7
    d.issue({DramCommandType::RefreshRasOnly, 0, 0, 0, 0}); // subarray 0
    EXPECT_TRUE(d.isBankOpen(0, 0));
    EXPECT_EQ(d.openRow(0, 0), 60u);
}

TEST(DarpPredictor, NeverSeenBankIsIdle)
{
    DarpIdlePredictor p;
    EXPECT_FALSE(p.hasSeenDemand());
    EXPECT_TRUE(p.expectIdleFor(12345, 1000000));
}

TEST(DarpPredictor, LearnsRegularCadence)
{
    DarpIdlePredictor p;
    // Regular arrivals every 1000 ticks converge the EWMA onto the gap.
    Tick now = 0;
    for (int i = 0; i < 64; ++i) {
        p.recordDemand(now);
        now += 1000;
    }
    EXPECT_NEAR(static_cast<double>(p.averageGap()), 1000.0, 4.0);
    const Tick last = p.lastArrival();
    // Shortly after an arrival the bank is expected busy again soon:
    // a long refresh does not fit in the predicted idle window...
    EXPECT_FALSE(p.expectIdleFor(last, 5000));
    // ...but a short operation that fits inside the gap does.
    EXPECT_TRUE(p.expectIdleFor(last, 500));
}

TEST(DarpPredictor, GapNeverGoesNegative)
{
    DarpIdlePredictor p;
    p.recordDemand(1000);
    p.recordDemand(1000); // zero gap
    p.recordDemand(1000);
    EXPECT_GE(p.averageGap(), 0);
    EXPECT_TRUE(p.expectIdleFor(1000, 0));
}

TEST(DarpForced, ExpiredRefreshesJumpQueuedDemandInCreationOrder)
{
    // Bank 0 never goes quiet: 400 row-conflicting reads queue at tick
    // 0, far more than one defer window of work. The two refreshes
    // DARP holds there must not wait for the drain: at the deadline
    // they go to the front of the bank's queue, oldest first.
    EventQueue eq;
    DramConfig c = tcfg::tinyConfig();
    c.parallelism = RefreshParallelism::Darp;
    DramModule dram(c, eq);
    const ControllerConfig cfg;
    MemoryController ctrl(dram, eq, cfg);
    RefreshAudit audit(
        RefreshAudit::Shape{c.org.ranks, c.org.banks, c.org.rows});
    ctrl.setAudit(&audit);

    // Block row b is bank b % banks, row b / banks: bank 0, rows 1 and 2.
    std::vector<Tick> completions;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t blockRow = c.org.banks * (1 + i % 2);
        ctrl.access(blockRow * c.org.rowBytes(), false,
                    [&](const MemRequest &, Tick done) {
                        completions.push_back(done);
                    });
    }
    for (std::uint32_t row : {10u, 11u})
        ctrl.pushRefresh({0, 0, row, false, eq.now()});
    EXPECT_EQ(ctrl.darpDeferred(), 2u);
    eq.run();

    ASSERT_EQ(completions.size(), 400u);
    EXPECT_EQ(audit.count(AuditOutcome::DarpForced), 2u);
    std::vector<AuditRecord> forced;
    for (const AuditRecord &r : audit.collect())
        if (r.outcome == static_cast<std::uint8_t>(AuditOutcome::DarpForced))
            forced.push_back(r);
    ASSERT_EQ(forced.size(), 2u);
    EXPECT_EQ(forced[0].row, 10u);
    EXPECT_EQ(forced[1].row, 11u);

    // Both issue within a microsecond of the deadline, while hundreds
    // of queued reads still wait; only the read in service and the one
    // whose data was returning complete in between.
    const Tick deadline = cfg.darpDeferWindow;
    EXPECT_GE(forced[0].tick, deadline);
    EXPECT_LT(forced[1].tick, deadline + kMicrosecond);
    const auto completedIn = [&](Tick from, Tick to) {
        return std::count_if(completions.begin(), completions.end(),
                             [&](Tick t) { return t > from && t <= to; });
    };
    EXPECT_LE(completedIn(deadline, forced[1].tick), 2);
    EXPECT_GT(completedIn(forced[1].tick, eq.now()), 100);

    EXPECT_EQ(dram.retention().violations() +
                  dram.retention().finalCheck(eq.now()),
              0u);
}

TEST(ParallelismSweepAxis, PointKeyOmitsDefaultMode)
{
    SweepPoint p;
    p.config = "2gb";
    p.benchmark = "mummer";
    p.policy = "smart";
    p.counterBits = 3;
    p.retentionMs = 0;
    // The default must keep the pre-parallelism key (and therefore the
    // published seeds) byte-identical.
    EXPECT_EQ(pointKey(p),
              "config=2gb;bench=mummer;policy=smart;bits=3;retentionMs=0");
    p.parallelism = "darp";
    EXPECT_EQ(pointKey(p),
              "config=2gb;bench=mummer;policy=smart;bits=3;retentionMs=0"
              ";par=darp");
    SweepPoint q = p;
    q.parallelism = "sarp";
    EXPECT_NE(deriveJobSeed(42, p), deriveJobSeed(42, q));
}

TEST(ParallelismSweepAxis, ExpansionNestsBetweenPolicyAndBenchmark)
{
    SweepGrid g;
    g.configs = {"2gb"};
    g.benchmarks = {"mummer", "gcc"};
    g.policies = {"cbr", "smart"};
    g.counterBits = {3};
    g.retentionMs = {0};
    g.parallelism = {"refpb", "darp"};
    const auto jobs = expandGrid(g, 42);
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].point.policy, "cbr");
    EXPECT_EQ(jobs[0].point.parallelism, "refpb");
    EXPECT_EQ(jobs[0].point.benchmark, "mummer");
    EXPECT_EQ(jobs[1].point.benchmark, "gcc");      // benchmark innermost
    EXPECT_EQ(jobs[2].point.parallelism, "darp");   // parallelism next
    EXPECT_EQ(jobs[4].point.policy, "smart");       // then policy
}

TEST(ParallelismSweepAxis, UnknownModeIsFatal)
{
    SweepGrid g;
    g.parallelism = {"nosuch"};
    EXPECT_THROW(expandGrid(g, 42), std::runtime_error);
}

TEST(ParallelismSweepAxis, ParsesJsonMember)
{
    const SweepGrid g = parseSweepGrid(
        R"({"name":"p","parallelism":["none","darp"]})");
    EXPECT_EQ(g.parallelism,
              (std::vector<std::string>{"none", "darp"}));
    const SweepGrid d = parseSweepGrid(R"({"name":"p"})");
    EXPECT_EQ(d.parallelism, (std::vector<std::string>{"refpb"}));
}

namespace {

/** Tiny windows: determinism, not statistics, is under test. */
SweepRunOptions
fastOptions(unsigned jobs)
{
    SweepRunOptions opts;
    opts.jobs = jobs;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    return opts;
}

SweepGrid
parallelismGrid()
{
    SweepGrid g;
    g.name = "par";
    g.configs = {"2gb"};
    g.benchmarks = {"mummer"};
    g.policies = {"cbr"};
    g.counterBits = {3};
    g.retentionMs = {0};
    g.parallelism = {"none", "refpb", "darp", "sarp", "all"};
    return g;
}

std::string
aggregateJson(const SweepGrid &grid, const SweepRunOptions &opts)
{
    std::ostringstream oss;
    writeSweepJson(grid, opts, runSweep(grid, opts), oss);
    return oss.str();
}

} // namespace

TEST(ParallelismDeterminism, AggregatesAreByteIdenticalAcrossJobs)
{
    const SweepGrid grid = parallelismGrid();
    EXPECT_EQ(aggregateJson(grid, fastOptions(1)),
              aggregateJson(grid, fastOptions(8)));
}

TEST(ParallelismOrdering, DarpAndSarpBlockLessThanAllBank)
{
    // Policy "cbr" compares the refresh cadence against itself, so all
    // modes issue the same refresh count and the blocked-ticks ordering
    // is attributable to the parallelism mode alone.
    const SweepGrid grid = parallelismGrid();
    const auto results = runSweep(grid, fastOptions(2));
    ASSERT_EQ(results.size(), 5u);
    const RunResult &none = results[0].comparison.smart;
    const RunResult &refpb = results[1].comparison.smart;
    const RunResult &darp = results[2].comparison.smart;
    const RunResult &sarp = results[3].comparison.smart;
    const RunResult &dsarp = results[4].comparison.smart;

    // Equal refresh counts across modes (the cadence is fixed by CBR).
    EXPECT_NEAR(none.refreshesPerSec, darp.refreshesPerSec,
                none.refreshesPerSec * 0.01);
    EXPECT_NEAR(none.refreshesPerSec, sarp.refreshesPerSec,
                none.refreshesPerSec * 0.01);

    // All-bank refresh blocks demand the most; every parallelism layer
    // strictly improves on it.
    EXPECT_GT(none.demandBlockedByRefreshTicks,
              refpb.demandBlockedByRefreshTicks);
    EXPECT_GT(none.demandBlockedByRefreshTicks,
              darp.demandBlockedByRefreshTicks);
    EXPECT_GT(none.demandBlockedByRefreshTicks,
              sarp.demandBlockedByRefreshTicks);
    EXPECT_GT(none.demandBlockedByRefreshTicks,
              dsarp.demandBlockedByRefreshTicks);

    // The DARP layers actually exercised their machinery.
    EXPECT_GT(darp.refreshStallsAvoided, 0u);
    EXPECT_GT(dsarp.refreshStallsAvoided, 0u);
    EXPECT_EQ(none.refreshStallsAvoided, 0u);
}

TEST(PerBankPolicy, MatchesCbrRefreshRateOnTinyWindows)
{
    // The per-bank walker covers every row once per retention interval,
    // so its steady-state rate equals the CBR baseline's.
    SweepJob job;
    job.point.config = "2gb";
    job.point.benchmark = "mummer";
    job.point.policy = "per-bank";
    job.seed = 42;
    const SweepJobResult r = runSweepJob(job, fastOptions(1));
    EXPECT_NEAR(r.comparison.smart.refreshesPerSec,
                r.comparison.baseline.refreshesPerSec,
                r.comparison.baseline.refreshesPerSec * 0.02);
    EXPECT_EQ(r.comparison.smart.violations, 0u);
}
