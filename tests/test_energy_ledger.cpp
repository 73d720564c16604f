/**
 * @file
 * EnergyLedger tests: ulp distance, hook accumulation, interval
 * bucketing, overhead idempotence, JSON export shape, and the
 * conservation invariant end-to-end — a ledger attached for a whole
 * run reconciles against the power model, a late-attached one does
 * not, and the exported conservation-check JSON gates against the
 * stats JSON through `smartref_statdiff --subset` semantics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dram/energy_ledger.hh"
#include "harness/experiment.hh"
#include "harness/statdiff.hh"
#include "sim/mini_json.hh"
#include "sim/stats_json.hh"

using namespace smartref;

namespace {

EnergyLedger::Shape
smallShape()
{
    return {2, 4};
}

} // namespace

TEST(EnergyLedger, UlpDistanceCountsRepresentableSteps)
{
    EXPECT_EQ(ulpDistance(1.0, 1.0), 0u);
    EXPECT_EQ(ulpDistance(0.0, 0.0), 0u);
    const double next = std::nextafter(1.0, 2.0);
    EXPECT_EQ(ulpDistance(1.0, next), 1u);
    EXPECT_EQ(ulpDistance(next, 1.0), 1u);
    EXPECT_GT(ulpDistance(1.0, 1.0 + 1e-9), 1u);
}

TEST(EnergyLedger, HooksAccumulateTotalsAndCellCounts)
{
    EnergyLedger ledger(smallShape());
    ledger.onActivate(0, 0, 1, 2e-9);
    ledger.onActivate(0, 0, 1, 2e-9);
    ledger.onRead(0, 1, 3, 3e-9);
    ledger.onWrite(0, 1, 0, 5e-9);
    EXPECT_DOUBLE_EQ(ledger.totals().act, 4e-9);
    EXPECT_DOUBLE_EQ(ledger.totals().read, 3e-9);
    EXPECT_DOUBLE_EQ(ledger.totals().write, 5e-9);

    const EnergyLedger::Cell counts = ledger.cellTotals();
    EXPECT_EQ(counts.acts, 2u);
    EXPECT_EQ(counts.reads, 1u);
    EXPECT_EQ(counts.writes, 1u);
}

TEST(EnergyLedger, RefreshHookSplitsOpenPenalty)
{
    EnergyLedger ledger(smallShape());
    ledger.onRefresh(0, 0, 0, /*bankWasOpen=*/false, 7e-9, 0.0);
    ledger.onRefresh(0, 0, 0, /*bankWasOpen=*/true, 7e-9, 2e-9);
    // Two separate += per open refresh, mirroring the power model's
    // accumulation order, so the shadow stays bit-identical.
    EXPECT_DOUBLE_EQ(ledger.totals().refresh, (7e-9 + 7e-9) + 2e-9);
    const EnergyLedger::Cell counts = ledger.cellTotals();
    EXPECT_EQ(counts.refreshesClosed, 1u);
    EXPECT_EQ(counts.refreshesOpen, 1u);
}

TEST(EnergyLedger, BackgroundResidencySplitsAcrossIntervals)
{
    EnergyLedger ledger(smallShape(), 4 * kMillisecond);
    // 3 ms .. 5 ms straddles the 4 ms interval boundary.
    ledger.onBackground(3 * kMillisecond, 5 * kMillisecond, 1,
                        RankPowerState::PrechargeStandby, 0.5);
    ASSERT_GE(ledger.intervals().size(), 2u);
    const auto state =
        static_cast<std::size_t>(RankPowerState::PrechargeStandby);
    EXPECT_EQ(ledger.intervals()[0].background[1].ticks[state],
              kMillisecond);
    EXPECT_EQ(ledger.intervals()[1].background[1].ticks[state],
              kMillisecond);
    EXPECT_DOUBLE_EQ(ledger.totals().background,
                     0.5 * 2e-3); // 0.5 W for 2 ms
}

TEST(EnergyLedger, OverheadIsIdempotentAndJoinsTheTotal)
{
    EnergyLedger ledger(smallShape());
    ledger.setOverhead(2.0);
    ledger.setOverhead(3.0);
    EXPECT_DOUBLE_EQ(ledger.totals().overhead, 3.0);
    EXPECT_DOUBLE_EQ(ledger.totals().total(), 3.0);
}

TEST(EnergyLedger, JsonExportParsesAndAgreesWithAccessors)
{
    EnergyLedger ledger(smallShape());
    ledger.onActivate(kMillisecond, 0, 2, 2e-9);
    ledger.onRefresh(kMillisecond, 1, 1, false, 7e-9, 0.0);
    ledger.setOverhead(1e-6);
    std::ostringstream oss;
    ledger.writeJson(oss, "{\"schemaVersion\":\"x\"}");
    const minijson::Value v = minijson::parse(oss.str());
    EXPECT_EQ(v.at("schema").str, "smartref-ledger-v1");
    EXPECT_EQ(v.at("shape").at("ranks").number, 2.0);
    EXPECT_EQ(v.at("counts").at("acts").number, 1.0);
    EXPECT_EQ(v.at("counts").at("refreshesClosed").number, 1.0);
    EXPECT_DOUBLE_EQ(v.at("totals").at("actEnergy").number, 2e-9);
    EXPECT_DOUBLE_EQ(v.at("totals").at("overheadEnergy").number, 1e-6);
    // Only touched cells are exported.
    ASSERT_EQ(v.at("intervals").array.size(), 1u);
    EXPECT_EQ(v.at("intervals").at(0).at("cells").array.size(), 2u);
}

TEST(EnergyLedger, WholeRunConservesAgainstThePowerModel)
{
    const DramConfig dram = dramConfigByName("2gb");
    EnergyLedger ledger(
        EnergyLedger::Shape{dram.org.ranks, dram.org.banks});
    ExperimentOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    opts.ledger = &ledger;
    opts.checkConservation = true; // fatal on violation
    EXPECT_NO_THROW(runConventional(findProfile("mummer"), dram,
                                    policyFromString("smart"), opts));
    EXPECT_GT(ledger.cellTotals().acts, 0u);
    EXPECT_GT(ledger.totals().total(), 0.0);
}

TEST(EnergyLedger, ThrowawayLedgerChecksConservationWhenNoneAttached)
{
    const DramConfig dram = dramConfigByName("2gb");
    ExperimentOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    opts.checkConservation = true;
    EXPECT_NO_THROW(runConventional(findProfile("gcc"), dram,
                                    policyFromString("cbr"), opts));
}

TEST(EnergyLedger, LateAttachmentFailsReconciliation)
{
    const DramConfig dram = dramConfigByName("2gb");
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policyFromString("smart");
    System sys(cfg);
    sys.addWorkload(idleParams(dram, 42));
    sys.run(4 * kMillisecond);

    // The module has already accumulated energy this ledger never saw.
    EnergyLedger ledger(
        EnergyLedger::Shape{dram.org.ranks, dram.org.banks});
    sys.dram().setLedger(&ledger);
#ifdef NDEBUG
    sys.run(4 * kMillisecond);
#else
    // Debug builds check conservation at the end of every run
    // (DramModule::finalize), so the late ledger is caught there first.
    EXPECT_THROW(sys.run(4 * kMillisecond), std::runtime_error);
#endif
    EXPECT_FALSE(sys.dram().verifyLedger(false));
    sys.dram().setLedger(nullptr); // keep finalize() clean in any build
}

TEST(EnergyLedger, ConservationCheckJsonGatesAgainstStatsJsonSubset)
{
    const DramConfig dram = dramConfigByName("2gb");
    EnergyLedger ledger(
        EnergyLedger::Shape{dram.org.ranks, dram.org.banks});
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policyFromString("smart");
    cfg.ledger = &ledger;
    System sys(cfg);
    sys.addWorkload(lightParams(dram, 7));
    sys.run(6 * kMillisecond);
    sys.dram().finalize();
    ASSERT_TRUE(sys.dram().verifyLedger(false));
    ledger.setOverhead(sys.refreshPolicy().overheadEnergy());

    const std::string statsPath = testing::TempDir() + "ledger_stats.json";
    const std::string checkPath = testing::TempDir() + "ledger_check.json";
    {
        std::ofstream stats(statsPath), check(checkPath);
        writeStatsJson(sys, stats);
        ledger.writeConservationCheckJson(
            check, sys.dram().power().fullStatName(), "");
    }

    // The CI gate: every shadow total in the check file must equal the
    // power stat it names, with the stats file free to carry more.
    const DiffResult r = diffMetrics(loadMetrics(checkPath),
                                     loadMetrics(statsPath),
                                     /*subset=*/true);
    EXPECT_TRUE(r.pass())
        << (r.failures.empty()
                ? (r.missingInB.empty() ? "?" : r.missingInB[0])
                : r.failures[0].metric);
    EXPECT_GT(r.passed, 0u);
}
