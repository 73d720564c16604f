/**
 * @file
 * The EXPERIMENTS.md table and ablation rows, one test per row. Every
 * number the document quotes is asserted here at the precision it is
 * quoted (fmtPercent / fmtDouble, as the report writers print it), at
 * the default settings: 64 ms warmup, 128 ms measurement, 3-bit
 * counters, 8 segments, seed 42. Runs go through runConventional()
 * wherever ExperimentOptions carries the setting; a bare System is
 * built only for what it does not carry: the idle-precharge timeout,
 * the idle workload and the adversarial queue pattern.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/counter_array.hh"
#include "dram/thermal_model.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

/** A bare-System run reduced over its measurement window. */
RunResult
measureWindow(System &sys, Tick warmup, Tick measure)
{
    sys.run(warmup);
    const EnergySnapshot warm = captureSnapshot(sys);
    sys.run(measure);
    const EnergySnapshot d = captureSnapshot(sys) - warm;
    RunResult r;
    r.simSeconds =
        static_cast<double>(d.tick) / static_cast<double>(kSecond);
    r.refreshesPerSec = static_cast<double>(d.refreshes) / r.simSeconds;
    r.refreshEnergyJ = d.refreshEnergy;
    r.overheadJ = d.overheadEnergy;
    r.totalEnergyJ = d.totalEnergy();
    r.violations = d.violations + sys.dram().retention().finalCheck(
                                      sys.eventQueue().now());
    return r;
}

std::string
fewer(const RunResult &r, const RunResult &baseline)
{
    return fmtPercent(1.0 - r.refreshesPerSec / baseline.refreshesPerSec);
}

std::string
mJ(double joules)
{
    return fmtDouble(joules * 1e3);
}

} // namespace

// §4.4: one bit loses refreshes to counter granularity; two to four
// bits reach mummer's 68 % coverage limit, and area grows 16 -> 64 KB.
TEST(Experiments, CounterWidthKnee)
{
    const BenchmarkProfile &mummer = findProfile("mummer");
    const DramConfig dram = ddr2_2GB();
    const ExperimentOptions opts;
    ComparisonResult c;
    c.baseline = runConventional(mummer, dram, PolicyKind::Cbr, opts);
    EXPECT_EQ(c.baseline.violations, 0u);
    const char *reduction[] = {"37.1%", "68.0%", "68.0%", "68.0%"};
    const char *areaKB[] = {"16", "32", "48", "64"};
    for (std::uint32_t bits = 1; bits <= 4; ++bits) {
        SCOPED_TRACE(std::to_string(bits) + " bits");
        ExperimentOptions o = opts;
        o.counterBits = bits;
        c.smart = runConventional(mummer, dram, PolicyKind::Smart, o);
        EXPECT_EQ(fmtPercent(c.refreshReduction()), reduction[bits - 1]);
        EXPECT_EQ(fmtDouble(counterAreaKB(dram.org.banks, dram.org.ranks,
                                          dram.org.rows, bits),
                            0),
                  areaKB[bits - 1]);
        EXPECT_EQ(c.smart.violations, 0u);
    }
}

// §4.6: on an idle 2 GB system auto-disable falls back to CBR and pays
// no overhead; forced on, Smart Refresh pays 0.509 mJ of counter and
// bus energy but recovers standby energy through per-rank clustering.
TEST(Experiments, IdleAutoDisable)
{
    struct Idle
    {
        RunResult r;
        SmartRefreshPolicy::Mode mode;
    };
    const auto idle = [](PolicyKind policy, bool autoReconfigure) {
        SystemConfig cfg;
        cfg.dram = ddr2_2GB();
        cfg.policy = policy;
        cfg.smart.autoReconfigure = autoReconfigure;
        System sys(cfg);
        sys.addWorkload(idleParams(cfg.dram));
        const ExperimentOptions opts;
        Idle out;
        out.r = measureWindow(sys,
                              opts.warmup + 2 * cfg.dram.timing.retention,
                              opts.measure);
        out.mode = sys.smartPolicy() ? sys.smartPolicy()->mode()
                                     : SmartRefreshPolicy::Mode::Cbr;
        return out;
    };
    const Idle cbr = idle(PolicyKind::Cbr, false);
    const Idle autoOn = idle(PolicyKind::Smart, true);
    const Idle forced = idle(PolicyKind::Smart, false);

    EXPECT_EQ(autoOn.mode, SmartRefreshPolicy::Mode::Cbr);
    EXPECT_EQ(mJ(autoOn.r.overheadJ), "0.000");
    EXPECT_EQ(mJ(autoOn.r.totalEnergyJ), mJ(cbr.r.totalEnergyJ));
    EXPECT_EQ(forced.mode, SmartRefreshPolicy::Mode::Smart);
    EXPECT_EQ(mJ(forced.r.overheadJ), "0.509");
    EXPECT_EQ(mJ(cbr.r.totalEnergyJ), "102.702");
    EXPECT_EQ(mJ(forced.r.totalEnergyJ), "97.033");
    for (const Idle *run : {&cbr, &autoOn, &forced})
        EXPECT_EQ(run->r.violations, 0u);
}

// §5: adversarial sweep + noise traffic never fills a pending queue of
// N = segments entries; burst refresh's backlog reaches the row count.
TEST(Experiments, PendingQueueBound)
{
    const ExperimentOptions opts;
    for (std::uint32_t segments : {4u, 8u, 16u}) {
        SCOPED_TRACE(std::to_string(segments) + " segments");
        SystemConfig cfg;
        cfg.dram = ddr2_2GB();
        cfg.policy = PolicyKind::Smart;
        cfg.smart.segments = segments;
        cfg.smart.queueCapacity = segments;
        cfg.smart.autoReconfigure = false;
        System sys(cfg);

        // A clockwork sweep of 60 % of all rows every 20 ms aligns
        // their counters so the expiries cluster.
        WorkloadParams sweep;
        sweep.name = "sweep";
        sweep.footprintRows = cfg.dram.org.totalRows() * 6 / 10;
        sweep.rowVisitsPerSecond =
            static_cast<double>(sweep.footprintRows) / 0.020;
        sweep.accessesPerVisit = 1;
        sweep.randomJumpProb = 0.0;
        sweep.interArrivalJitter = 0.0;
        sweep.seed = 2;
        sys.addWorkload(sweep);

        // Random traffic competes for the banks.
        WorkloadParams noise;
        noise.name = "noise";
        noise.footprintRows = cfg.dram.org.totalRows();
        noise.rowVisitsPerSecond = 2e6;
        noise.accessesPerVisit = 2;
        noise.randomJumpProb = 1.0;
        noise.zipfAlpha = 0.0;
        noise.seed = 3;
        sys.addWorkload(noise);

        sys.run(opts.warmup + 64 * kMillisecond);
        const PendingRefreshQueue &queue = sys.smartPolicy()->pendingQueue();
        EXPECT_EQ(queue.maxDepth(), 2u);
        EXPECT_EQ(queue.overflows(), 0u);
        EXPECT_LT(sys.controller().maxRefreshDispatchDelay(), kMicrosecond);
        EXPECT_EQ(sys.dram().retention().violations() +
                      sys.dram().retention().finalCheck(
                          sys.eventQueue().now()),
                  0u);
    }

    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = PolicyKind::Burst;
    System burst(cfg);
    burst.run(cfg.dram.timing.retention + cfg.dram.timing.retention / 4);
    EXPECT_EQ(burst.controller().maxRefreshBacklog(), 131064u);
    EXPECT_EQ(cfg.dram.org.totalRows(), 131072u);
}

// Page policy: closing idle pages after 200 ns maximises refresh's share
// of energy and so the total saving; the refresh reduction itself is a
// property of the access pattern and does not move.
TEST(Experiments, PagePolicy)
{
    struct Case
    {
        Tick idlePrechargeAfter;
        const char *share, *totalSaving;
    };
    const BenchmarkProfile &mummer = findProfile("mummer");
    const ExperimentOptions opts;
    for (const Case &k : {Case{0, "13.1%", "10.0%"},
                          Case{200 * kNanosecond, "17.4%", "15.1%"},
                          Case{kMicrosecond, "14.2%", "9.7%"}}) {
        SCOPED_TRACE(std::to_string(k.idlePrechargeAfter) + " ps timeout");
        const auto run = [&](PolicyKind policy) {
            SystemConfig cfg;
            cfg.dram = ddr2_2GB();
            cfg.policy = policy;
            cfg.smart.autoReconfigure = false;
            cfg.ctrl.idlePrechargeAfter = k.idlePrechargeAfter;
            System sys(cfg);
            for (const auto &wp : conventionalParams(mummer, cfg.dram, 1.0,
                                                     opts.seed))
                sys.addWorkload(wp);
            return measureWindow(sys, opts.warmup, opts.measure);
        };
        ComparisonResult c;
        c.baseline = run(PolicyKind::Cbr);
        c.smart = run(PolicyKind::Smart);
        EXPECT_EQ(fmtPercent(c.baseline.refreshEnergyJ /
                             c.baseline.totalEnergyJ),
                  k.share);
        EXPECT_EQ(fmtPercent(c.refreshReduction()), "68.0%");
        EXPECT_EQ(fmtPercent(c.totalEnergySaving()), k.totalSaving);
        EXPECT_EQ(c.baseline.violations + c.smart.violations, 0u);
    }
}

// §4.5: the measured 64 MB stacked-die power puts the die at 91.9 C,
// above the Micron 85 C threshold, so the rule mandates 32 ms; Smart
// Refresh at 32 ms then cools the die by 0.83 C.
TEST(Experiments, ThermalLoop)
{
    const BenchmarkProfile &gccTwolf = findProfile("gcc_twolf");
    const ExperimentOptions opts;
    const ThermalModel model;
    const auto powerW = [](const RunResult &r) {
        return r.totalEnergyJ / r.simSeconds;
    };

    const RunResult at64 =
        runConventional(gccTwolf, dram3d_64MB(), PolicyKind::Cbr, opts);
    EXPECT_EQ(fmtDouble(model.temperatureC(powerW(at64)), 1), "91.9");
    EXPECT_EQ(model.requiredRetention(powerW(at64), 64 * kMillisecond),
              32 * kMillisecond);

    const RunResult cbr =
        runConventional(gccTwolf, dram3d_64MB_32ms(), PolicyKind::Cbr, opts);
    const RunResult smart =
        runConventional(gccTwolf, dram3d_64MB_32ms(), PolicyKind::Smart,
                        opts);
    EXPECT_EQ(fmtDouble(model.temperatureC(powerW(cbr)) -
                            model.temperatureC(powerW(smart)),
                        2),
              "0.83");
    EXPECT_EQ(at64.violations + cbr.violations + smart.violations, 0u);
}

// §8: Smart Refresh composes with RAPID-style retention classes. On
// mummer (2 GB) RAPID alone issues 49.0 % fewer refreshes than CBR,
// Smart Refresh alone 68.0 % and both together 89.3 %, with no row
// missing its per-class deadline.
TEST(Experiments, RapidComposition)
{
    const BenchmarkProfile &mummer = findProfile("mummer");
    const DramConfig dram = ddr2_2GB();
    ExperimentOptions opts;
    opts.autoReconfigure = false;
    // Classes stretch deadlines to 4 x 64 ms: warm the slowest class up.
    opts.warmup = 4 * dram.timing.retention;
    RetentionClassParams classParams;
    classParams.seed = opts.seed;
    const auto classes = std::make_shared<RetentionClassMap>(
        dram.org.totalRows(), classParams);

    const auto run = [&](PolicyKind policy, bool useClasses) {
        ExperimentOptions o = opts;
        if (useClasses)
            o.retentionClasses = classes;
        return runConventional(mummer, dram, policy, o);
    };
    const RunResult cbr = run(PolicyKind::Cbr, false);
    const RunResult rapid = run(PolicyKind::RetentionAware, true);
    const RunResult smart = run(PolicyKind::Smart, false);
    const RunResult composed = run(PolicyKind::Smart, true);

    EXPECT_EQ(fmtMillions(cbr.refreshesPerSec), "2.048");
    EXPECT_EQ(fewer(rapid, cbr), "49.0%");
    EXPECT_EQ(fewer(smart, cbr), "68.0%");
    EXPECT_EQ(fewer(composed, cbr), "89.3%");
    for (const RunResult *r : {&cbr, &rapid, &smart, &composed})
        EXPECT_EQ(r->violations, 0u);
}
