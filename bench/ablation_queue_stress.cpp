/**
 * @file
 * Ablation: pending-refresh-queue sizing (paper Section 5). The paper
 * argues a queue of 8 entries (= segments) can never overflow because
 * at most N refreshes are generated per counter-access step and a step
 * interval covers N row-refresh times. This bench stresses the queue
 * with adversarial traffic across segment counts and also contrasts the
 * burst-refresh policy's backlog explosion.
 *
 * Usage: ablation_queue_stress [--measure-ms N]
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "sim/random.hh"

using namespace smartref;

namespace {

struct StressResult
{
    std::size_t pendingMaxDepth;
    std::uint64_t pendingOverflows;
    std::size_t controllerBacklog;
    Tick maxDispatchDelay;
    std::uint64_t violations;
};

/**
 * Adversarial pattern: synchronise all counters by sweeping every row,
 * then go quiet so their expiries cluster, repeatedly, while heavy
 * random traffic competes for the banks.
 */
StressResult
stress(std::uint32_t segments, const ExperimentOptions &opts)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = PolicyKind::Smart;
    cfg.smart.counterBits = opts.counterBits;
    cfg.smart.segments = segments;
    cfg.smart.queueCapacity = segments;
    cfg.smart.autoReconfigure = false;
    System sys(cfg);

    // Sweep phase each interval: touch 60 % of all rows in a burst at
    // the start of the interval, aligning their counters.
    WorkloadParams sweep;
    sweep.name = "sweep";
    sweep.footprintRows = cfg.dram.org.totalRows() * 6 / 10;
    sweep.rowVisitsPerSecond =
        static_cast<double>(sweep.footprintRows) / 0.020; // 20 ms sweep
    sweep.accessesPerVisit = 1;
    sweep.randomJumpProb = 0.0;
    sweep.interArrivalJitter = 0.0; // clockwork: maximal alignment
    sweep.seed = 2;
    sys.addWorkload(sweep);

    // Competing random traffic keeps banks busy.
    WorkloadParams noise;
    noise.name = "noise";
    noise.footprintRows = cfg.dram.org.totalRows();
    noise.rowVisitsPerSecond = 2e6;
    noise.accessesPerVisit = 2;
    noise.randomJumpProb = 1.0;
    noise.zipfAlpha = 0.0;
    noise.seed = 3;
    sys.addWorkload(noise);

    sys.run(opts.warmup + opts.measure);

    StressResult r;
    r.pendingMaxDepth = sys.smartPolicy()->pendingQueue().maxDepth();
    r.pendingOverflows = sys.smartPolicy()->pendingQueue().overflows();
    r.controllerBacklog = sys.controller().maxRefreshBacklog();
    r.maxDispatchDelay = sys.controller().maxRefreshDispatchDelay();
    r.violations =
        sys.dram().retention().violations() +
        sys.dram().retention().finalCheck(sys.eventQueue().now());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    ExperimentOptions opts = args.experimentOptions();
    // The stress pattern is heavy; a shorter default window suffices.
    if (!args.has("measure-ms"))
        opts.measure = 64 * kMillisecond;

    std::cout << "=== Ablation: pending refresh queue under adversarial "
                 "traffic (2 GB) ===\n"
              << "paper Section 5: a queue of N = segments entries never "
                 "overflows\n\n";

    ReportTable table({"segments (= capacity)", "max queue depth",
                       "overflows", "controller backlog max",
                       "max dispatch delay (us)", "violations"});
    for (std::uint32_t segments : {4u, 8u, 16u}) {
        const StressResult r = stress(segments, opts);
        table.addRow({std::to_string(segments),
                      std::to_string(r.pendingMaxDepth),
                      std::to_string(r.pendingOverflows),
                      std::to_string(r.controllerBacklog),
                      fmtDouble(static_cast<double>(r.maxDispatchDelay) /
                                    1e6,
                                2),
                      std::to_string(r.violations)});
        if (r.violations) {
            std::cerr << "retention violation at " << segments
                      << " segments\n";
            return 1;
        }
    }
    table.print(std::cout);

    // Contrast: the burst policy's backlog explodes to the row count.
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = PolicyKind::Burst;
    System burst(cfg);
    burst.run(cfg.dram.timing.retention + cfg.dram.timing.retention / 4);
    std::cout << "\nburst-refresh contrast: backlog peaked at "
              << burst.controller().maxRefreshBacklog() << " of "
              << cfg.dram.org.totalRows()
              << " rows — the behaviour Section 3 calls undesirable.\n";
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());
    return 0;
}
