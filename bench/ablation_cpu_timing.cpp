/**
 * @file
 * Ablation: Figure 18's claim measured in closed loop. The figure
 * experiments drive the DRAM open-loop and report latency deltas; this
 * bench puts in-order cores in front (the paper's execution-driven
 * methodology) so refresh interference costs *retired instructions*.
 * Expectation per the paper: Smart Refresh gives a slight (<1 %)
 * speedup and never a slowdown.
 *
 * Usage: ablation_cpu_timing [--seconds-ms N]
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/cpu_system.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

struct TimingPoint
{
    const char *label;
    double accessesPerKiloInstr;
};

std::uint64_t
runOnce(PolicyKind policy, double apki, Tick duration,
        std::uint64_t *violations)
{
    CpuSystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    cfg.numCores = 2;
    CpuSystem sys(cfg);

    CoreParams core;
    core.frequencyGHz = 2.0;
    core.baseIpc = 1.0;
    core.accessesPerKiloInstr = apki;

    for (std::uint32_t c = 0; c < 2; ++c) {
        WorkloadParams wp;
        wp.footprintRows = 40000;
        wp.accessesPerVisit = 4;
        wp.randomJumpProb = 0.1;
        wp.readFraction = 0.8;
        wp.rowStride = 2;
        wp.rowOffset = c;
        wp.seed = 31 + c;
        core.name = "core" + std::to_string(c);
        sys.addCore(core, wp);
    }

    sys.run(duration);
    *violations =
        sys.dram().retention().violations() +
        sys.dram().retention().finalCheck(sys.eventQueue().now());
    return sys.totalInstructions();
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const Tick duration = args.getU64("seconds-ms", 96) * kMillisecond;

    std::cout << "=== Ablation: closed-loop execution timing (Fig. 18 "
                 "methodology) ===\n"
              << "2-core CMP, 2 GB DDR2; speedup = instructions retired "
                 "under Smart / CBR - 1\n\n";

    const TimingPoint points[] = {
        {"light memory pressure (50 APKI)", 50.0},
        {"moderate (150 APKI)", 150.0},
        {"heavy (400 APKI)", 400.0},
    };

    ReportTable table({"workload intensity", "CBR instrs", "Smart instrs",
                       "speedup", "violations"});
    for (const TimingPoint &p : points) {
        std::uint64_t vCbr = 0, vSmart = 0;
        const std::uint64_t cbr =
            runOnce(PolicyKind::Cbr, p.accessesPerKiloInstr, duration,
                    &vCbr);
        const std::uint64_t smart =
            runOnce(PolicyKind::Smart, p.accessesPerKiloInstr, duration,
                    &vSmart);
        const double speedup = static_cast<double>(smart) /
                                   static_cast<double>(cbr) -
                               1.0;
        table.addRow({p.label, std::to_string(cbr),
                      std::to_string(smart), fmtPercent(speedup, 3),
                      std::to_string(vCbr + vSmart)});
        if (vCbr + vSmart) {
            std::cerr << "retention violation!\n";
            return 1;
        }
        if (speedup < -0.002) {
            std::cerr << "Smart Refresh slowed execution down — "
                         "violates the paper's Fig. 18 claim\n";
            return 1;
        }
    }
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout << "\nEliminated refreshes stop stealing bank time from "
                 "demand loads; the\neffect is small because refreshes "
                 "are short and banks are parallel —\nexactly the "
                 "paper's observation.\n";
    return 0;
}
