/**
 * @file
 * Ablation: counter width (paper Section 4.4). Wider counters track row
 * liveness at finer granularity — higher worst-case optimality and more
 * refreshes skipped — at the cost of a larger counter array. The paper
 * quotes 75 % optimality for 2 bits and 87.5 % for 3 bits and simulates
 * with 3; this bench sweeps 1-4 bits on one mid-range benchmark.
 *
 * Usage: ablation_counter_bits [--benchmark mummer] [--measure-ms N]
 */

#include <iostream>

#include "core/counter_array.hh"
#include "core/optimality.hh"
#include "harness/cli.hh"
#include "harness/report.hh"

using namespace smartref;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    ExperimentOptions opts = args.experimentOptions();
    const std::string benchName = args.getString("benchmark", "mummer");
    const DramConfig dram = ddr2_2GB();
    const BenchmarkProfile &profile = findProfile(benchName);

    std::cout << "=== Ablation: counter width (benchmark " << benchName
              << ", 2 GB module) ===\n"
              << "paper Section 4.4: optimality = 1 - 1/2^bits "
                 "(75% @ 2 bits, 87.5% @ 3 bits)\n\n";

    ReportTable table({"bits", "area (KB)", "analytic optimality",
                       "refresh reduction", "refresh energy saving",
                       "total energy saving"});

    const RunResult baseline =
        runConventional(profile, dram, PolicyKind::Cbr, opts);

    for (std::uint32_t bits = 1; bits <= 4; ++bits) {
        ExperimentOptions o = opts;
        o.counterBits = bits;
        const RunResult smart =
            runConventional(profile, dram, PolicyKind::Smart, o);
        ComparisonResult c;
        c.benchmark = benchName;
        c.baseline = baseline;
        c.smart = smart;
        if (smart.violations || baseline.violations) {
            std::cerr << "retention violation at " << bits << " bits!\n";
            return 1;
        }
        table.addRow({std::to_string(bits),
                      fmtDouble(counterAreaKB(dram.org.banks,
                                              dram.org.ranks,
                                              dram.org.rows, bits),
                                0),
                      fmtPercent(smartRefreshOptimality(bits)),
                      fmtPercent(c.refreshReduction()),
                      fmtPercent(c.refreshEnergySaving()),
                      fmtPercent(c.totalEnergySaving())});
    }
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout << "\nbaseline (CBR): "
              << fmtMillions(baseline.refreshesPerSec)
              << " M refreshes/s, "
              << fmtDouble(baseline.totalEnergyJ * 1e3)
              << " mJ total over the measurement window\n";
    return 0;
}
