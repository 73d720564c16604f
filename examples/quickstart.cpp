/**
 * @file
 * Quickstart: build a 2 GB DDR2 system, run the same workload under the
 * CBR baseline and under Smart Refresh, and print the headline metrics.
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/system.hh"
#include "trace/benchmark_profiles.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {
    "quickstart", {}, {{"warmup-ms"}, {"measure-ms"}, {"bits"}, {"seed"}}};

struct QuickResult
{
    double refreshesPerSec;
    double refreshEnergy;
    double totalEnergy;
    double avgLatencyNs;
    std::uint64_t violations;
};

QuickResult
runOnce(PolicyKind policy, const ExperimentOptions &opts)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    cfg.smart.counterBits = opts.counterBits;

    System sys(cfg);

    // A mid-range workload: ~60 % of the module's rows kept alive.
    for (const auto &wp :
         conventionalParams(findProfile("mummer"), cfg.dram, 1.0,
                            opts.seed)) {
        sys.addWorkload(wp);
    }

    sys.run(opts.warmup);
    EnergySnapshot warm = captureSnapshot(sys);
    sys.run(opts.measure);
    EnergySnapshot end = captureSnapshot(sys);
    const std::uint64_t stale =
        sys.dram().retention().finalCheck(sys.eventQueue().now());

    const EnergySnapshot d = end - warm;
    const double seconds = static_cast<double>(d.tick) /
                           static_cast<double>(kSecond);

    QuickResult r;
    r.refreshesPerSec = static_cast<double>(d.refreshes) / seconds;
    r.refreshEnergy = d.refreshEnergy + d.overheadEnergy;
    r.totalEnergy = d.totalEnergy();
    r.avgLatencyNs = d.demandAccesses
                         ? d.latencySumTicks /
                               static_cast<double>(d.demandAccesses) /
                               static_cast<double>(kNanosecond)
                         : 0.0;
    r.violations = d.violations + stale;
    return r;
}

int
run(const CliArgs &args)
{
    const ExperimentOptions opts = args.experimentOptions();

    std::cout << "Smart Refresh quickstart: 2 GB DDR2-667, benchmark "
                 "profile 'mummer'\n"
              << "warmup " << opts.warmup / kMillisecond
              << " ms, measure " << opts.measure / kMillisecond
              << " ms, " << opts.counterBits << "-bit counters\n";

    const QuickResult base = runOnce(PolicyKind::Cbr, opts);
    const QuickResult smart = runOnce(PolicyKind::Smart, opts);

    ReportTable table({"metric", "CBR baseline", "Smart Refresh",
                       "change"});
    table.addRow({"refreshes/s", fmtMillions(base.refreshesPerSec) + " M",
                  fmtMillions(smart.refreshesPerSec) + " M",
                  fmtPercent(1.0 - smart.refreshesPerSec /
                                       base.refreshesPerSec) +
                      " fewer"});
    table.addRow({"refresh energy (mJ)",
                  fmtDouble(base.refreshEnergy * 1e3),
                  fmtDouble(smart.refreshEnergy * 1e3),
                  fmtPercent(1.0 - smart.refreshEnergy /
                                       base.refreshEnergy) +
                      " saved"});
    table.addRow({"total DRAM energy (mJ)",
                  fmtDouble(base.totalEnergy * 1e3),
                  fmtDouble(smart.totalEnergy * 1e3),
                  fmtPercent(1.0 - smart.totalEnergy / base.totalEnergy) +
                      " saved"});
    table.addRow({"avg demand latency (ns)",
                  fmtDouble(base.avgLatencyNs, 1),
                  fmtDouble(smart.avgLatencyNs, 1), ""});
    table.addRow({"retention violations",
                  std::to_string(base.violations),
                  std::to_string(smart.violations), "(must be 0)"});
    std::cout << '\n';
    table.print(std::cout);

    if (base.violations || smart.violations) {
        std::cerr << "ERROR: retention violations detected\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
