/**
 * @file
 * 3D die-stacked DRAM cache demo (paper Section 7.2): a 64 MB stacked
 * module used as an L3 cache in front of a 2 GB main memory, with Smart
 * Refresh on the hot stacked die. Prints the cache behaviour, both
 * refresh domains, and the stacked module's energy breakdown.
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {"threed_cache_demo", {},
                       {{"benchmark", "NAME", "workload profile", "mummer"},
                        {"rate-32ms", "", "32 ms-retention stacked module"},
                        {"warmup-ms"}, {"measure-ms"}, {"bits"}}};

void
runOne(const std::string &benchName, const DramConfig &threeD,
       PolicyKind policy, const ExperimentOptions &opts, ReportTable &out)
{
    SystemConfig cfg;
    cfg.dram = threeD;
    cfg.policy = policy;
    cfg.smart.counterBits = opts.counterBits;
    System sys(cfg);
    for (const auto &wp : threeDParams(findProfile(benchName), threeD))
        sys.addWorkload(wp);

    sys.run(opts.warmup);
    const EnergySnapshot warm = captureSnapshot(sys);
    sys.run(opts.measure);
    const EnergySnapshot end = captureSnapshot(sys);
    const EnergySnapshot d = end - warm;
    const double seconds =
        static_cast<double>(d.tick) / static_cast<double>(kSecond);

    out.addRow({std::string(toString(policy)),
                fmtMillions(static_cast<double>(d.refreshes) / seconds),
                fmtPercent(sys.cache()->hitRate()),
                fmtDouble(d.refreshEnergy * 1e3),
                fmtDouble(d.backgroundEnergy * 1e3),
                fmtDouble((d.actEnergy + d.readEnergy + d.writeEnergy) *
                          1e3),
                fmtDouble(d.overheadEnergy * 1e3),
                fmtDouble(d.totalEnergy() * 1e3),
                std::to_string(d.violations)});
}

int
run(const CliArgs &args)
{
    const ExperimentOptions opts = args.experimentOptions();
    const std::string bench = args.getString("benchmark");
    const DramConfig threeD =
        args.has("rate-32ms") ? dram3d_64MB_32ms() : dram3d_64MB();

    std::cout << "3D die-stacked DRAM cache demo\n"
              << "stacked module: " << threeD.name << " ("
              << threeD.org.capacityBytes() / kMiB << " MiB, "
              << threeD.timing.retention / kMillisecond
              << " ms retention)\nbenchmark profile: " << bench << "\n\n";

    ReportTable table({"policy", "refr/s (M)", "cache hit rate",
                       "refresh (mJ)", "background (mJ)", "access (mJ)",
                       "overhead (mJ)", "total (mJ)", "violations"});
    runOne(bench, threeD, PolicyKind::Cbr, opts, table);
    runOne(bench, threeD, PolicyKind::Smart, opts, table);
    table.print(std::cout);

    std::cout << "\nThe stacked die cannot power down (it sits on the "
                 "processor's access\npath), so refresh is a large share "
                 "of its energy — exactly the regime\nthe paper's "
                 "Section 4.5 motivates.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
