/**
 * @file
 * Ablation: the controller's adaptive page policy. Closing idle pages
 * (and letting ranks power down) is what makes refresh a significant
 * share of DRAM energy — the low-power baseline the paper's ITSY
 * motivation describes. With pages held open forever, active-standby
 * power swamps everything and Smart Refresh's *relative* total-energy
 * savings shrink, even though the refresh-operation reduction is
 * unchanged.
 *
 * Usage: ablation_page_policy [--benchmark mummer] [--measure-ms N]
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

ComparisonResult
runWithTimeout(const BenchmarkProfile &profile, Tick idleTimeout,
               const ExperimentOptions &opts)
{
    auto once = [&](PolicyKind policy) {
        SystemConfig cfg;
        cfg.dram = ddr2_2GB();
        cfg.policy = policy;
        cfg.smart.counterBits = opts.counterBits;
        cfg.smart.autoReconfigure = false;
        cfg.ctrl.idlePrechargeAfter = idleTimeout;
        System sys(cfg);
        for (const auto &wp :
             conventionalParams(profile, cfg.dram, 1.0, opts.seed))
            sys.addWorkload(wp);
        sys.run(opts.warmup);
        const EnergySnapshot warm = captureSnapshot(sys);
        sys.run(opts.measure);
        const EnergySnapshot end = captureSnapshot(sys);
        const EnergySnapshot d = end - warm;

        RunResult r;
        r.simSeconds = static_cast<double>(d.tick) /
                       static_cast<double>(kSecond);
        r.refreshesPerSec =
            static_cast<double>(d.refreshes) / r.simSeconds;
        r.refreshEnergyJ = d.refreshEnergy;
        r.overheadJ = d.overheadEnergy;
        r.totalEnergyJ = d.totalEnergy();
        r.violations =
            d.violations +
            sys.dram().retention().finalCheck(sys.eventQueue().now());
        return r;
    };
    ComparisonResult c;
    c.benchmark = profile.name;
    c.baseline = once(PolicyKind::Cbr);
    c.smart = once(PolicyKind::Smart);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const ExperimentOptions opts = args.experimentOptions();
    const BenchmarkProfile &profile =
        findProfile(args.getString("benchmark", "mummer"));

    std::cout << "=== Ablation: idle-page precharge timeout (benchmark "
              << profile.name << ", 2 GB) ===\n\n";

    ReportTable table({"idle precharge", "baseline total (mJ)",
                       "refresh share", "refresh reduction",
                       "total energy saving", "violations"});
    struct Option
    {
        const char *label;
        Tick timeout;
    };
    for (const Option &o :
         {Option{"disabled (pages stay open)", 0},
          Option{"200 ns (default)", 200 * kNanosecond},
          Option{"1 us (lazy)", kMicrosecond}}) {
        const ComparisonResult c = runWithTimeout(profile, o.timeout, opts);
        const double share =
            c.baseline.refreshEnergyJ / c.baseline.totalEnergyJ;
        table.addRow({o.label,
                      fmtDouble(c.baseline.totalEnergyJ * 1e3),
                      fmtPercent(share), fmtPercent(c.refreshReduction()),
                      fmtPercent(c.totalEnergySaving()),
                      std::to_string(c.baseline.violations +
                                     c.smart.violations)});
        if (c.baseline.violations || c.smart.violations) {
            std::cerr << "retention violation!\n";
            return 1;
        }
    }
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout << "\nRefresh-operation reduction is a property of the "
                 "access pattern alone;\nthe page policy only changes "
                 "how much of the *total* energy refresh is.\n";
    return 0;
}
