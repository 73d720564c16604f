/**
 * @file
 * Ablation: the Section 4.6 self-configuration circuit. Under a
 * near-idle workload Smart Refresh skips (almost) nothing, so the
 * counter walk and RAS-only bus energy are pure overhead; auto-disable
 * falls back to CBR and pays none of it. The paper notes that even an
 * idle OS still showed ~10 % refresh-energy savings — reproduced here
 * as a second-order effect: the segmented walk clusters refreshes per
 * rank, improving power-down residency between them.
 *
 * Usage: ablation_idle_disable [--measure-ms N]
 */

#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

struct IdleResult
{
    double refreshesPerSec;
    double totalEnergy;
    double overhead;
    std::uint64_t violations;
    std::string finalMode;
};

IdleResult
runIdle(PolicyKind policy, bool autoReconfigure, bool lightTraffic,
        const ExperimentOptions &opts)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    cfg.smart.counterBits = opts.counterBits;
    cfg.smart.autoReconfigure = autoReconfigure;
    System sys(cfg);
    sys.addWorkload(lightTraffic ? lightParams(cfg.dram)
                                 : idleParams(cfg.dram));

    sys.run(opts.warmup + 2 * cfg.dram.timing.retention);
    const EnergySnapshot warm = captureSnapshot(sys);
    sys.run(opts.measure);
    const EnergySnapshot end = captureSnapshot(sys);
    const EnergySnapshot d = end - warm;
    const double seconds =
        static_cast<double>(d.tick) / static_cast<double>(kSecond);

    IdleResult r;
    r.refreshesPerSec = static_cast<double>(d.refreshes) / seconds;
    r.totalEnergy = d.totalEnergy();
    r.overhead = d.overheadEnergy;
    r.violations =
        d.violations +
        sys.dram().retention().finalCheck(sys.eventQueue().now());
    if (auto *smart = sys.smartPolicy()) {
        switch (smart->mode()) {
          case SmartRefreshPolicy::Mode::Smart: r.finalMode = "smart";
            break;
          case SmartRefreshPolicy::Mode::Cbr: r.finalMode = "cbr";
            break;
          default: r.finalMode = "overlap"; break;
        }
    } else {
        r.finalMode = toString(policy);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const ExperimentOptions opts = args.experimentOptions();

    std::cout << "=== Ablation: Section 4.6 auto-disable on an idle "
                 "system (2 GB) ===\n\n";

    struct Config
    {
        const char *label;
        PolicyKind policy;
        bool autoCfg;
        bool light;
    };
    const Config configs[] = {
        {"CBR baseline (idle)", PolicyKind::Cbr, false, false},
        {"Smart, auto-disable ON (idle)", PolicyKind::Smart, true, false},
        {"Smart, auto-disable OFF (idle)", PolicyKind::Smart, false,
         false},
        {"CBR baseline (light)", PolicyKind::Cbr, false, true},
        {"Smart, auto-disable ON (light)", PolicyKind::Smart, true, true},
    };

    ReportTable table({"configuration", "final mode", "refreshes/s (M)",
                       "total energy (mJ)", "overhead (mJ)",
                       "violations"});
    double cbrIdleEnergy = 0.0;
    for (const Config &c : configs) {
        const IdleResult r = runIdle(c.policy, c.autoCfg, c.light, opts);
        if (std::string(c.label) == "CBR baseline (idle)")
            cbrIdleEnergy = r.totalEnergy;
        table.addRow({c.label, r.finalMode,
                      fmtMillions(r.refreshesPerSec),
                      fmtDouble(r.totalEnergy * 1e3),
                      fmtDouble(r.overhead * 1e3),
                      std::to_string(r.violations)});
        if (r.violations) {
            std::cerr << "retention violation in '" << c.label << "'\n";
            return 1;
        }
    }
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout
        << "\nWith auto-disable the idle system converges to CBR ("
        << fmtDouble(cbrIdleEnergy * 1e3)
        << " mJ) and pays zero\ncounter/bus overhead. With it forced "
           "off, the overhead column is pure\nloss — though the "
           "segmented walk's per-rank refresh clustering recovers\n"
           "some standby energy (the paper's ~10% idle-OS observation), "
           "the paper's\npoint stands: there is nothing to *skip* at "
           "idle, so the counters may as\nwell be off.\n";
    return 0;
}
