/**
 * @file
 * Ablation: the Section 4.5 thermal feedback loop, closed. Measure the
 * 64 MB stacked die's power under load, feed it to the thermal model,
 * confirm it exceeds the Micron 85 C threshold (the paper's 90.27 C
 * anchor), and run the retention interval the rule mandates. Smart
 * Refresh's energy saving also *reduces* the die temperature slightly —
 * a virtuous feedback the paper hints at but does not quantify.
 *
 * Usage: ablation_thermal [--benchmark gcc_twolf] [--measure-ms N]
 */

#include <iostream>

#include "dram/thermal_model.hh"
#include "harness/cli.hh"
#include "harness/report.hh"

using namespace smartref;

namespace {

struct ThermalRun
{
    double powerW;
    double temperatureC;
    Tick mandatedRetention;
    double refreshesPerSec;
};

ThermalRun
measure(const BenchmarkProfile &profile, const DramConfig &threeD,
        PolicyKind policy, const ExperimentOptions &opts)
{
    const RunResult r = runThreeD(profile, threeD, policy, opts);
    ThermalRun t;
    t.powerW = r.totalEnergyJ / r.simSeconds;
    ThermalModel model;
    t.temperatureC = model.temperatureC(t.powerW);
    t.mandatedRetention =
        model.requiredRetention(t.powerW, 64 * kMillisecond);
    t.refreshesPerSec = r.refreshesPerSec;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const ExperimentOptions opts = args.experimentOptions();
    const BenchmarkProfile &profile =
        findProfile(args.getString("benchmark", "gcc_twolf"));

    std::cout << "=== Ablation: thermal feedback on the 64 MB stacked "
                 "die (benchmark "
              << profile.name << ") ===\n"
              << "paper anchors: 90.27 C operating temperature [14]; "
                 "refresh doubles above 85 C [23]\n\n";

    // Step 1: at the nominal 64 ms rate, is the die too hot?
    ReportTable table({"step", "policy", "die power (W)",
                       "temperature (C)", "mandated retention",
                       "refreshes/s (M)"});
    const ThermalRun at64 =
        measure(profile, dram3d_64MB(), PolicyKind::Cbr, opts);
    table.addRow({"64 ms assumed", "cbr", fmtDouble(at64.powerW, 3),
                  fmtDouble(at64.temperatureC, 1),
                  std::to_string(at64.mandatedRetention / kMillisecond) +
                      " ms",
                  fmtMillions(at64.refreshesPerSec)});

    // Step 2: run at the mandated rate under both policies.
    const DramConfig mandated = at64.mandatedRetention == 32 * kMillisecond
                                    ? dram3d_64MB_32ms()
                                    : dram3d_64MB();
    const ThermalRun cbrHot =
        measure(profile, mandated, PolicyKind::Cbr, opts);
    table.addRow({"mandated rate", "cbr", fmtDouble(cbrHot.powerW, 3),
                  fmtDouble(cbrHot.temperatureC, 1),
                  std::to_string(cbrHot.mandatedRetention / kMillisecond) +
                      " ms",
                  fmtMillions(cbrHot.refreshesPerSec)});
    const ThermalRun smartHot =
        measure(profile, mandated, PolicyKind::Smart, opts);
    table.addRow({"mandated rate", "smart",
                  fmtDouble(smartHot.powerW, 3),
                  fmtDouble(smartHot.temperatureC, 1),
                  std::to_string(smartHot.mandatedRetention /
                                 kMillisecond) +
                      " ms",
                  fmtMillions(smartHot.refreshesPerSec)});
    table.print(std::cout);
    if (!args.csvPath().empty())
        table.writeCsv(args.csvPath());

    std::cout << "\nSmart Refresh lowers the die power by "
              << fmtDouble((cbrHot.powerW - smartHot.powerW) * 1e3, 1)
              << " mW, cooling it by "
              << fmtDouble(cbrHot.temperatureC - smartHot.temperatureC, 2)
              << " C — the energy saving feeds back into the thermal "
                 "budget that\nforced the faster refresh in the first "
                 "place.\n";
    return 0;
}
