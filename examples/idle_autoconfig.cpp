/**
 * @file
 * Self-configuration demo (paper Section 4.6): watch Smart Refresh fall
 * back to CBR when the DRAM goes idle and re-enable itself when a
 * working set returns. Prints a per-interval mode/refresh log.
 */

#include <iomanip>
#include <iostream>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/system.hh"
#include "trace/benchmark_profiles.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {
    "idle_autoconfig", {}, {{"intervals", "N", "64 ms intervals", "18"}}};

const char *
modeName(SmartRefreshPolicy::Mode mode)
{
    switch (mode) {
      case SmartRefreshPolicy::Mode::Smart: return "SMART";
      case SmartRefreshPolicy::Mode::Cbr: return "CBR";
      case SmartRefreshPolicy::Mode::EnableOverlap: return "ENABLE-OVL";
      case SmartRefreshPolicy::Mode::DisableOverlap: return "DISABLE-OVL";
    }
    return "?";
}

int
run(const CliArgs &args)
{
    const std::uint64_t intervals = args.getU64("intervals");

    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = PolicyKind::Smart;
    System sys(cfg);
    auto *smart = sys.smartPolicy();
    const Tick retention = cfg.dram.timing.retention;

    // Phase 1 (intervals 0-4): a busy working set.
    // Phase 2 (intervals 5-10): idle OS (activity < 1 % threshold).
    // Phase 3 (intervals 11+):  the working set returns (> 2 %).
    WorkloadParams busy1 =
        conventionalParams(findProfile("mummer"), cfg.dram)[0];
    busy1.stopAfter = 5 * retention;
    WorkloadParams quiet = idleParams(cfg.dram);
    WorkloadParams busy2 = busy1;
    busy2.name = "mummer.phase3";
    busy2.startAfter = 11 * retention;
    busy2.stopAfter = kTickMax;
    busy2.seed = 1234;

    sys.addWorkload(busy1);
    sys.addWorkload(quiet);
    sys.addWorkload(busy2);

    std::cout
        << "Section 4.6 self-configuration demo (2 GB module, 64 ms "
           "intervals)\n"
        << "phase 1: busy | phase 2 (t=5..10): idle | phase 3 (t>=11): "
           "busy again\n\n"
        << std::left << std::setw(10) << "interval" << std::setw(14)
        << "mode" << std::setw(18) << "refreshes/s (M)"
        << "row activations\n"
        << std::string(60, '-') << "\n";

    std::uint64_t lastRefreshes = 0;
    std::uint64_t lastActs = 0;
    for (std::uint64_t i = 0; i < intervals; ++i) {
        sys.run(retention);
        const std::uint64_t refreshes =
            sys.dram().totalRefreshes() - lastRefreshes;
        lastRefreshes = sys.dram().totalRefreshes();
        const std::uint64_t acts = sys.dram().activates() - lastActs;
        lastActs = sys.dram().activates();
        const double perSec = static_cast<double>(refreshes) /
                              (static_cast<double>(retention) /
                               static_cast<double>(kSecond));
        std::cout << std::left << std::setw(10) << i << std::setw(14)
                  << modeName(smart->mode()) << std::setw(18)
                  << fmtMillions(perSec) << acts << "\n";
    }

    std::cout << "\nswitches to CBR: " << smart->monitor().switchesToCbr()
              << ", switches back to Smart: "
              << smart->monitor().switchesToSmart() << "\n"
              << "retention violations: "
              << sys.dram().retention().violations() << " (must be 0)\n";
    return sys.dram().retention().violations() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
