/**
 * @file
 * Transitional names for perfbench's 3D assembly, which keeps them until
 * its next change: a ThreeDSystem is a System built from a stacked-cache
 * config (DramConfig::stackedCache), and runThreeD() is
 * runConventional(). New code uses System and runConventional directly.
 */

#pragma once

#include "harness/experiment.hh"

namespace smartref {

struct ThreeDSystemConfig
{
    DramConfig threeD = dram3d_64MB();
    PolicyKind threeDPolicy = PolicyKind::Cbr;
    SmartRefreshConfig smart{};
    std::shared_ptr<const RetentionClassMap> retentionClasses;
    EnergyLedger *ledger = nullptr;
};

class ThreeDSystem : public System
{
  public:
    explicit ThreeDSystem(const ThreeDSystemConfig &cfg)
        : System(systemConfig(cfg))
    {
    }

    DramModule &threeDDram() { return dram(); }
    MemoryController &threeDController() { return controller(); }
    DramModule &mainDram() { return *System::mainDram(); }
    DramCache &cache() { return *System::cache(); }

  private:
    static SystemConfig
    systemConfig(const ThreeDSystemConfig &cfg)
    {
        SystemConfig sys;
        sys.dram = cfg.threeD;
        sys.dram.stackedCache = true;
        sys.policy = cfg.threeDPolicy;
        sys.smart = cfg.smart;
        sys.retentionClasses = cfg.retentionClasses;
        sys.ledger = cfg.ledger;
        return sys;
    }
};

inline RunResult
runThreeD(const BenchmarkProfile &profile, const DramConfig &threeD,
          PolicyKind policy, const ExperimentOptions &opts)
{
    return runConventional(profile, threeD, policy, opts);
}

} // namespace smartref
