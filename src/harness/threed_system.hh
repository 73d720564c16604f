/**
 * @file
 * 3D die-stacked system assembly (paper Section 7.2): workloads -> 3D
 * DRAM cache (its own controller + refresh domain on the stacked die)
 * -> main-memory DRAM behind it.
 *
 * The refresh policy under test runs on the 3D module; main memory runs
 * plain CBR, matching the paper's observation that with a 64 MB L3 cache
 * the conventional DRAM sees negligible traffic and Smart Refresh
 * auto-disables there.
 */

#pragma once

#include <memory>
#include <vector>

#include "cache/dram_cache.hh"
#include "harness/system.hh"

namespace smartref {

/** Configuration of a 3D die-stacked system. */
struct ThreeDSystemConfig
{
    DramConfig threeD = dram3d_64MB();
    DramConfig mainMem = ddr2_2GB();
    ControllerConfig ctrl{};
    PolicyKind threeDPolicy = PolicyKind::Cbr;
    SmartRefreshConfig smart{};
    BusEnergyParams bus{};
    DramCacheConfig cache{};
    /** Optional RAPID-style classes for the stacked module's rows. */
    std::shared_ptr<const RetentionClassMap> retentionClasses;
    /**
     * Optional spatial heatmap (not owned; must outlive the system),
     * attached to the stacked die's controller and — for Smart Refresh
     * — its counter array. Main memory always runs CBR and is not
     * observed.
     */
    RefreshHeatmap *heatmap = nullptr;
    /**
     * Optional observability attachments (not owned; must outlive the
     * system), wired to the stacked die like the heatmap: the audit
     * trail to its controller and policy, the ledger to its DRAM
     * module. Main memory always runs CBR and is not observed.
     */
    RefreshAudit *audit = nullptr;
    EnergyLedger *ledger = nullptr;
};

/** One 3D die-stacked simulated system. */
class ThreeDSystem : public StatGroup
{
  public:
    explicit ThreeDSystem(const ThreeDSystemConfig &cfg);

    EventQueue &eventQueue() { return eq_; }
    DramModule &threeDDram() { return *threeDDram_; }
    DramModule &mainDram() { return *mainDram_; }
    MemoryController &threeDController() { return *threeDCtrl_; }
    MemoryController &mainController() { return *mainCtrl_; }
    DramCache &cache() { return *cache_; }
    RefreshPolicy &threeDPolicy() { return *policy_; }
    SmartRefreshPolicy *smartPolicy() { return smartPolicy_; }

    /** Attach a workload issuing post-L2 demand into the DRAM cache. */
    WorkloadModel &addWorkload(const WorkloadParams &params);

    /** Advance simulated time (workloads started on first call). */
    void run(Tick duration);

    const ThreeDSystemConfig &config() const { return cfg_; }

  private:
    ThreeDSystemConfig cfg_;
    EventQueue eq_;
    /**
     * Stat group of main memory's module, controller and policy, so
     * their paths (system3d.mainMem.ctrl.*) never collide with the
     * stacked die's (system3d.ctrl.*). Declared before them: it must
     * outlive its children.
     */
    StatGroup mainMem_{"mainMem", this};
    std::unique_ptr<DramModule> threeDDram_;
    std::unique_ptr<DramModule> mainDram_;
    std::unique_ptr<MemoryController> threeDCtrl_;
    std::unique_ptr<MemoryController> mainCtrl_;
    std::unique_ptr<RefreshPolicy> policy_;
    std::unique_ptr<RefreshPolicy> mainPolicy_;
    std::unique_ptr<DramCache> cache_;
    SmartRefreshPolicy *smartPolicy_ = nullptr;
    std::vector<std::unique_ptr<WorkloadModel>> workloads_;
    bool started_ = false;
    /** eq_'s per-kind counts as last added to the sim.events.* metrics. */
    EventCounts publishedEvents_{};
};

} // namespace smartref
