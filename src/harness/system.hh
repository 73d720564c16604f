/**
 * @file
 * One memory channel: workloads -> memory controller -> DRAM module,
 * with a selectable refresh policy. For a 3D die-stacked config
 * (DramConfig::stackedCache, paper Section 7.2) the channel gains a
 * cache stage: workloads -> DramCache -> the stacked module, with a
 * CBR-refreshed main-memory module behind the cache. Owns the event
 * queue and the statistics tree of that channel. Runs go through
 * ShardedSystem (harness/sharded.hh), which builds one System per
 * channel; the type stays public for code that assembles or inspects a
 * channel directly.
 */

#pragma once

#include <memory>
#include <vector>

#include "cache/dram_cache.hh"
#include "core/smart_refresh.hh"
#include "ctrl/burst_refresh.hh"
#include "ctrl/cbr_refresh.hh"
#include "ctrl/memory_controller.hh"
#include "ctrl/per_bank_refresh.hh"
#include "ctrl/ras_only_refresh.hh"
#include "ctrl/retention_aware_refresh.hh"
#include "dram/dram_module.hh"
#include "sim/event_queue.hh"
#include "trace/workload_model.hh"

namespace smartref {

/** Selectable refresh policies. */
enum class PolicyKind {
    Cbr,
    Burst,
    RasOnly,
    PerBank,
    Smart,
    RetentionAware,
};

const char *toString(PolicyKind kind);

/** Inverse of toString(PolicyKind); fatal on an unknown name. */
PolicyKind policyFromString(const std::string &name);

/** Full configuration of one channel. */
struct SystemConfig
{
    /** The module under test; a stacked cache when dram.stackedCache. */
    DramConfig dram = ddr2_2GB();
    /**
     * Main memory behind a stacked cache, always refreshed by CBR and
     * never observed. Unused unless dram.stackedCache.
     */
    DramConfig mainMem = ddr2_2GB();
    DramCacheConfig cache{};
    /** Used by every controller of the channel. */
    ControllerConfig ctrl{};
    PolicyKind policy = PolicyKind::Cbr;
    SmartRefreshConfig smart{};
    BusEnergyParams bus{}; ///< used by the RasOnly baseline
    /**
     * Optional RAPID-style retention classes. Applied to the retention
     * tracker's per-row deadlines and consumed by the RetentionAware
     * policy and by Smart Refresh's multi-rate counters.
     */
    std::shared_ptr<const RetentionClassMap> retentionClasses;
    /**
     * Optional spatial heatmap (not owned; must outlive the system).
     * Attached to the controller (refresh issues, demand accesses) and,
     * for Smart Refresh, to the counter array (skip/expiry and
     * counter-value distributions). Pure observation: attaching one
     * never perturbs simulated behaviour.
     */
    RefreshHeatmap *heatmap = nullptr;
    /**
     * Optional refresh decision audit trail (not owned; must outlive
     * the system). Attached to the controller (issued / forced-deadline
     * outcomes) and to the policy (skip / defer outcomes). Pure
     * observation, like the heatmap.
     */
    RefreshAudit *audit = nullptr;
    /**
     * Optional energy attribution ledger (not owned; must outlive the
     * system). Attached to the DRAM module before any traffic so its
     * conservation invariant holds at finalize().
     */
    EnergyLedger *ledger = nullptr;
};

/**
 * Derive the address-bus width (row + bank lines) and module count for
 * the bus energy model from a DRAM configuration.
 */
BusEnergyParams deriveBusParams(const BusEnergyParams &base,
                                const DramOrganization &org);

/** One simulated memory channel. */
class System : public StatGroup
{
  public:
    explicit System(const SystemConfig &cfg);

    EventQueue &eventQueue() { return eq_; }
    /** The module under test (the stacked die behind a cache). */
    DramModule &dram() { return *dram_; }
    MemoryController &controller() { return *ctrl_; }
    RefreshPolicy &refreshPolicy() { return *policy_; }

    /** Non-null only when the system runs Smart Refresh. */
    SmartRefreshPolicy *smartPolicy() { return smartPolicy_; }

    /** @name The cache stage: all null unless dram.stackedCache. */
    ///@{
    DramCache *cache() { return cache_.get(); }
    DramModule *mainDram() { return mainDram_.get(); }
    MemoryController *mainController() { return mainCtrl_.get(); }
    ///@}

    /**
     * Attach a workload generating demand traffic into the channel's
     * entry: the cache when there is one, else the controller.
     */
    WorkloadModel &addWorkload(const WorkloadParams &params);

    /** One demand access into the channel's entry (trace replay). */
    void access(Addr addr, bool write) { entry_(addr, write); }

    /**
     * Advance simulated time by `duration`; workloads are started on the
     * first call. Background energy is integrated at the end, so
     * energies read between run() calls are consistent.
     */
    void run(Tick duration);

    const SystemConfig &config() const { return cfg_; }

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    /**
     * Stat group of main memory's module, controller and policy, so
     * their paths (system3d.mainMem.*) never collide with the stacked
     * die's. Declared before them: it must outlive its children.
     */
    std::unique_ptr<StatGroup> mainMem_;
    std::unique_ptr<DramModule> dram_;
    std::unique_ptr<DramModule> mainDram_;
    std::unique_ptr<MemoryController> ctrl_;
    std::unique_ptr<MemoryController> mainCtrl_;
    std::unique_ptr<RefreshPolicy> policy_;
    std::unique_ptr<RefreshPolicy> mainPolicy_;
    std::unique_ptr<DramCache> cache_;
    /**
     * Where demand enters: the cache, else the controller. Chosen at
     * construction, so a workload's access costs no per-call branch.
     */
    WorkloadModel::Sink entry_;
    SmartRefreshPolicy *smartPolicy_ = nullptr;
    std::vector<std::unique_ptr<WorkloadModel>> workloads_;
    bool started_ = false;
};

} // namespace smartref
