/**
 * @file
 * One channel of a conventional system: workloads -> memory controller
 * -> DRAM module, with a selectable refresh policy. Owns the event queue
 * and the statistics tree of that channel. Runs go through
 * ShardedSystem (harness/sharded.hh), which builds one System per
 * channel; the type stays public for code that assembles or inspects a
 * channel directly.
 */

#pragma once

#include <memory>
#include <vector>

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

/** Full configuration of a conventional system. */
struct SystemConfig
{
    DramConfig dram = ddr2_2GB();
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

/**
 * Build `cfg.policy` as a child of `parent` for the module `dram` behind
 * `ctrl`, apply `cfg.retentionClasses`' multipliers to the module and
 * attach `cfg`'s heatmap, audit trail and ledger. System uses it for its
 * one channel and ThreeDSystem for its stacked die.
 */
std::unique_ptr<RefreshPolicy>
assembleRefreshPolicy(const SystemConfig &cfg, DramModule &dram,
                      MemoryController &ctrl, EventQueue &eq,
                      StatGroup *parent);

/** One conventional simulated system. */
class System : public StatGroup
{
  public:
    explicit System(const SystemConfig &cfg);

    EventQueue &eventQueue() { return eq_; }
    DramModule &dram() { return *dram_; }
    MemoryController &controller() { return *ctrl_; }
    RefreshPolicy &refreshPolicy() { return *policy_; }

    /** Non-null only when the system runs Smart Refresh. */
    SmartRefreshPolicy *smartPolicy() { return smartPolicy_; }

    /** Attach a workload generating demand traffic to the controller. */
    WorkloadModel &addWorkload(const WorkloadParams &params);

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
    std::unique_ptr<DramModule> dram_;
    std::unique_ptr<MemoryController> ctrl_;
    std::unique_ptr<RefreshPolicy> policy_;
    SmartRefreshPolicy *smartPolicy_ = nullptr;
    std::vector<std::unique_ptr<WorkloadModel>> workloads_;
    bool started_ = false;
};

} // namespace smartref
