/**
 * @file
 * The Smart Refresh policy — the paper's primary contribution.
 *
 * A B-bit down-counter is kept per (rank, bank, row). Demand activity
 * (row open and row close) resets the corresponding counter to its
 * maximum; the staggered segment walk touches each counter exactly once
 * per counter access period and emits a RAS-only refresh only when a
 * counter has expired. Refreshes for recently-touched rows are thereby
 * skipped while the Section 4.3 deadline guarantee is preserved.
 *
 * Section 4.6 self-configuration: a per-interval activity monitor falls
 * back to plain CBR refresh when the DRAM is nearly idle and re-enables
 * the counters when activity returns. Mode switches are made safe by a
 * one-retention-interval *overlap*, during which both the old and the
 * new mechanism run: the paper does not spell out how to hand over
 * without violating a deadline, and the overlap is the simplest scheme
 * that provably cannot (each mechanism alone guarantees every row is
 * refreshed within one interval of the handover point). The overlap's
 * duplicate refreshes are the hysteresis cost and are fully accounted.
 *
 * Energy overheads charged to this policy (reported by overheadEnergy()):
 * address-bus energy for every RAS-only refresh posted (Table 3 model)
 * and counter-array SRAM energy (one read + one write per counter touch,
 * one write per demand reset — Section 6's accounting).
 */

#pragma once

#include <memory>

#include "core/activity_monitor.hh"
#include "core/counter_array.hh"
#include "core/pending_refresh_queue.hh"
#include "dram/retention_classes.hh"
#include "core/sram_energy_model.hh"
#include "core/stagger_scheduler.hh"
#include "ctrl/bus_energy_model.hh"
#include "ctrl/memory_controller.hh"
#include "ctrl/refresh_policy.hh"
#include "dram/dram_config.hh"
#include "sim/event_queue.hh"
#include "sim/ring_queue.hh"

namespace smartref {

/** Tunables for SmartRefreshPolicy. */
struct SmartRefreshConfig
{
    std::uint32_t counterBits = 3;   ///< the paper simulates 3-bit counters
    std::uint32_t segments = 8;      ///< logical segments == queue entries
    std::size_t queueCapacity = 8;   ///< pending refresh queue size
    bool autoReconfigure = true;     ///< Section 4.6 on/off circuit
    bool startInCbrMode = false;     ///< begin disabled (tests/idle runs)
    /**
     * Hierarchical sparse counter storage: idle segments stay in the
     * analytic pristine closed form and the walk skips their SRAM
     * traffic (billed as summary reads / skipped touches instead). Off
     * by default — dense storage is the paper's modeled hardware and
     * the byte-exact golden behaviour. See core/counter_array.hh.
     */
    bool sparseCounters = false;
    /**
     * Section 5: the controller is built before the DRAM size is known,
     * so it carries counter banks for its maximum permissible capacity
     * and the BIOS enables only as many as the installed module needs.
     * This is the row count of that maximum capacity (0 = sized exactly
     * for the module). Only enabled banks are walked, but the SRAM
     * array's per-access energy reflects the full structure (the 768 KB
     * figure the paper quotes for a 32 GB-capable controller).
     */
    std::uint64_t controllerMaxRows = 0;
    /**
     * Optional RAPID-style retention classes (paper Section 8: "our
     * technique is orthogonal ... and can be applied on top"). When
     * set, counters widen by log2(max multiplier) bits and each row's
     * countdown restarts from multiplier x 2^counterBits - 1: strong
     * rows defer their periodic refresh to their own (longer) deadline
     * while access-driven resets keep working unchanged. The walk
     * granularity (counter access period) stays retention/2^counterBits.
     */
    std::shared_ptr<const RetentionClassMap> retentionClasses;
    ActivityMonitorParams monitor{};
    BusEnergyParams bus{};
    SramEnergyParams sram{};
};

/** The Smart Refresh memory-controller refresh policy. */
class SmartRefreshPolicy : public RefreshPolicy
{
  public:
    /** Operating mode (overlaps run both mechanisms at once). */
    enum class Mode { Smart, Cbr, EnableOverlap, DisableOverlap };

    SmartRefreshPolicy(const DramConfig &dramCfg,
                       const SmartRefreshConfig &cfg, EventQueue &eq,
                       StatGroup *parent);

    void start() override;
    void onRowActivated(std::uint32_t rank, std::uint32_t bank,
                        std::uint32_t row) override;
    void onRowClosed(std::uint32_t rank, std::uint32_t bank,
                     std::uint32_t row) override;
    void onRefreshIssued(const RefreshRequest &req) override;
    bool refreshStillNeeded(const RefreshRequest &req,
                            bool rowCurrentlyOpen) const override;
    void onRefreshCancelled(const RefreshRequest &req) override;
    double overheadEnergy() const override;
    std::string policyName() const override { return "smart"; }

    Mode mode() const { return mode_; }
    bool countersActive() const { return countersActive_; }
    bool cbrActive() const { return cbrActive_; }

    const CounterArray &counters() const { return *counters_; }
    const StaggerScheduler &stagger() const { return *stagger_; }
    const PendingRefreshQueue &pendingQueue() const { return pending_; }
    const ActivityMonitor &monitor() const { return monitor_; }
    const BusEnergyModel &bus() const { return bus_; }
    const SramEnergyModel &sram() const { return sram_; }

    std::uint64_t
    smartRefreshesRequested() const
    {
        return static_cast<std::uint64_t>(smartRequested_.value());
    }

    std::uint64_t
    cbrRefreshesRequested() const
    {
        return static_cast<std::uint64_t>(cbrRequested_.value());
    }

    /** Counter-array area in KB (Section 4.7 formula). */
    double counterAreaKBUsed() const;

    /** @name Section 5 counter banking. */
    ///@{
    /** Counter banks physically present in the controller. */
    std::uint32_t counterBanksTotal() const { return banksTotal_; }
    /** Counter banks the BIOS enabled for the installed module. */
    std::uint32_t counterBanksEnabled() const { return banksEnabled_; }
    ///@}

    /** Flush SRAM traffic into the energy model's statistics. */
    void syncEnergyStats();

    /**
     * Attach a spatial heatmap (not owned, may be null) to the counter
     * array: every walk touch feeds the per-segment skip/expiry and
     * counter-value distributions. The heatmap must have been sized for
     * at least this policy's segment count and counter range.
     */
    void setHeatmap(RefreshHeatmap *heatmap);

    /**
     * Attach a refresh decision audit trail (not owned, may be null):
     * walk touches that skip a refresh record SkippedCounterReset (via
     * the counter array) and expired counters whose refresh is pushed
     * to a later stagger sub-slot record Deferred.
     */
    void setAudit(RefreshAudit *audit) override;

  private:
    /** Counter of (rank, bank, row): rank-major, banks then rows. */
    std::uint64_t
    counterIndex(std::uint32_t rank, std::uint32_t bank,
                 std::uint32_t row) const
    {
        return (std::uint64_t(rank) << rankShift_) |
               (std::uint64_t(bank) << rowShift_) | row;
    }

    /** counterIndex() inverted by shift and mask (power-of-two axes). */
    struct RowCoord
    {
        std::uint32_t rank, bank, row;
    };
    RowCoord
    rowOf(std::uint64_t counterIndex) const
    {
        return {static_cast<std::uint32_t>(counterIndex >> rankShift_),
                static_cast<std::uint32_t>((counterIndex >> rowShift_) &
                                           (org_.banks - 1)),
                static_cast<std::uint32_t>(counterIndex &
                                           (org_.rows - 1))};
    }

    void scheduleStep();
    void doStep(std::uint64_t generation);
    void scheduleCbr();
    void doCbr(std::uint64_t generation);
    void scheduleWindow();
    void closeWindow();
    void beginDisable();
    void beginEnable();
    void emitSmartRefresh(std::uint64_t counterIndex);

    DramOrganization org_;
    unsigned rowShift_;  ///< log2(rows)
    unsigned rankShift_; ///< log2(banks * rows)
    Tick retention_;
    Tick cbrSpacing_;
    SmartRefreshConfig cfg_;
    EventQueue &eq_;

    std::unique_ptr<CounterArray> counters_;
    std::unique_ptr<StaggerScheduler> stagger_;
    PendingRefreshQueue pending_;
    /**
     * The current step's deferred expiries, emitted front to back by
     * one burst train. A train ends within its step interval, so the
     * ring is empty whenever a step begins.
     */
    RingQueue<std::uint64_t> deferred_;
    ActivityMonitor monitor_;
    BusEnergyModel bus_;
    SramEnergyModel sram_;

    std::uint32_t banksTotal_ = 1;
    std::uint32_t banksEnabled_ = 1;
    Mode mode_ = Mode::Smart;
    bool countersActive_ = false;
    bool cbrActive_ = false;
    std::uint64_t stepGen_ = 0;
    std::uint64_t cbrGen_ = 0;
    std::uint32_t nextCbrRank_ = 0;
    std::uint64_t syncedReads_ = 0;
    std::uint64_t syncedWrites_ = 0;
    RefreshAudit *audit_ = nullptr;

    Scalar smartRequested_;
    Scalar cbrRequested_;
    Scalar skippedByCounters_;
    Scalar cancelledWhileHeld_;
};

} // namespace smartref
