/**
 * @file
 * The memory controller: per-bank transaction engines with an open-page
 * row-buffer policy, arbitration between demand traffic and refresh
 * requests, and latency statistics.
 *
 * Each (rank, bank) pair has a FIFO engine. Demand transactions expand
 * into the command sequence the open-page policy requires (PRE on a row
 * conflict, ACT on a closed bank, then the column burst); refresh requests
 * occupy the engine for one refresh command. Engines run concurrently;
 * the device model enforces all shared-resource timing (data bus, tRRD),
 * so engines simply retry until their command becomes legal.
 *
 * The hot path allocates nothing: an engine holds its in-flight item,
 * the command it is waiting to issue and the step that command
 * continues into, so a retry event captures only (controller, engine);
 * its FIFOs are rings that keep their storage; and each engine keeps at
 * most one idle-precharge timer queued (see docs/perf.md).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/address_mapper.hh"
#include "ctrl/darp_predictor.hh"
#include "ctrl/mem_request.hh"
#include "ctrl/refresh_policy.hh"
#include "dram/dram_module.hh"
#include "sim/event_queue.hh"
#include "sim/ring_queue.hh"
#include "sim/stats.hh"

namespace smartref {

class RefreshHeatmap;

/** Controller tunables. */
struct ControllerConfig
{
    AddressScheme scheme = AddressScheme::RowRankBankColumn;
    /**
     * Adaptive page policy: close an open row after this much bank
     * idleness (0 disables). Closing idle pages lets ranks reach
     * precharge power-down, which is what makes refresh a significant
     * share of DRAM energy in the low-power baseline (the ITSY
     * observation the paper starts from). The writeback also restores
     * the row's charge, so access-aware refresh policies are notified.
     */
    Tick idlePrechargeAfter = 200 * kNanosecond;

    /**
     * DARP only: how long a refresh may be held back waiting for its
     * bank to go demand-idle before it is force-dispatched ahead of
     * demand. Must stay well under the retention tracker's deadline
     * slack (20 us) so held refreshes cannot cause violations.
     */
    Tick darpDeferWindow = 8 * kMicrosecond;

    /**
     * DARP only: the idle-gap the per-bank predictor must expect
     * before a refresh is dispatched into an idle bank immediately.
     * 0 means "one row refresh" (tRFCrow).
     */
    Tick darpIdleLookahead = 0;
};

/** Open-page memory controller for one DRAM module. */
class MemoryController : public StatGroup
{
  public:
    MemoryController(DramModule &dram, EventQueue &eq,
                     const ControllerConfig &cfg = {},
                     StatGroup *parent = nullptr);

    /** Attach the refresh policy (not owned) and start it. */
    void setRefreshPolicy(RefreshPolicy *policy);

    /**
     * Attach a spatial heatmap (not owned, may be null). The controller
     * records demand accesses (with inter-access distance) on entry and
     * refresh issues at the tick the device accepts them.
     */
    void setHeatmap(RefreshHeatmap *heatmap) { heatmap_ = heatmap; }

    /**
     * Attach a refresh decision audit trail (not owned, may be null).
     * Every refresh the device accepts is recorded at its issue tick:
     * ForcedDeadline for CBR fallback refreshes (the unconditional
     * deadline path), Issued for policy-requested addressed refreshes.
     */
    void setAudit(RefreshAudit *audit) { audit_ = audit; }

    /**
     * Submit a demand access arriving now.
     * @param cb invoked when the data burst completes (may be empty)
     */
    void access(Addr addr, bool write, MemCallback cb = nullptr);

    /** Submit a refresh request (called by the refresh policy). */
    void pushRefresh(const RefreshRequest &req);

    const AddressMapper &mapper() const { return mapper_; }
    DramModule &dram() { return dram_; }
    EventQueue &eventQueue() { return eq_; }

    /** @name Statistics accessors. */
    ///@{
    std::uint64_t demandReads() const { return asU64(reads_); }
    std::uint64_t demandWrites() const { return asU64(writes_); }
    std::uint64_t rowHits() const { return asU64(rowHits_); }
    std::uint64_t rowMisses() const { return asU64(rowMisses_); }
    std::uint64_t rowConflicts() const { return asU64(rowConflicts_); }
    double
    rowHitRate() const
    {
        const double total = reads_.value() + writes_.value();
        return total > 0.0 ? rowHits_.value() / total : 0.0;
    }
    /** Mean demand latency (arrival to data completion) in ticks. */
    double avgLatency() const { return latency_.mean(); }
    /** Sum of all demand latencies in ticks. */
    double latencySumTicks() const { return latencySum_.value(); }
    const Histogram &latencyHistogram() const { return latency_; }
    /** Refresh requests not yet issued to the device. */
    std::size_t refreshBacklog() const { return refreshBacklog_; }
    /** Largest refresh backlog ever observed. */
    std::size_t maxRefreshBacklog() const { return maxRefreshBacklog_; }
    /** Largest request-to-issue delay of any refresh (ticks). */
    Tick maxRefreshDispatchDelay() const { return maxRefreshDelay_; }
    /** Ticks demand spent blocked behind in-flight refresh state. */
    double demandBlockedTicks() const { return demandBlocked_.value(); }
    /** Refreshes DARP slipped into idle banks / behind write drains. */
    std::uint64_t refreshStallsAvoided() const
    {
        return asU64(stallsAvoided_);
    }
    /** Demand arrivals that hit a subarray mid-refresh (SARP). */
    std::uint64_t subarrayConflicts() const
    {
        return asU64(subarrayConflicts_);
    }
    /** Refreshes DARP held back at least once. */
    std::uint64_t darpDeferred() const { return asU64(darpDeferred_); }
    /** Held refreshes cancelled because the policy no longer needs them. */
    std::uint64_t darpCancelled() const { return asU64(darpCancelled_); }
    ///@}

    /** Drain outstanding work: returns true when all queues are empty. */
    bool idle() const;

  private:
    static std::uint64_t
    asU64(const Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    /** A queued unit of work for one bank engine. */
    struct Item
    {
        enum class Kind { Demand, Refresh } kind = Kind::Demand;
        // Demand fields
        MemRequest req;
        DramCoord coord;
        MemCallback cb;
        // Refresh fields
        RefreshRequest ref;
        /**
         * AuditOutcome a DARP dispatch decision stamped on this
         * refresh, or -1 when the refresh took the normal path.
         */
        int darpOutcome = -1;
    };

    /** What an engine's pending command continues into once issued. */
    enum class Step : std::uint8_t {
        DemandPre, ///< conflict precharge; then activate
        DemandAct, ///< activate; then the column burst
        DemandCol, ///< column burst; then the demand completes
        Refresh,   ///< the refresh command itself
        IdlePre,   ///< idle-timer precharge
    };

    /** FIFO engine for one (rank, bank). */
    struct Engine
    {
        RingQueue<Item> queue;
        bool busy = false;
        /** Bumped on any activity; stale idle-precharge checks no-op. */
        std::uint64_t activityGen = 0;
        /** DARP: refreshes held back until the bank goes demand-idle. */
        RingQueue<Item> heldRefresh;
        /** DARP: was the last column burst from this bank a write? */
        bool lastWasWrite = false;
        /** DARP: per-bank demand inter-arrival predictor. */
        DarpIdlePredictor predictor;

        /** @name In-flight work (valid while busy). */
        ///@{
        Item current;
        /** The command waiting to issue; `step` says what follows it. */
        DramCommand cmd;
        Step step = Step::DemandCol;
        /** Row the pending precharge closes (DemandPre, IdlePre). */
        std::uint32_t closingRow = 0;
        ///@}

        /**
         * @name Idle-precharge timer.
         * Each drain that leaves the page open arms a deadline under a
         * reserved event sequence number. At most one timer event is
         * queued; finding a newer arm, it re-queues at that arm's
         * (deadline, seq), so event order is as if every drain had
         * queued its own timer (docs/perf.md).
         */
        ///@{
        Tick idleDeadline = 0;
        std::uint64_t idleSeq = 0;   ///< newest arm's reserved seq
        std::uint64_t idleGen = 0;   ///< activityGen at the newest arm
        std::uint64_t queuedSeq = 0; ///< seq the queued timer runs at
        bool idleTimerQueued = false;
        ///@}
    };

    /** Engines are rank-major; banks per rank is a power of two. */
    std::size_t
    engineIndex(std::uint32_t rank, std::uint32_t bank) const
    {
        return (std::size_t(rank) << bankShift_) | bank;
    }
    std::uint32_t
    engineRank(std::size_t engineIdx) const
    {
        return static_cast<std::uint32_t>(engineIdx >> bankShift_);
    }
    std::uint32_t
    engineBank(std::size_t engineIdx) const
    {
        return static_cast<std::uint32_t>(
            engineIdx & ((std::size_t(1) << bankShift_) - 1));
    }

    void kick(std::size_t engineIdx);
    /** DARP: dispatch held refreshes once idleness is confirmed. */
    void armHeldDispatch(std::size_t engineIdx);
    /** DARP: dispatch held refreshes while the engine is drained. */
    void tryDispatchHeld(std::size_t engineIdx);
    /** DARP: force-dispatch held refreshes that hit the defer window. */
    void forceHeld(std::size_t engineIdx);
    /**
     * DARP: offer a held refresh to the policy for cancellation.
     * @return true when it was cancelled (caller drops the item)
     */
    bool maybeCancelHeld(const Item &item);
    /** Start the engine's `current` item. */
    void startItem(std::size_t engineIdx);
    void runDemand(std::size_t engineIdx);
    void issueColumn(std::size_t engineIdx);
    void finishDemand(std::size_t engineIdx, Tick done);
    void finishRefresh(std::size_t engineIdx, bool rowWasOpen,
                       std::uint32_t openRow);
    void finishEngine(std::size_t engineIdx);
    void armIdlePrecharge(std::size_t engineIdx);
    /** Queue the engine's one idle timer at its newest arm. */
    void queueIdleTimer(std::size_t engineIdx);
    /** Close the idle page, unless the engine saw activity since. */
    void onIdleTimer(std::size_t engineIdx);
    /**
     * Hand `item` to an engine: an idle engine starts it in place, a
     * busy one queues it behind its current work.
     */
    void submit(std::size_t engineIdx, Item &&item);

    /** Make `cmd` the engine's pending command and try to issue it. */
    void issue(std::size_t engineIdx, Step step, const DramCommand &cmd);
    /**
     * Issue the engine's pending command as soon as it becomes legal,
     * then continue with onIssued(). Retries via the event queue if
     * constraints move while waiting.
     */
    void issuePending(std::size_t engineIdx);
    /**
     * Advance the engine past its pending command, given the completion
     * tick plus the bank's open-row state observed immediately *before*
     * the device accepted the command (refreshes implicitly close an
     * open page, and access-aware policies must learn which row was
     * written back).
     */
    void onIssued(std::size_t engineIdx, Tick done, bool rowWasOpen,
                  std::uint32_t openRow);

    DramModule &dram_;
    EventQueue &eq_;
    ControllerConfig cfg_;
    AddressMapper mapper_;
    RefreshPolicy *policy_ = nullptr;
    RefreshHeatmap *heatmap_ = nullptr;
    RefreshAudit *audit_ = nullptr;

    std::vector<Engine> engines_;
    /** log2(banks per rank): engine index = rank << bankShift_ | bank. */
    unsigned bankShift_ = 0;
    /**
     * Mirror of each rank's CBR counter. Refreshes may issue out of the
     * device's internal-counter order once routed to per-bank engines, so
     * the controller resolves each CBR's (bank, row) at push time from
     * this mirror and issues it as an addressed refresh; the `cbr` flag
     * is kept for energy accounting (no address posted on the bus).
     */
    std::vector<std::uint64_t> cbrMirror_;
    /**
     * Number of engines with work (busy or a non-empty queue),
     * maintained incrementally so idle() is O(1) instead of scanning
     * every engine; debug builds assert it against the full scan.
     */
    std::size_t activeEngines_ = 0;
    std::uint64_t nextReqId_ = 0;
    std::size_t refreshBacklog_ = 0;
    std::size_t maxRefreshBacklog_ = 0;
    Tick maxRefreshDelay_ = 0;
    /** Held refreshes across all engines (DARP); part of idle(). */
    std::size_t heldRefreshes_ = 0;
    /** Whether the attached module's parallelism mode enables DARP. */
    bool darpEnabled_ = false;

    Scalar reads_;
    Scalar writes_;
    Scalar rowHits_;
    Scalar rowMisses_;
    Scalar rowConflicts_;
    Scalar refreshesForwarded_;
    Scalar idlePrecharges_;
    Histogram latency_;
    Scalar latencySum_;
    Scalar demandBlocked_;
    Scalar stallsAvoided_;
    Scalar subarrayConflicts_;
    Scalar darpDeferred_;
    Scalar darpCancelled_;
};

} // namespace smartref
