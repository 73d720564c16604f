#include "ctrl/memory_controller.hh"

#include <bit>
#include <utility>

#include "ctrl/refresh_audit.hh"
#include "ctrl/refresh_heatmap.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

MemoryController::MemoryController(DramModule &dram, EventQueue &eq,
                                   const ControllerConfig &cfg,
                                   StatGroup *parent)
    : StatGroup("ctrl", parent),
      dram_(dram),
      eq_(eq),
      cfg_(cfg),
      mapper_(dram.config().org, cfg.scheme),
      engines_(std::size_t(dram.config().org.ranks) *
               dram.config().org.banks),
      bankShift_(static_cast<unsigned>(
          std::countr_zero(dram.config().org.banks))),
      cbrMirror_(dram.config().org.ranks, 0),
      reads_(this, "demandReads", "demand read transactions"),
      writes_(this, "demandWrites", "demand write transactions"),
      rowHits_(this, "rowHits", "column accesses hitting the open row"),
      rowMisses_(this, "rowMisses", "accesses to a precharged bank"),
      rowConflicts_(this, "rowConflicts",
                    "accesses that had to close another row"),
      refreshesForwarded_(this, "refreshesForwarded",
                          "refresh requests accepted from the policy"),
      idlePrecharges_(this, "idlePrecharges",
                      "pages closed by the idle-precharge timer"),
      latency_(this, "latency", "demand latency (ticks)",
               0.0, 2.0e6, 64),
      latencySum_(this, "latencySum", "sum of demand latencies (ticks)"),
      demandBlocked_(this, "demandBlockedTicks",
                     "ticks demand waited on in-flight refresh state"),
      stallsAvoided_(this, "refreshStallsAvoided",
                     "refreshes DARP moved into demand-idle banks"),
      subarrayConflicts_(this, "subarrayConflicts",
                         "demand arrivals hitting a subarray mid-refresh"),
      darpDeferred_(this, "darpDeferred",
                    "refreshes DARP held back at least once"),
      darpCancelled_(this, "darpCancelled",
                     "held refreshes the policy no longer needed")
{
    darpEnabled_ = parallelismUsesDarp(dram_.config().parallelism);
}

void
MemoryController::setRefreshPolicy(RefreshPolicy *policy)
{
    policy_ = policy;
    if (policy_) {
        policy_->bind(this);
        policy_->start();
    }
}

void
MemoryController::access(Addr addr, bool write, MemCallback cb)
{
    Item item;
    item.kind = Item::Kind::Demand;
    item.req = MemRequest{addr, write, eq_.now(), nextReqId_++};
    item.coord = mapper_.decode(addr);
    item.cb = std::move(cb);

    if (write)
        ++writes_;
    else
        ++reads_;
    if (heatmap_)
        heatmap_->recordDemand(item.coord.rank, item.coord.bank, eq_.now());

    const std::size_t idx = engineIndex(item.coord.rank, item.coord.bank);
    engines_[idx].predictor.recordDemand(eq_.now());
    submit(idx, std::move(item));
}

void
MemoryController::pushRefresh(const RefreshRequest &req)
{
    Item item;
    item.kind = Item::Kind::Refresh;
    item.ref = req;

    if (req.cbr) {
        // Resolve the internal-counter target now so the request can be
        // routed to (and issued from) the right bank engine even if
        // engines drain out of order.
        auto [bank, row] =
            dram_.peekCbrTarget(req.rank, cbrMirror_[req.rank]++);
        item.ref.bank = bank;
        item.ref.row = row;
    }
    ++refreshesForwarded_;
    ++refreshBacklog_;
    maxRefreshBacklog_ = std::max(maxRefreshBacklog_, refreshBacklog_);
    SMARTREF_TRACE_COUNTER(TraceCategory::Queue, eq_.now(),
                           "refreshBacklog",
                           static_cast<double>(refreshBacklog_));

    const std::size_t idx = engineIndex(req.rank, item.ref.bank);
    Engine &engine = engines_[idx];

    if (darpEnabled_) {
        // DARP: only let the refresh through immediately when the bank
        // is demand-idle and the predictor expects it to stay idle for
        // the refresh duration; otherwise hold it and wait for a drain
        // (or the defer window, whichever comes first).
        const Tick lookahead = cfg_.darpIdleLookahead != 0
                                   ? cfg_.darpIdleLookahead
                                   : dram_.config().timing.tRFCrow;
        const bool bankQuiet = !engine.busy && engine.queue.empty();
        if (!bankQuiet ||
            !engine.predictor.expectIdleFor(eq_.now(), lookahead)) {
            ++darpDeferred_;
            SMARTREF_AUDIT_RECORD(audit_, eq_.now(), item.ref.rank,
                                  item.ref.bank, item.ref.row,
                                  AuditOutcome::DarpDeferred,
                                  AuditSource::Darp);
            ++heldRefreshes_;
            engine.heldRefresh.pushBack(std::move(item));
            eq_.scheduleAfter(cfg_.darpDeferWindow,
                              [this, idx] { forceHeld(idx); },
                              EventPriority::Default, EventKind::Darp);
            // Quiet bank held back only by the predictor: re-check
            // after an idle window instead of waiting for the drain
            // hook (which needs demand) or the defer deadline.
            if (bankQuiet)
                armHeldDispatch(idx);
            return;
        }
        item.darpOutcome =
            static_cast<int>(AuditOutcome::DarpIdleIssued);
    }
    submit(idx, std::move(item));
}

void
MemoryController::armHeldDispatch(std::size_t engineIdx)
{
    // A drained engine is not the same as an idle bank: back-to-back
    // demand leaves micro-gaps between requests, and slipping a refresh
    // into one closes the open row mid-burst. Wait out an idle window
    // first; any intervening activity bumps the generation and voids
    // the timer (the next drain re-arms it).
    Engine &engine = engines_[engineIdx];
    const std::uint64_t gen = engine.activityGen;
    const Tick wait = cfg_.darpIdleLookahead != 0
                          ? cfg_.darpIdleLookahead
                          : (cfg_.idlePrechargeAfter != 0
                                 ? cfg_.idlePrechargeAfter
                                 : dram_.config().timing.tRFCrow);
    eq_.scheduleAfter(wait, [this, engineIdx, gen] {
        Engine &e = engines_[engineIdx];
        if (e.busy || !e.queue.empty() || e.activityGen != gen)
            return;
        tryDispatchHeld(engineIdx);
    }, EventPriority::Default, EventKind::Darp);
}

void
MemoryController::tryDispatchHeld(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    while (!engine.busy && !engine.heldRefresh.empty()) {
        Item item = engine.heldRefresh.popFront();
        --heldRefreshes_;
        if (maybeCancelHeld(item))
            continue;
        // The bank just drained: slip the refresh in now, behind the
        // write drain when that is what freed the bank.
        item.darpOutcome = static_cast<int>(
            engine.lastWasWrite ? AuditOutcome::DarpPiggybacked
                                : AuditOutcome::DarpIdleIssued);
        ++stallsAvoided_;
        submit(engineIdx, std::move(item));
    }
}

void
MemoryController::forceHeld(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    const bool wasIdle = !engine.busy && engine.queue.empty();
    std::size_t forced = 0;
    while (!engine.heldRefresh.empty() &&
           engine.heldRefresh.front().ref.created + cfg_.darpDeferWindow <=
               eq_.now()) {
        Item item = engine.heldRefresh.popFront();
        --heldRefreshes_;
        if (maybeCancelHeld(item))
            continue;
        item.darpOutcome = static_cast<int>(AuditOutcome::DarpForced);
        // Jump ahead of queued demand: these refreshes are out of slack.
        engine.queue.pushFront(std::move(item));
        ++forced;
    }
    if (forced == 0)
        return;
    // pushFront stacked the expired prefix newest first; restore
    // creation order.
    engine.queue.reverseFront(forced);
    if (wasIdle)
        ++activeEngines_;
    kick(engineIdx);
}

bool
MemoryController::maybeCancelHeld(const Item &item)
{
    const RefreshRequest &ref = item.ref;
    // CBR-flagged refreshes already advanced the device's internal
    // counter mirror; they may be delayed but never dropped.
    if (ref.cbr || !policy_)
        return false;
    const bool rowOpen = dram_.isBankOpen(ref.rank, ref.bank) &&
                         dram_.openRow(ref.rank, ref.bank) == ref.row;
    if (policy_->refreshStillNeeded(ref, rowOpen))
        return false;
    SMARTREF_ASSERT(refreshBacklog_ > 0, "refresh backlog underflow");
    --refreshBacklog_;
    ++darpCancelled_;
    SMARTREF_AUDIT_RECORD(audit_, eq_.now(), ref.rank, ref.bank, ref.row,
                          AuditOutcome::DarpCancelled, AuditSource::Darp);
    policy_->onRefreshCancelled(ref);
    return true;
}

void
MemoryController::submit(std::size_t engineIdx, Item &&item)
{
    Engine &engine = engines_[engineIdx];
    if (engine.busy) {
        engine.queue.pushBack(std::move(item));
        return;
    }
    // An idle engine's queue is empty (kick() drains it whenever the
    // engine frees), so the item starts in place without a ring trip.
    SMARTREF_ASSERT(engine.queue.empty(), "idle engine holds queued work");
    ++activeEngines_;
    engine.busy = true;
    ++engine.activityGen;
    engine.current = std::move(item);
    startItem(engineIdx);
}

bool
MemoryController::idle() const
{
#ifndef NDEBUG
    std::size_t scanned = 0;
    for (const Engine &e : engines_)
        if (e.busy || !e.queue.empty())
            ++scanned;
    SMARTREF_ASSERT(scanned == activeEngines_,
                    "active-engine count drifted: tracked ",
                    activeEngines_, ", scan found ", scanned);
#endif
    return activeEngines_ == 0 && heldRefreshes_ == 0;
}

void
MemoryController::kick(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    if (engine.busy || engine.queue.empty())
        return;
    engine.busy = true;
    ++engine.activityGen;
    engine.current = engine.queue.popFront();
    startItem(engineIdx);
}

void
MemoryController::startItem(std::size_t engineIdx)
{
    const Item &item = engines_[engineIdx].current;
    if (item.kind == Item::Kind::Demand) {
        runDemand(engineIdx);
        return;
    }
    // All refreshes carry a resolved (bank, row); the cbr flag only
    // changes whether an address was posted on the bus (energy).
    const RefreshRequest &req = item.ref;
    issue(engineIdx, Step::Refresh,
          {DramCommandType::RefreshRasOnly, req.rank, req.bank, req.row,
           0});
}

void
MemoryController::finishEngine(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    engine.busy = false;
    if (!engine.queue.empty()) {
        // The engine stays active. kick() may complete the next item
        // synchronously (SARP refreshes wait on no bank window) and
        // recurse through finishEngine; each frame accounts only the
        // transition it observed, so decide active-vs-idle *before*
        // anything re-entrant can run.
        kick(engineIdx);
        return;
    }
    SMARTREF_ASSERT(activeEngines_ > 0, "active-engine underflow");
    --activeEngines_;
    // DARP: the bank just drained. Piggyback a held refresh straight
    // behind a write when the predictor expects the bank to stay quiet
    // (the bus turnaround already broke the burst); otherwise wait for
    // confirmed idleness before slipping one in.
    if (darpEnabled_ && !engine.heldRefresh.empty()) {
        const Tick lookahead = cfg_.darpIdleLookahead != 0
                                   ? cfg_.darpIdleLookahead
                                   : dram_.config().timing.tRFCrow;
        if (engine.lastWasWrite &&
            engine.predictor.expectIdleFor(eq_.now(), lookahead))
            tryDispatchHeld(engineIdx);
        else
            armHeldDispatch(engineIdx);
    }
    if (!engine.busy)
        armIdlePrecharge(engineIdx);
}

void
MemoryController::armIdlePrecharge(std::size_t engineIdx)
{
    if (cfg_.idlePrechargeAfter == 0)
        return;
    Engine &engine = engines_[engineIdx];
    const std::uint32_t rank = engineRank(engineIdx);
    const std::uint32_t bank = engineBank(engineIdx);
    if (!dram_.isBankOpen(rank, bank))
        return;
    engine.idleDeadline = eq_.now() + cfg_.idlePrechargeAfter;
    engine.idleSeq = eq_.reserveSeq();
    engine.idleGen = engine.activityGen;
    if (!engine.idleTimerQueued)
        queueIdleTimer(engineIdx);
}

void
MemoryController::queueIdleTimer(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    engine.idleTimerQueued = true;
    engine.queuedSeq = engine.idleSeq;
    eq_.scheduleReserved(engine.idleDeadline, engine.idleSeq,
                         [this, engineIdx] { onIdleTimer(engineIdx); },
                         EventPriority::Default, EventKind::IdleTimer);
}

void
MemoryController::onIdleTimer(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    if (engine.queuedSeq != engine.idleSeq) {
        // Re-armed since this timer was queued: this arm is stale.
        queueIdleTimer(engineIdx);
        return;
    }
    engine.idleTimerQueued = false;
    if (engine.busy || !engine.queue.empty() ||
        engine.activityGen != engine.idleGen)
        return;
    const std::uint32_t rank = engineRank(engineIdx);
    const std::uint32_t bank = engineBank(engineIdx);
    if (!dram_.isBankOpen(rank, bank))
        return;

    ++activeEngines_;
    engine.busy = true;
    ++engine.activityGen;
    engine.closingRow = dram_.openRow(rank, bank);
    ++idlePrecharges_;
    issue(engineIdx, Step::IdlePre,
          {DramCommandType::Precharge, rank, bank, 0, 0});
}

void
MemoryController::issue(std::size_t engineIdx, Step step,
                        const DramCommand &cmd)
{
    Engine &engine = engines_[engineIdx];
    engine.step = step;
    engine.cmd = cmd;
    issuePending(engineIdx);
}

void
MemoryController::issuePending(std::size_t engineIdx)
{
    const DramCommand cmd = engines_[engineIdx].cmd;
    // Observe the bank's row state immediately before the device
    // accepts the command: refreshes (and precharges) implicitly close
    // the open page, and the next step may need to know which row was
    // written back.
    const bool rowWasOpen = dram_.isBankOpen(cmd.rank, cmd.bank);
    const std::uint32_t openRow =
        rowWasOpen ? dram_.openRow(cmd.rank, cmd.bank) : 0;
    const DramModule::IssueAttempt attempt = dram_.tryIssue(cmd);
    if (!attempt.issued) {
        // Constraints may move while we wait; re-check then.
        eq_.schedule(attempt.tick,
                     [this, engineIdx] { issuePending(engineIdx); },
                     EventPriority::Default, EventKind::IssueRetry);
        return;
    }
    onIssued(engineIdx, attempt.tick, rowWasOpen, openRow);
}

void
MemoryController::onIssued(std::size_t engineIdx, Tick done,
                           bool rowWasOpen, std::uint32_t openRow)
{
    Engine &engine = engines_[engineIdx];
    const DramCoord &c = engine.current.coord;
    switch (engine.step) {
      case Step::DemandPre:
        if (policy_)
            policy_->onRowClosed(c.rank, c.bank, engine.closingRow);
        issue(engineIdx, Step::DemandAct,
              {DramCommandType::Activate, c.rank, c.bank, c.row, 0});
        return;
      case Step::DemandAct:
        if (policy_)
            policy_->onRowActivated(c.rank, c.bank, c.row);
        issueColumn(engineIdx);
        return;
      case Step::DemandCol:
        finishDemand(engineIdx, done);
        return;
      case Step::Refresh:
        finishRefresh(engineIdx, rowWasOpen, openRow);
        return;
      case Step::IdlePre:
        if (policy_)
            policy_->onRowClosed(engine.cmd.rank, engine.cmd.bank,
                                 engine.closingRow);
        finishEngine(engineIdx);
        return;
    }
}

void
MemoryController::runDemand(std::size_t engineIdx)
{
    Engine &engine = engines_[engineIdx];
    const DramCoord &c = engine.current.coord;

    // Attribute refresh-induced demand blocking at the tick the demand
    // reaches the bank scheduler: any in-flight refresh state (bank
    // busy window, REFab rank stall, SARP subarray busy) that postpones
    // this access is charged here.
    const Tick blocked = dram_.refreshBlockedUntil(c.rank, c.bank, c.row);
    if (blocked > eq_.now())
        demandBlocked_ += static_cast<double>(blocked - eq_.now());
    if (dram_.subarrayBlockedUntil(c.rank, c.bank, c.row) > eq_.now())
        ++subarrayConflicts_;

    if (dram_.isBankOpen(c.rank, c.bank)) {
        if (dram_.openRow(c.rank, c.bank) == c.row) {
            ++rowHits_;
            SMARTREF_TRACE(TraceCategory::RowBuffer, eq_.now(), "rowHit",
                           c.rank, c.bank, c.row);
            issueColumn(engineIdx);
            return;
        }
        // Row conflict: close the open page, then activate ours.
        ++rowConflicts_;
        SMARTREF_TRACE(TraceCategory::RowBuffer, eq_.now(), "rowConflict",
                       c.rank, c.bank, c.row);
        engine.closingRow = dram_.openRow(c.rank, c.bank);
        issue(engineIdx, Step::DemandPre,
              {DramCommandType::Precharge, c.rank, c.bank, 0, 0});
        return;
    }

    // Bank closed: plain row miss.
    ++rowMisses_;
    SMARTREF_TRACE(TraceCategory::RowBuffer, eq_.now(), "rowMiss", c.rank,
                   c.bank, c.row);
    issue(engineIdx, Step::DemandAct,
          {DramCommandType::Activate, c.rank, c.bank, c.row, 0});
}

void
MemoryController::issueColumn(std::size_t engineIdx)
{
    const Item &item = engines_[engineIdx].current;
    const DramCoord &c = item.coord;
    issue(engineIdx, Step::DemandCol,
          {item.req.write ? DramCommandType::Write : DramCommandType::Read,
           c.rank, c.bank, c.row, c.column});
}

void
MemoryController::finishDemand(std::size_t engineIdx, Tick done)
{
    Engine &engine = engines_[engineIdx];
    Item &item = engine.current;
    engine.lastWasWrite = item.req.write;
    const Tick lat = done - item.req.arrival;
    latency_.sample(static_cast<double>(lat));
    latencySum_ += static_cast<double>(lat);
    if (item.cb) {
        // Deliver the completion at the tick the data arrives.
        eq_.schedule(done, [req = item.req, cb = std::move(item.cb),
                            done]() { cb(req, done); },
                     EventPriority::Default, EventKind::Completion);
    }
    // The engine frees as soon as the column command has issued; the
    // device enforces all remaining burst/recovery timing.
    finishEngine(engineIdx);
}

void
MemoryController::finishRefresh(std::size_t engineIdx, bool rowWasOpen,
                                std::uint32_t openRow)
{
    // Copied: finishEngine() below starts the engine's next item.
    const RefreshRequest req = engines_[engineIdx].current.ref;
    const int darpOutcome = engines_[engineIdx].current.darpOutcome;
    SMARTREF_ASSERT(refreshBacklog_ > 0, "refresh backlog underflow");
    --refreshBacklog_;
    maxRefreshDelay_ = std::max(maxRefreshDelay_, eq_.now() - req.created);
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(),
                   req.cbr ? "refreshIssuedCbr" : "refreshIssuedRas",
                   req.rank, req.bank, req.row,
                   static_cast<double>(eq_.now() - req.created));
    SMARTREF_TRACE_COUNTER(TraceCategory::Queue, eq_.now(),
                           "refreshBacklog",
                           static_cast<double>(refreshBacklog_));
    if (heatmap_)
        heatmap_->recordRefresh(req.rank, req.bank);
    // In subarray modes a refresh only closes the page when it lands in
    // the open row's own subarray; the device applied the same
    // predicate, so the post-issue bank state is the truth.
    const bool pageSurvived =
        rowWasOpen && dram_.isBankOpen(req.rank, req.bank);
    // The deadline-driven CBR fallback path is what the policy could
    // not avoid; an addressed refresh is a decision the policy made;
    // DARP dispatch decisions and subarray-parallel refreshes carry
    // their own outcomes.
    AuditOutcome outcome =
        req.cbr ? AuditOutcome::ForcedDeadline : AuditOutcome::Issued;
    AuditSource source = AuditSource::Controller;
    if (darpOutcome >= 0) {
        outcome = static_cast<AuditOutcome>(darpOutcome);
        source = AuditSource::Darp;
    } else if (pageSurvived) {
        outcome = AuditOutcome::SarpParallel;
    }
    SMARTREF_AUDIT_RECORD(audit_, eq_.now(), req.rank, req.bank, req.row,
                          outcome, source);
    if (policy_) {
        if (rowWasOpen && !pageSurvived)
            policy_->onRowClosed(req.rank, req.bank, openRow);
        policy_->onRefreshIssued(req);
    }
    finishEngine(engineIdx);
}

} // namespace smartref
