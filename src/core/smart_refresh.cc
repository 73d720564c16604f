#include "core/smart_refresh.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

SmartRefreshPolicy::SmartRefreshPolicy(const DramConfig &dramCfg,
                                       const SmartRefreshConfig &cfg,
                                       EventQueue &eq, StatGroup *parent)
    : RefreshPolicy("refresh.smart", parent),
      org_(dramCfg.org),
      rowShift_(static_cast<unsigned>(std::countr_zero(org_.rows))),
      rankShift_(rowShift_ +
                 static_cast<unsigned>(std::countr_zero(org_.banks))),
      retention_(dramCfg.timing.retention),
      cbrSpacing_(dramCfg.refreshSpacing()),
      cfg_(cfg),
      eq_(eq),
      counters_(std::make_unique<CounterArray>(
          org_.totalRows(),
          cfg.counterBits +
              (cfg.retentionClasses
                   ? static_cast<std::uint32_t>(std::bit_width(
                         cfg.retentionClasses->maxMultiplier() - 1))
                   : 0u),
          cfg.segments, cfg.sparseCounters)),
      stagger_(std::make_unique<StaggerScheduler>(*counters_, cfg.segments,
                                                  retention_,
                                                  cfg.counterBits)),
      pending_(cfg.queueCapacity, this),
      monitor_(org_.totalRows(), cfg.monitor, this),
      bus_(cfg.bus, this),
      sram_(static_cast<double>(std::max(cfg.controllerMaxRows,
                                         org_.totalRows())) *
                cfg.counterBits / (8.0 * 1024.0),
            cfg.sram, this),
      smartRequested_(this, "smartRequested",
                      "counter-expiry refreshes requested"),
      cbrRequested_(this, "cbrRequested",
                    "CBR refreshes requested (fallback/overlap)"),
      skippedByCounters_(this, "touchesDeferred",
                         "counter touches that deferred a refresh"),
      cancelledWhileHeld_(this, "cancelledWhileHeld",
                          "DARP-held refreshes cancelled as redundant")
{
    // Section 5: counter banks for the controller's maximum capacity;
    // the BIOS enables one bank per installed totalRows-worth of DRAM.
    const std::uint64_t maxRows =
        std::max(cfg.controllerMaxRows, org_.totalRows());
    banksTotal_ = static_cast<std::uint32_t>(
        (maxRows + org_.totalRows() - 1) / org_.totalRows());
    banksEnabled_ = 1;

    if (cfg_.retentionClasses) {
        // Multi-rate counters: a class-m row restarts its countdown at
        // m x 2^counterBits - 1, deferring its next periodic refresh to
        // the class deadline m x retention (the walk period stays
        // retention / 2^counterBits).
        const auto &classes = *cfg_.retentionClasses;
        SMARTREF_ASSERT(classes.totalRows() == org_.totalRows(),
                        "class map sized for ", classes.totalRows(),
                        " rows, module has ", org_.totalRows());
        for (std::uint64_t i = 0; i < org_.totalRows(); ++i) {
            const auto resetVal = static_cast<std::uint8_t>(
                classes.multiplier(i) * (1u << cfg_.counterBits) - 1);
            counters_->setResetValue(i, resetVal);
        }
    }
}

double
SmartRefreshPolicy::counterAreaKBUsed() const
{
    // Uses the *storage* width, which exceeds cfg_.counterBits when
    // multi-rate retention classes widen the counters.
    return counterAreaKB(org_.banks, org_.ranks, org_.rows,
                         counters_->bits());
}

void
SmartRefreshPolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    if (cfg_.startInCbrMode) {
        mode_ = Mode::Cbr;
        cbrActive_ = true;
        scheduleCbr();
    } else {
        mode_ = Mode::Smart;
        countersActive_ = true;
        stagger_->initialiseStaggered();
        scheduleStep();
    }
    if (cfg_.autoReconfigure)
        scheduleWindow();
}

void
SmartRefreshPolicy::scheduleStep()
{
    eq_.scheduleAfter(stagger_->stepInterval(),
                      [this, gen = stepGen_] { doStep(gen); },
                      EventPriority::ClockTick, EventKind::Walk);
}

void
SmartRefreshPolicy::doStep(std::uint64_t generation)
{
    if (!countersActive_ || generation != stepGen_)
        return;
    SMARTREF_ASSERT(deferred_.empty(), "previous step's emits still queued");
    // Expired counters are emitted spread across the step interval (the
    // pending queue dispatches one refresh per sub-slot) so that a step
    // never slams all banks with simultaneous refreshes: the i-th
    // expiry goes out i slots from now.
    const Tick slot = stagger_->stepInterval() / stagger_->segments();
    std::uint32_t expired = 0;
    stagger_->step(eq_.now(), [this, &expired, slot](std::uint64_t idx) {
        if (expired++ == 0 || slot == 0) {
            emitSmartRefresh(idx);
            return;
        }
        const RowCoord c = rowOf(idx);
        SMARTREF_AUDIT_RECORD(audit_, eq_.now(), c.rank, c.bank, c.row,
                              AuditOutcome::Deferred,
                              AuditSource::SmartSchedule);
        deferred_.pushBack(idx);
    });
    // One train carries the deferred emits. Nothing schedules between
    // finding the second expiry and here, so the train's reserved
    // sequence numbers are exactly those one scheduleAfter per expiry
    // would have taken during the walk: event order is unchanged.
    if (!deferred_.empty()) {
        eq_.scheduleBurst(eq_.now() + slot, slot, deferred_.size(),
                          [this] { emitSmartRefresh(deferred_.popFront()); },
                          EventPriority::Default, EventKind::Emit);
    }
    skippedByCounters_ +=
        static_cast<double>(stagger_->segments() - expired);
    scheduleStep();
}

void
SmartRefreshPolicy::emitSmartRefresh(std::uint64_t counterIndex)
{
    const RowCoord c = rowOf(counterIndex);
    RefreshRequest req;
    req.rank = c.rank;
    req.bank = c.bank;
    req.row = c.row;
    req.cbr = false;
    req.created = eq_.now();
    ++smartRequested_;
    SMARTREF_TRACE(TraceCategory::Counter, eq_.now(), "counterExpiry",
                   req.rank, req.bank, req.row);
    pending_.push(req);
    ctrl_->pushRefresh(req);
}

void
SmartRefreshPolicy::scheduleCbr()
{
    eq_.scheduleAfter(cbrSpacing_,
                      [this, gen = cbrGen_] { doCbr(gen); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
SmartRefreshPolicy::doCbr(std::uint64_t generation)
{
    if (!cbrActive_ || generation != cbrGen_)
        return;
    RefreshRequest req;
    req.rank = nextCbrRank_;
    req.cbr = true;
    req.created = eq_.now();
    nextCbrRank_ = (nextCbrRank_ + 1) % org_.ranks;
    ++cbrRequested_;
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "smartCbrRequested",
                   req.rank);
    ctrl_->pushRefresh(req);
    scheduleCbr();
}

void
SmartRefreshPolicy::scheduleWindow()
{
    eq_.scheduleAfter(retention_, [this] { closeWindow(); },
                      EventPriority::Stats, EventKind::Window);
}

void
SmartRefreshPolicy::closeWindow()
{
    if (mode_ == Mode::EnableOverlap || mode_ == Mode::DisableOverlap) {
        monitor_.discardWindow(eq_.now());
    } else {
        const auto decision =
            monitor_.closeWindow(mode_ == Mode::Smart, eq_.now());
        switch (decision) {
          case ActivityMonitor::Decision::SwitchToCbr:
            beginDisable();
            break;
          case ActivityMonitor::Decision::SwitchToSmart:
            beginEnable();
            break;
          case ActivityMonitor::Decision::KeepSmart:
          case ActivityMonitor::Decision::KeepCbr:
            break;
        }
    }
    scheduleWindow();
}

void
SmartRefreshPolicy::beginDisable()
{
    // Start CBR now; keep the counters running one full interval so that
    // every row stays covered by at least one mechanism at every instant.
    mode_ = Mode::DisableOverlap;
    cbrActive_ = true;
    ++cbrGen_;
    SMARTREF_TRACE(TraceCategory::Monitor, eq_.now(), "modeDisableOverlap",
                   -1, -1, -1, 0.0, 0, "smart+cbr");
    scheduleCbr();
    eq_.scheduleAfter(retention_, [this] {
        if (mode_ != Mode::DisableOverlap)
            return;
        countersActive_ = false;
        ++stepGen_;
        mode_ = Mode::Cbr;
        SMARTREF_TRACE(TraceCategory::Monitor, eq_.now(), "modeCbr", -1,
                       -1, -1, 0.0, 0, "counters off");
    }, EventPriority::Default, EventKind::Window);
}

void
SmartRefreshPolicy::beginEnable()
{
    // Restart the counters now; keep CBR running one full interval, after
    // which every counter has been reset at least once by a CBR refresh
    // and the Section 4.3 guarantee carries the deadline from there.
    mode_ = Mode::EnableOverlap;
    countersActive_ = true;
    ++stepGen_;
    SMARTREF_TRACE(TraceCategory::Monitor, eq_.now(), "modeEnableOverlap",
                   -1, -1, -1, 0.0, 0, "smart+cbr");
    stagger_->initialiseStaggered();
    scheduleStep();
    eq_.scheduleAfter(retention_, [this] {
        if (mode_ != Mode::EnableOverlap)
            return;
        cbrActive_ = false;
        ++cbrGen_;
        mode_ = Mode::Smart;
        SMARTREF_TRACE(TraceCategory::Monitor, eq_.now(), "modeSmart", -1,
                       -1, -1, 0.0, 0, "cbr off");
    }, EventPriority::Default, EventKind::Window);
}

void
SmartRefreshPolicy::onRowActivated(std::uint32_t rank, std::uint32_t bank,
                                   std::uint32_t row)
{
    monitor_.recordAccess();
    if (countersActive_) {
        counters_->reset(counterIndex(rank, bank, row));
        SMARTREF_TRACE(TraceCategory::Counter, eq_.now(),
                       "counterReset.activate", rank, bank, row);
    }
}

void
SmartRefreshPolicy::onRowClosed(std::uint32_t rank, std::uint32_t bank,
                                std::uint32_t row)
{
    // Closing a page writes it back, which restores the charge exactly
    // like a refresh (Section 4.1), so the counter resets again.
    if (countersActive_) {
        counters_->reset(counterIndex(rank, bank, row));
        SMARTREF_TRACE(TraceCategory::Counter, eq_.now(),
                       "counterReset.close", rank, bank, row);
    }
}

void
SmartRefreshPolicy::onRefreshIssued(const RefreshRequest &req)
{
    if (req.cbr) {
        // A fallback/overlap CBR refresh restored this row; if the
        // counters are live they must learn about it.
        if (countersActive_) {
            counters_->reset(counterIndex(req.rank, req.bank, req.row));
            SMARTREF_TRACE(TraceCategory::Counter, eq_.now(),
                           "counterReset.cbr", req.rank, req.bank,
                           req.row);
        }
        return;
    }
    bus_.recordAccesses(1);
    pending_.markIssued(req);
}

bool
SmartRefreshPolicy::refreshStillNeeded(const RefreshRequest &req,
                                       bool rowCurrentlyOpen) const
{
    (void)req;
    // An open row's charge is in the sense amplifiers and will be
    // restored by the eventual precharge (the idle-precharge timer
    // bounds how long that takes, and the retention tracker does not
    // age open rows), so a DARP-held refresh to it is redundant: the
    // close notification resets the row's counter. A closed row keeps
    // its expired counter, so the refresh must still issue.
    return !rowCurrentlyOpen;
}

void
SmartRefreshPolicy::onRefreshCancelled(const RefreshRequest &req)
{
    // Retire the pending-queue entry exactly as an issue would; the
    // row's restore is carried by the upcoming precharge instead.
    pending_.markIssued(req);
    ++cancelledWhileHeld_;
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "smartCancelled",
                   req.rank, req.bank, req.row);
}

double
SmartRefreshPolicy::overheadEnergy() const
{
    return bus_.totalEnergy() +
           sram_.energyFor(counters_->sramReads(),
                           counters_->sramWrites());
}

void
SmartRefreshPolicy::setHeatmap(RefreshHeatmap *heatmap)
{
    if (heatmap) {
        SMARTREF_ASSERT(heatmap->segments() >= cfg_.segments &&
                            heatmap->counterMax() >= counters_->maxValue(),
                        "heatmap shape (", heatmap->segments(), " segments, "
                        "counterMax ", heatmap->counterMax(),
                        ") too small for policy (", cfg_.segments,
                        " segments, counterMax ",
                        unsigned(counters_->maxValue()), ")");
    }
    counters_->setHeatmap(heatmap);
}

void
SmartRefreshPolicy::setAudit(RefreshAudit *audit)
{
    audit_ = audit;
    counters_->setAudit(audit, &eq_, org_.banks, org_.rows);
}

void
SmartRefreshPolicy::syncEnergyStats()
{
    const std::uint64_t reads = counters_->sramReads();
    const std::uint64_t writes = counters_->sramWrites();
    sram_.recordTraffic(reads - syncedReads_, writes - syncedWrites_);
    syncedReads_ = reads;
    syncedWrites_ = writes;
}

} // namespace smartref
