#include "ctrl/retention_aware_refresh.hh"

#include "ctrl/refresh_audit.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

RetentionAwarePolicy::RetentionAwarePolicy(
    EventQueue &eq, std::shared_ptr<const RetentionClassMap> classes,
    const BusEnergyParams &busParams, StatGroup *parent)
    : RefreshPolicy("refresh.retentionAware", parent),
      eq_(eq),
      classes_(std::move(classes)),
      bus_(busParams, this),
      requested_(this, "requested", "refreshes requested"),
      skipped_(this, "visitsSkipped",
               "walk visits skipped because the class deadline was far")
{
    SMARTREF_ASSERT(classes_ != nullptr, "needs a retention class map");
}

void
RetentionAwarePolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    const DramConfig &cfg = ctrl_->dram().config();
    SMARTREF_ASSERT(classes_->totalRows() == cfg.org.totalRows(),
                    "class map sized for ", classes_->totalRows(),
                    " rows, module has ", cfg.org.totalRows());
    spacing_ = cfg.refreshSpacing();
    retention_ = cfg.timing.retention;
    due_.assign(cfg.org.totalRows(), 0); // first pass refreshes all
    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
RetentionAwarePolicy::step()
{
    const auto &org = ctrl_->dram().config().org;
    const std::uint64_t idx = walkIndex_++;

    const auto rank = static_cast<std::uint32_t>(idx % org.ranks);
    const auto bank =
        static_cast<std::uint32_t>((idx / org.ranks) % org.banks);
    const auto row = static_cast<std::uint32_t>(
        (idx / (std::uint64_t(org.ranks) * org.banks)) % org.rows);
    const std::uint64_t flat =
        (std::uint64_t(rank) * org.banks + bank) * org.rows + row;

    if (eq_.now() >= due_[flat]) {
        // Refresh now; the next one is due so that the (exactly once
        // per nominal interval) walk lands on the m-th visit, putting
        // the refresh age exactly at the class deadline m x nominal.
        const std::uint32_t mult = classes_->multiplier(flat);
        due_[flat] = eq_.now() + Tick(mult) * retention_ - retention_ / 2;
        RefreshRequest req;
        req.rank = rank;
        req.bank = bank;
        req.row = row;
        req.cbr = false;
        req.created = eq_.now();
        ++requested_;
        SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(),
                       "retentionAwareRequested", rank, bank, row, mult);
        ctrl_->pushRefresh(req);
    } else {
        ++skipped_;
        SMARTREF_AUDIT_RECORD(audit_, eq_.now(), rank, bank, row,
                              AuditOutcome::SkippedRecentAccess,
                              AuditSource::RetentionAware);
        SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(),
                       "retentionAwareSkipped", rank, bank, row);
    }

    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
RetentionAwarePolicy::onRefreshIssued(const RefreshRequest &req)
{
    if (!req.cbr)
        bus_.recordAccesses(1);
}

} // namespace smartref
