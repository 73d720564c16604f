#include "ctrl/ras_only_refresh.hh"

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

RasOnlyRefreshPolicy::RasOnlyRefreshPolicy(EventQueue &eq,
                                           const BusEnergyParams &busParams,
                                           StatGroup *parent)
    : RefreshPolicy("refresh.rasonly", parent),
      eq_(eq),
      bus_(busParams, this),
      requested_(this, "requested", "RAS-only refreshes requested")
{
}

void
RasOnlyRefreshPolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    spacing_ = ctrl_->dram().config().refreshSpacing();
    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
RasOnlyRefreshPolicy::step()
{
    const auto &org = ctrl_->dram().config().org;
    const std::uint64_t idx = walkIndex_++;

    RefreshRequest req;
    // Walk ranks fastest, then banks, so consecutive refreshes spread
    // across independent resources.
    req.rank = static_cast<std::uint32_t>(idx % org.ranks);
    req.bank = static_cast<std::uint32_t>((idx / org.ranks) % org.banks);
    req.row = static_cast<std::uint32_t>(
        (idx / (std::uint64_t(org.ranks) * org.banks)) % org.rows);
    req.cbr = false;
    req.created = eq_.now();
    ++requested_;
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "rasOnlyRequested",
                   req.rank, req.bank, req.row);
    ctrl_->pushRefresh(req);

    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
RasOnlyRefreshPolicy::onRefreshIssued(const RefreshRequest &req)
{
    if (!req.cbr)
        bus_.recordAccesses(1);
}

} // namespace smartref
