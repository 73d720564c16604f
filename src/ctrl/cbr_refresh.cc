#include "ctrl/cbr_refresh.hh"

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

CbrRefreshPolicy::CbrRefreshPolicy(EventQueue &eq, StatGroup *parent)
    : RefreshPolicy("refresh.cbr", parent),
      eq_(eq),
      requested_(this, "requested", "CBR refreshes requested")
{
}

void
CbrRefreshPolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    spacing_ = ctrl_->dram().config().refreshSpacing();
    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
CbrRefreshPolicy::step()
{
    RefreshRequest req;
    req.rank = nextRank_;
    req.cbr = true;
    req.created = eq_.now();
    nextRank_ = (nextRank_ + 1) % ctrl_->dram().config().org.ranks;
    ++requested_;
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "cbrRequested",
                   req.rank);
    ctrl_->pushRefresh(req);

    eq_.scheduleAfter(spacing_, [this] { step(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

} // namespace smartref
