#include "ctrl/burst_refresh.hh"

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

BurstRefreshPolicy::BurstRefreshPolicy(EventQueue &eq, StatGroup *parent)
    : RefreshPolicy("refresh.burst", parent),
      eq_(eq),
      requested_(this, "requested", "burst refreshes requested")
{
}

void
BurstRefreshPolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    const Tick retention = ctrl_->dram().config().timing.retention;
    eq_.scheduleAfter(retention, [this] { burst(); },
                      EventPriority::ClockTick, EventKind::PolicyClock);
}

void
BurstRefreshPolicy::burst()
{
    const auto &org = ctrl_->dram().config().org;
    // One summary event per rank burst: per-request events would emit
    // banks*rows lines for a single instant.
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "burstRequested",
                   -1, -1, -1,
                   static_cast<double>(org.ranks) * org.banks * org.rows);
    for (std::uint32_t r = 0; r < org.ranks; ++r) {
        for (std::uint32_t n = 0; n < org.banks * org.rows; ++n) {
            RefreshRequest req;
            req.rank = r;
            req.cbr = true;
            req.created = eq_.now();
            ++requested_;
            ctrl_->pushRefresh(req);
        }
    }
    eq_.scheduleAfter(ctrl_->dram().config().timing.retention,
                      [this] { burst(); }, EventPriority::ClockTick,
                      EventKind::PolicyClock);
}

} // namespace smartref
