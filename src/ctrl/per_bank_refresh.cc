#include "ctrl/per_bank_refresh.hh"

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

PerBankRefreshPolicy::PerBankRefreshPolicy(
    EventQueue &eq, const BusEnergyParams &busParams, StatGroup *parent)
    : RefreshPolicy("refresh.perbank", parent),
      eq_(eq),
      bus_(busParams, this),
      requested_(this, "requested", "per-bank refreshes requested"),
      deadlineLagTicks_(this, "deadlineLagTicks",
                        "summed issue lag behind per-bank deadlines")
{
}

void
PerBankRefreshPolicy::start()
{
    SMARTREF_ASSERT(ctrl_ != nullptr, "policy not bound to a controller");
    const auto &cfg = ctrl_->dram().config();
    // Each bank refreshes its own rows over one retention interval.
    spacing_ = cfg.timing.retention / cfg.org.rows;

    const std::size_t nWalkers =
        std::size_t(cfg.org.ranks) * cfg.org.banks;
    walkers_.resize(nWalkers);
    // Stagger bank start offsets so the per-rank refresh slots
    // interleave instead of all banks refreshing in the same tick.
    const Tick offsetStep = spacing_ / nWalkers;
    for (std::uint32_t r = 0; r < cfg.org.ranks; ++r) {
        for (std::uint32_t b = 0; b < cfg.org.banks; ++b) {
            const std::size_t idx = std::size_t(r) * cfg.org.banks + b;
            BankWalker &w = walkers_[idx];
            w.rank = r;
            w.bank = b;
            w.nextRow = 0;
            w.nextDue = spacing_ + Tick(idx) * offsetStep;
            eq_.schedule(w.nextDue, [this, idx] { step(idx); },
                         EventPriority::ClockTick, EventKind::PolicyClock);
        }
    }
}

void
PerBankRefreshPolicy::step(std::size_t walkerIdx)
{
    BankWalker &w = walkers_[walkerIdx];
    const auto &org = ctrl_->dram().config().org;

    RefreshRequest req;
    req.rank = w.rank;
    req.bank = w.bank;
    req.row = w.nextRow;
    req.cbr = false;
    req.created = eq_.now();
    w.nextRow = (w.nextRow + 1) % org.rows;
    ++requested_;
    SMARTREF_TRACE(TraceCategory::Refresh, eq_.now(), "perBankRequested",
                   req.rank, req.bank, req.row);
    ctrl_->pushRefresh(req);

    w.nextDue += spacing_;
    eq_.schedule(w.nextDue, [this, walkerIdx] { step(walkerIdx); },
                 EventPriority::ClockTick, EventKind::PolicyClock);
}

void
PerBankRefreshPolicy::onRefreshIssued(const RefreshRequest &req)
{
    if (req.cbr)
        return;
    bus_.recordAccesses(1);
    // `created` is the request's nominal deadline slot (step() fires on
    // schedule even when issue slips), so issue lag is directly the
    // per-bank deadline slip.
    const Tick lag = eq_.now() - req.created;
    deadlineLagTicks_ += static_cast<double>(lag);
    if (lag > maxDeadlineLag_)
        maxDeadlineLag_ = lag;
}

} // namespace smartref
