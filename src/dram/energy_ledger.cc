#include "dram/energy_ledger.hh"

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace smartref {

namespace {

/** Mirror of the power model's tick-to-seconds conversion. */
double
seconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

const char *kStateNames[3] = {"powerDown", "prechargeStandby",
                              "activeStandby"};

} // namespace

std::uint64_t
ulpDistance(double a, double b)
{
    if (a == b)
        return 0;
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::uint64_t>::max();
    // Map the bit patterns onto a monotonic integer line so adjacent
    // doubles (of either sign) differ by exactly 1.
    auto key = [](double x) {
        std::int64_t i;
        std::memcpy(&i, &x, sizeof(i));
        return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
    };
    const std::int64_t ia = key(a);
    const std::int64_t ib = key(b);
    return ia > ib ? static_cast<std::uint64_t>(ia) -
                         static_cast<std::uint64_t>(ib)
                   : static_cast<std::uint64_t>(ib) -
                         static_cast<std::uint64_t>(ia);
}

EnergyLedger::EnergyLedger(Shape shape, Tick interval)
    : shape_(shape), interval_(interval)
{
    SMARTREF_ASSERT(shape_.ranks > 0 && shape_.banks > 0,
                    "ledger shape must be non-empty");
    SMARTREF_ASSERT(interval_ > 0, "ledger interval must be positive");
}

EnergyLedger::Interval &
EnergyLedger::intervalAt(Tick t)
{
    const std::size_t idx = static_cast<std::size_t>(t / interval_);
    while (intervals_.size() <= idx) {
        Interval iv;
        iv.cells.resize(std::size_t(shape_.ranks) * shape_.banks);
        iv.background.resize(shape_.ranks);
        intervals_.push_back(std::move(iv));
    }
    return intervals_[idx];
}

EnergyLedger::Cell &
EnergyLedger::cellAt(Tick t, std::uint32_t rank, std::uint32_t bank)
{
    SMARTREF_ASSERT(rank < shape_.ranks && bank < shape_.banks,
                    "ledger cell (", rank, ",", bank, ") out of shape");
    return intervalAt(t).cells[std::size_t(rank) * shape_.banks + bank];
}

void
EnergyLedger::onActivate(Tick now, std::uint32_t rank,
                         std::uint32_t bank, double joules)
{
    eAct_ = joules;
    totals_.act += joules;
    ++cellAt(now, rank, bank).acts;
}

void
EnergyLedger::onRead(Tick now, std::uint32_t rank, std::uint32_t bank,
                     double joules)
{
    eRead_ = joules;
    totals_.read += joules;
    ++cellAt(now, rank, bank).reads;
}

void
EnergyLedger::onWrite(Tick now, std::uint32_t rank, std::uint32_t bank,
                      double joules)
{
    eWrite_ = joules;
    totals_.write += joules;
    ++cellAt(now, rank, bank).writes;
}

void
EnergyLedger::onRefresh(Tick now, std::uint32_t rank, std::uint32_t bank,
                        bool bankWasOpen, double joules,
                        double openPenaltyJoules)
{
    eRefresh_ = joules;
    ePenalty_ = openPenaltyJoules;
    // Two separate additions, exactly as DramPowerModel::onRowRefresh
    // performs them, so the shadow total stays bit-identical.
    totals_.refresh += joules;
    Cell &cell = cellAt(now, rank, bank);
    if (bankWasOpen) {
        totals_.refresh += openPenaltyJoules;
        ++cell.refreshesOpen;
    } else {
        ++cell.refreshesClosed;
    }
}

void
EnergyLedger::onBackground(Tick from, Tick upTo, std::uint32_t rank,
                           RankPowerState state, double watts)
{
    SMARTREF_ASSERT(rank < shape_.ranks, "ledger rank out of shape");
    if (upTo <= from)
        return;
    watts_[static_cast<std::size_t>(state)] = watts;
    // One multiply-then-add per hook, mirroring accountBackground().
    totals_.background += watts * seconds(upTo - from);

    // Split the residency exactly across interval buckets.
    Tick cur = from;
    while (cur < upTo) {
        const Tick bucketEnd = (cur / interval_ + 1) * interval_;
        const Tick end = upTo < bucketEnd ? upTo : bucketEnd;
        intervalAt(cur)
            .background[rank]
            .ticks[static_cast<std::size_t>(state)] += end - cur;
        cur = end;
    }
}

void
EnergyLedger::setOverhead(double joules)
{
    totals_.overhead = joules;
}

void
EnergyLedger::setChannels(std::uint32_t channels)
{
    SMARTREF_ASSERT(channels > 0 && shape_.ranks % channels == 0,
                    "channel count must divide the merged rank axis");
    channels_ = channels;
}

void
EnergyLedger::absorbChannel(const EnergyLedger &src,
                            std::uint32_t rankOffset)
{
    SMARTREF_ASSERT(src.shape_.banks == shape_.banks,
                    "absorbing a ledger with a different bank count");
    SMARTREF_ASSERT(rankOffset + src.shape_.ranks <= shape_.ranks,
                    "channel rank window out of the merged shape");
    SMARTREF_ASSERT(src.interval_ == interval_,
                    "absorbing a ledger with a different interval");

    for (std::size_t idx = 0; idx < src.intervals_.size(); ++idx) {
        const Interval &from = src.intervals_[idx];
        // Materialize the destination interval (and everything before
        // it) through the same lazy-growth path the hooks use.
        Interval &to = intervalAt(Tick(idx) * interval_);
        for (std::uint32_t r = 0; r < src.shape_.ranks; ++r) {
            for (std::uint32_t b = 0; b < shape_.banks; ++b) {
                const Cell &c =
                    from.cells[std::size_t(r) * shape_.banks + b];
                Cell &d = to.cells[std::size_t(rankOffset + r) *
                                       shape_.banks +
                                   b];
                d.acts += c.acts;
                d.reads += c.reads;
                d.writes += c.writes;
                d.refreshesClosed += c.refreshesClosed;
                d.refreshesOpen += c.refreshesOpen;
            }
            for (std::size_t s = 0; s < 3; ++s) {
                to.background[rankOffset + r].ticks[s] +=
                    from.background[r].ticks[s];
            }
        }
    }

    totals_.act += src.totals_.act;
    totals_.read += src.totals_.read;
    totals_.write += src.totals_.write;
    totals_.refresh += src.totals_.refresh;
    totals_.background += src.totals_.background;
    totals_.overhead += src.totals_.overhead;

    // Per-op energies and state powers are properties of the config,
    // identical across channels; adopt whatever the source learned.
    if (src.eAct_ != 0) eAct_ = src.eAct_;
    if (src.eRead_ != 0) eRead_ = src.eRead_;
    if (src.eWrite_ != 0) eWrite_ = src.eWrite_;
    if (src.eRefresh_ != 0) eRefresh_ = src.eRefresh_;
    if (src.ePenalty_ != 0) ePenalty_ = src.ePenalty_;
    for (std::size_t s = 0; s < 3; ++s)
        if (src.watts_[s] != 0) watts_[s] = src.watts_[s];
}

EnergyLedger::Cell
EnergyLedger::cellTotals() const
{
    Cell sum;
    for (const Interval &iv : intervals_) {
        for (const Cell &c : iv.cells) {
            sum.acts += c.acts;
            sum.reads += c.reads;
            sum.writes += c.writes;
            sum.refreshesClosed += c.refreshesClosed;
            sum.refreshesOpen += c.refreshesOpen;
        }
    }
    return sum;
}

ConservationReport
EnergyLedger::reconcile(const DramPowerModel &power, std::uint64_t acts,
                        std::uint64_t reads, std::uint64_t writes) const
{
    ConservationReport rep;
    auto fail = [&rep](std::string detail) {
        if (rep.pass) {
            rep.pass = false;
            rep.detail = std::move(detail);
        }
    };
    auto checkEnergy = [&](const char *name, double ledger,
                           double stat) {
        if (ulpDistance(ledger, stat) > 1) {
            std::ostringstream oss;
            oss.precision(std::numeric_limits<double>::max_digits10);
            oss << name << ": ledger " << ledger << " vs stat " << stat
                << " (" << ulpDistance(ledger, stat) << " ulp)";
            fail(oss.str());
        }
    };
    checkEnergy("actEnergy", totals_.act, power.activateEnergy());
    checkEnergy("readEnergy", totals_.read, power.readEnergy());
    checkEnergy("writeEnergy", totals_.write, power.writeEnergy());
    checkEnergy("refreshEnergy", totals_.refresh, power.refreshEnergy());
    checkEnergy("backgroundEnergy", totals_.background,
                power.backgroundEnergy());

    const Cell counts = cellTotals();
    auto checkCount = [&](const char *name, std::uint64_t ledger,
                          std::uint64_t stat) {
        if (ledger != stat) {
            std::ostringstream oss;
            oss << name << ": ledger " << ledger << " vs stat " << stat;
            fail(oss.str());
        }
    };
    checkCount("acts", counts.acts, acts);
    checkCount("reads", counts.reads, reads);
    checkCount("writes", counts.writes, writes);
    checkCount("refreshOpsClosed", counts.refreshesClosed,
               power.refreshOpsClosed());
    checkCount("refreshOpsOpen", counts.refreshesOpen,
               power.refreshOpsOpen());
    return rep;
}

void
EnergyLedger::writeJson(std::ostream &os,
                        const std::string &metaJson) const
{
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\"schema\":\"smartref-ledger-v1\"";
    if (!metaJson.empty())
        os << ",\n \"meta\":" << metaJson;
    // Single-channel artifacts keep the historical byte-exact shape;
    // merged multi-channel views additionally carry the channel axis.
    os << ",\n \"shape\":{\"ranks\":" << shape_.ranks
       << ",\"banks\":" << shape_.banks;
    if (channels_ > 1)
        os << ",\"channels\":" << channels_;
    os << "}"
       << ",\n \"interval_ps\":" << interval_
       << ",\n \"energyPerOp\":{\"act\":" << eAct_
       << ",\"read\":" << eRead_ << ",\"write\":" << eWrite_
       << ",\"refresh\":" << eRefresh_ << ",\"openPenalty\":" << ePenalty_
       << "}";
    os << ",\n \"backgroundWatts\":{";
    for (std::size_t s = 0; s < 3; ++s)
        os << (s ? "," : "") << "\"" << kStateNames[s]
           << "\":" << watts_[s];
    os << "}";
    const Totals &t = totals_;
    os << ",\n \"totals\":{\"actEnergy\":" << t.act
       << ",\"readEnergy\":" << t.read << ",\"writeEnergy\":" << t.write
       << ",\"refreshEnergy\":" << t.refresh
       << ",\"backgroundEnergy\":" << t.background
       << ",\"overheadEnergy\":" << t.overhead
       << ",\"totalEnergy\":" << t.total() << "}";
    const Cell counts = cellTotals();
    os << ",\n \"counts\":{\"acts\":" << counts.acts
       << ",\"reads\":" << counts.reads << ",\"writes\":" << counts.writes
       << ",\"refreshesClosed\":" << counts.refreshesClosed
       << ",\"refreshesOpen\":" << counts.refreshesOpen << "}";

    os << ",\n \"intervals\":[";
    bool firstIv = true;
    for (std::size_t idx = 0; idx < intervals_.size(); ++idx) {
        const Interval &iv = intervals_[idx];
        os << (firstIv ? "" : ",") << "\n  {\"index\":" << idx
           << ",\"t0_ps\":" << Tick(idx) * interval_
           << ",\"t1_ps\":" << Tick(idx + 1) * interval_
           << ",\"cells\":[";
        firstIv = false;
        bool firstCell = true;
        for (std::uint32_t r = 0; r < shape_.ranks; ++r) {
            for (std::uint32_t b = 0; b < shape_.banks; ++b) {
                const Cell &c =
                    iv.cells[std::size_t(r) * shape_.banks + b];
                const std::uint64_t refreshes =
                    c.refreshesClosed + c.refreshesOpen;
                if (c.acts + c.reads + c.writes + refreshes == 0)
                    continue; // keep the artifact compact
                os << (firstCell ? "" : ",") << "{";
                if (channels_ > 1) {
                    const std::uint32_t per = shape_.ranks / channels_;
                    os << "\"channel\":" << r / per << ",\"rank\":"
                       << r % per;
                } else {
                    os << "\"rank\":" << r;
                }
                os << ",\"bank\":" << b << ",\"acts\":" << c.acts
                   << ",\"reads\":" << c.reads
                   << ",\"writes\":" << c.writes
                   << ",\"refreshesClosed\":" << c.refreshesClosed
                   << ",\"refreshesOpen\":" << c.refreshesOpen
                   << ",\"energy\":{\"act\":"
                   << static_cast<double>(c.acts) * eAct_
                   << ",\"read\":" << static_cast<double>(c.reads) * eRead_
                   << ",\"write\":"
                   << static_cast<double>(c.writes) * eWrite_
                   << ",\"refresh\":"
                   << (static_cast<double>(refreshes) * eRefresh_ +
                       static_cast<double>(c.refreshesOpen) * ePenalty_)
                   << "}}";
                firstCell = false;
            }
        }
        os << "],\"background\":[";
        for (std::uint32_t r = 0; r < shape_.ranks; ++r) {
            const RankBackground &bg = iv.background[r];
            double joules = 0;
            os << (r ? "," : "") << "{";
            if (channels_ > 1) {
                const std::uint32_t per = shape_.ranks / channels_;
                os << "\"channel\":" << r / per << ",\"rank\":" << r % per;
            } else {
                os << "\"rank\":" << r;
            }
            os << ",\"ticks\":{";
            for (std::size_t s = 0; s < 3; ++s) {
                os << (s ? "," : "") << "\"" << kStateNames[s]
                   << "\":" << bg.ticks[s];
                joules += watts_[s] * seconds(bg.ticks[s]);
            }
            os << "},\"energy\":" << joules << "}";
        }
        os << "]}";
    }
    os << "\n]}\n";
}

void
EnergyLedger::writeCsv(std::ostream &out) const
{
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "interval,t0_ms,rank,bank,acts,reads,writes,"
           "refreshes_closed,refreshes_open,act_j,read_j,write_j,"
           "refresh_j\n";
    for (std::size_t idx = 0; idx < intervals_.size(); ++idx) {
        const Interval &iv = intervals_[idx];
        for (std::uint32_t r = 0; r < shape_.ranks; ++r) {
            for (std::uint32_t b = 0; b < shape_.banks; ++b) {
                const Cell &c =
                    iv.cells[std::size_t(r) * shape_.banks + b];
                const std::uint64_t refreshes =
                    c.refreshesClosed + c.refreshesOpen;
                if (c.acts + c.reads + c.writes + refreshes == 0)
                    continue;
                out << idx << ','
                    << static_cast<double>(Tick(idx) * interval_) /
                           static_cast<double>(kMillisecond)
                    << ',' << r << ',' << b << ',' << c.acts << ','
                    << c.reads << ',' << c.writes << ','
                    << c.refreshesClosed << ',' << c.refreshesOpen << ','
                    << static_cast<double>(c.acts) * eAct_ << ','
                    << static_cast<double>(c.reads) * eRead_ << ','
                    << static_cast<double>(c.writes) * eWrite_ << ','
                    << (static_cast<double>(refreshes) * eRefresh_ +
                        static_cast<double>(c.refreshesOpen) * ePenalty_)
                    << '\n';
            }
        }
    }
}

void
EnergyLedger::writeConservationCheckJson(
    std::ostream &out, const std::string &powerPrefix,
    const std::string &metaJson) const
{
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{\"schema\":\"smartref-ledger-check-v1\"";
    if (!metaJson.empty())
        out << ",\n \"meta\":" << metaJson;
    out << ",\n \"stats\":{";
    const Cell counts = cellTotals();
    bool first = true;
    auto stat = [&](const char *name, double v) {
        out << (first ? "" : ",") << "\n  \"" << powerPrefix << "."
            << name << "\":{\"value\":" << v << "}";
        first = false;
    };
    stat("actEnergy", totals_.act);
    stat("readEnergy", totals_.read);
    stat("writeEnergy", totals_.write);
    stat("refreshEnergy", totals_.refresh);
    stat("backgroundEnergy", totals_.background);
    stat("refreshOpsClosed",
         static_cast<double>(counts.refreshesClosed));
    stat("refreshOpsOpen", static_cast<double>(counts.refreshesOpen));
    out << "\n}}\n";
}

} // namespace smartref
