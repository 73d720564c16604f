#include "sim/interval_stats.hh"

#include <limits>
#include <ostream>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

IntervalStats::IntervalStats(EventQueue &eq, Tick period)
    : eq_(eq), period_(period)
{
    SMARTREF_ASSERT(period_ > 0, "interval period must be positive");
}

void
IntervalStats::addDelta(std::string name, Probe read)
{
    SMARTREF_ASSERT(!running_, "cannot add columns while sampling");
    SMARTREF_ASSERT(read != nullptr, "null probe for '", name, "'");
    columns_.push_back(name);
    cols_.push_back({std::move(name), std::move(read), true, 0.0});
}

void
IntervalStats::addGauge(std::string name, Probe read)
{
    SMARTREF_ASSERT(!running_, "cannot add columns while sampling");
    SMARTREF_ASSERT(read != nullptr, "null probe for '", name, "'");
    columns_.push_back(name);
    cols_.push_back({std::move(name), std::move(read), false, 0.0});
}

void
IntervalStats::start()
{
    SMARTREF_ASSERT(!running_, "sampler already started");
    running_ = true;
    intervalBegin_ = eq_.now();
    for (Column &c : cols_)
        if (c.delta)
            c.snapshot = c.read();
    scheduleNext();
}

void
IntervalStats::stop()
{
    running_ = false;
    ++generation_;
}

void
IntervalStats::finish()
{
    if (!running_)
        return;
    if (eq_.now() > intervalBegin_)
        sample();
    stop();
}

void
IntervalStats::scheduleNext()
{
    eq_.scheduleAfter(period_,
                      [this, gen = generation_] {
                          if (running_ && gen == generation_) {
                              sample();
                              scheduleNext();
                          }
                      },
                      EventPriority::Stats, EventKind::Window);
}

void
IntervalStats::sample()
{
    Sample row;
    row.begin = intervalBegin_;
    row.end = eq_.now();
    row.values.reserve(cols_.size());
    for (Column &c : cols_) {
        const double v = c.read();
        if (c.delta) {
            row.values.push_back(v - c.snapshot);
            c.snapshot = v; // the snapshot-and-reset step
        } else {
            row.values.push_back(v);
        }
        SMARTREF_TRACE_COUNTER(TraceCategory::Interval, row.end,
                               c.name.c_str(), row.values.back());
    }
    intervalBegin_ = row.end;
    samples_.push_back(std::move(row));
}

void
IntervalStats::writeCsv(std::ostream &os) const
{
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "begin_ms,end_ms";
    for (const auto &name : columns_)
        os << ',' << name;
    os << '\n';
    for (const Sample &s : samples_) {
        os << static_cast<double>(s.begin) / static_cast<double>(kMillisecond)
           << ','
           << static_cast<double>(s.end) / static_cast<double>(kMillisecond);
        for (double v : s.values)
            os << ',' << v;
        os << '\n';
    }
}

} // namespace smartref
