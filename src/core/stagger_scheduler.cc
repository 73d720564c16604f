#include "core/stagger_scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

StaggerScheduler::StaggerScheduler(CounterArray &counters,
                                   std::uint32_t segments, Tick retention,
                                   std::uint32_t periodBits)
    : counters_(counters), segments_(segments)
{
    SMARTREF_ASSERT(segments > 0, "need at least one segment");
    SMARTREF_ASSERT(counters.size() % segments == 0,
                    "counters (", counters.size(),
                    ") must divide evenly into ", segments, " segments");
    if (periodBits == 0)
        periodBits = counters.bits();
    SMARTREF_ASSERT(periodBits <= counters.bits(),
                    "walk granularity finer than counter width");
    perSegment_ = counters.size() / segments;
    period_ = retention >> periodBits;
    SMARTREF_ASSERT(period_ > 0, "retention too short for counter width");
    stepInterval_ = period_ / perSegment_;
    SMARTREF_ASSERT(stepInterval_ > 0,
                    "too many counters per segment for the period");
}

void
StaggerScheduler::initialiseStaggered()
{
    // Spread expiry phases; never start above the row's reset value
    // (class deadlines must hold from the first interval). The array
    // owns the pattern so its sparse mode can express it as the
    // pristine closed form instead of writing every byte.
    counters_.resetToStaggeredPattern(segments_);
    position_ = 0;
}

void
StaggerScheduler::finishStep(Tick now, std::uint32_t expired)
{
    // Both only read when tracing is compiled in.
    (void)now;
    (void)expired;
    SMARTREF_TRACE(TraceCategory::Counter, now, "counterWalkStep", -1, -1,
                   static_cast<std::int64_t>(position_),
                   static_cast<double>(expired));
    position_ = (position_ + 1) % perSegment_;
    ++steps_;
}

} // namespace smartref
