/**
 * @file
 * The staggered segment countdown of paper Section 4.2 (Figure 3).
 *
 * The counter array is partitioned into N logical segments. At every
 * *step*, exactly one counter per segment is touched (N total), and the
 * step index advances so that each counter is touched exactly once per
 * *counter access period* P = retention / 2^bits. A touched counter at
 * zero is reset to max and a refresh is emitted; otherwise it decrements.
 *
 * This walk guarantees (a) at most N refreshes are generated per step —
 * which bounds the pending-refresh queue at the segment count — and
 * (b) the spacing between touches of one counter is exactly P, which is
 * what makes the Section 4.3 correctness argument hold.
 *
 * For the 2 GB module (131072 counters, 8 segments) each segment covers
 * exactly one (rank, bank) pair, so the N simultaneous refreshes land in
 * independent banks and proceed in parallel.
 *
 * When the CounterArray was built with an interleave factor equal to the
 * segment count, one step's N counters are physically adjacent bytes and
 * the walk runs over them contiguously (CounterArray::walkStep); with
 * any other layout it falls back to the strided per-counter loop. Both
 * paths touch the same logical counters in the same order.
 */

#pragma once

#include <cstdint>
#include <functional>

#include "core/counter_array.hh"
#include "sim/types.hh"

namespace smartref {

/** Walks a CounterArray in staggered segment order. */
class StaggerScheduler
{
  public:
    /**
     * A type-erased expiry callback, for callers that store one. step()
     * itself takes any callable and calls it directly.
     */
    using RefreshFn = std::function<void(std::uint64_t counterIndex)>;

    /**
     * @param counters  the array to walk (not owned)
     * @param segments  number of logical segments N (pending-queue size)
     * @param retention the (nominal) retention interval in ticks
     * @param periodBits granularity bits defining the counter access
     *        period P = retention / 2^periodBits; 0 means "use the
     *        counter width". The multi-rate extension stores wider
     *        counters than the walk granularity, so the two decouple.
     */
    StaggerScheduler(CounterArray &counters, std::uint32_t segments,
                     Tick retention, std::uint32_t periodBits = 0);

    /** Counter access period P = retention / 2^bits. */
    Tick counterAccessPeriod() const { return period_; }

    /** Interval between successive steps = P / countersPerSegment. */
    Tick stepInterval() const { return stepInterval_; }

    std::uint32_t segments() const { return segments_; }
    std::uint64_t countersPerSegment() const { return perSegment_; }

    /**
     * Apply the staggered initialisation of Figure 2(b)/3: counter at
     * in-segment position p starts at max - (p mod 2^bits), spreading
     * expiry times uniformly over the first retention interval. Also
     * rewinds the step position — call when (re-)enabling Smart Refresh.
     */
    void initialiseStaggered();

    /**
     * Execute one step: touch one counter in each segment, invoking
     * `refresh(counterIndex)` for every expired one (at most `segments`
     * calls). A template, so the walk calls the callback directly and
     * never wraps it in an allocating std::function.
     */
    template <typename Fn>
    void
    step(Fn &&refresh)
    {
        step(0, refresh);
    }

    /**
     * As above, with the current simulated time so the walk step can be
     * traced (category `counter`).
     */
    template <typename Fn>
    void
    step(Tick now, Fn &&refresh)
    {
        std::uint32_t expired = 0;
        if (counters_.interleave() == segments_) {
            // Interleaved layout: the step's counters are adjacent
            // bytes, touched in segment order (identical emission order
            // to the strided loop below) with the SRAM traffic billed
            // per step.
            counters_.walkStep(position_, [&](std::uint32_t s) {
                ++expired;
                refresh(std::uint64_t(s) * perSegment_ + position_);
            });
        } else {
            for (std::uint32_t s = 0; s < segments_; ++s) {
                const std::uint64_t idx =
                    std::uint64_t(s) * perSegment_ + position_;
                if (RefreshHeatmap *hm = counters_.heatmap())
                    hm->recordCounterTouch(s, counters_.peek(idx));
                if (counters_.touch(idx)) {
                    ++expired;
                    refresh(idx);
                }
            }
        }
        finishStep(now, expired);
    }

    /** Number of steps executed so far. */
    std::uint64_t stepsExecuted() const { return steps_; }

    /** In-segment position the next step will touch. */
    std::uint64_t position() const { return position_; }

  private:
    /** Trace the step and advance to the next position. */
    void finishStep(Tick now, std::uint32_t expired);

    CounterArray &counters_;
    std::uint32_t segments_;
    std::uint64_t perSegment_;
    Tick period_;
    Tick stepInterval_;
    std::uint64_t position_ = 0;
    std::uint64_t steps_ = 0;
};

} // namespace smartref
