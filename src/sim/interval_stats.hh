/**
 * @file
 * Interval statistics: a periodic sampler driven off the event queue.
 *
 * Designated quantities are snapshotted every `period` ticks of
 * simulated time and reduced to one row per interval, producing the
 * time series (refreshes issued, energy, queue depth, ...) that
 * energy-over-time and refresh-dynamics plots need.
 *
 * Two column flavours:
 *  - delta columns wrap an accumulating source (a Scalar, an energy
 *    total): each interval reports the increment since the previous
 *    sample — the snapshot-and-reset semantics, implemented by
 *    resetting the sampler's snapshot rather than the statistic so the
 *    end-of-run totals stay intact;
 *  - gauge columns report the source's instantaneous value (backlog,
 *    pending-queue depth).
 *
 * Every sample also feeds the tracer as Chrome counter events (category
 * `interval`), so interval series show up as counter tracks right next
 * to the event timeline in Perfetto.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace smartref {

/** Periodic snapshot-and-reset sampler over an EventQueue. */
class IntervalStats
{
  public:
    /** Reads the current value of a sampled quantity. */
    using Probe = std::function<double()>;

    /** One per-interval row. */
    struct Sample
    {
        Tick begin = 0;
        Tick end = 0;
        std::vector<double> values; ///< one per column, column order
    };

    /**
     * @param eq     the event queue that drives sampling
     * @param period interval length in ticks (> 0)
     */
    IntervalStats(EventQueue &eq, Tick period);

    /** Add an accumulating source; rows report per-interval deltas. */
    void addDelta(std::string name, Probe read);

    /** Add an instantaneous source; rows report the sampled value. */
    void addGauge(std::string name, Probe read);

    /**
     * Take the base snapshot and schedule the first sample one period
     * from now. Call after all columns are registered.
     */
    void start();

    /** Stop sampling; already-collected rows remain readable. */
    void stop();

    /** Close the in-flight partial interval (end-of-run flush). */
    void finish();

    Tick period() const { return period_; }
    const std::vector<std::string> &columns() const { return columns_; }
    const std::vector<Sample> &samples() const { return samples_; }

    /** Write "begin_ms,end_ms,<column>..." rows. */
    void writeCsv(std::ostream &os) const;

  private:
    struct Column
    {
        std::string name;
        Probe read;
        bool delta; ///< false = gauge
        double snapshot = 0.0;
    };

    void scheduleNext();
    void sample();

    EventQueue &eq_;
    Tick period_;
    Tick intervalBegin_ = 0;
    bool running_ = false;
    std::uint64_t generation_ = 0; ///< stale scheduled samples no-op
    std::vector<Column> cols_;
    std::vector<std::string> columns_;
    std::vector<Sample> samples_;
};

} // namespace smartref
