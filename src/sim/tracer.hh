/**
 * @file
 * Structured event tracing for the simulator.
 *
 * Components emit typed, timestamped events (DRAM commands, refreshes,
 * counter activity, activity-monitor transitions, row-buffer outcomes)
 * through the SMARTREF_TRACE macros. Events are filtered by a category
 * bitmask and streamed to pluggable sinks:
 *
 *  - ChromeTraceSink writes Chrome trace_event JSON, loadable in
 *    chrome://tracing and Perfetto (ui.perfetto.dev);
 *  - CsvTraceSink writes a compact one-line-per-event CSV timeline.
 *
 * The hot-path cost when tracing is off is a single branch on the
 * category mask.
 *
 * The simulator is single-threaded, so the tracer keeps no locks; the
 * process-wide instance returned by globalTracer() is what the macros
 * use, mirroring the logging module's global verbosity.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace smartref {

/** Event categories; a tracer filters on a bitmask of these. */
enum class TraceCategory : std::uint32_t {
    None = 0,
    Dram = 1u << 0,      ///< device commands (ACT/PRE/RD/WR/refresh)
    Refresh = 1u << 1,   ///< refresh requests and issues (CBR vs RAS-only)
    Counter = 1u << 2,   ///< counter resets, walk steps, expiries
    Monitor = 1u << 3,   ///< activity-monitor windows and mode switches
    RowBuffer = 1u << 4, ///< row-buffer hits / misses / conflicts
    Queue = 1u << 5,     ///< refresh-backlog and queue-depth counters
    Interval = 1u << 6,  ///< interval-stats samples
    All = (1u << 7) - 1,
};

/** Name of a single category ("dram", "refresh", ...). */
const char *toString(TraceCategory cat);

/**
 * Parse a comma-separated category list ("refresh,counter" or "all")
 * into a bitmask. Unknown names are fatal (bad user configuration).
 */
TraceCategory parseTraceCategories(const std::string &list);

/** How an event renders in the Chrome trace. */
enum class TracePhase : char {
    Instant = 'i', ///< a point in time
    Span = 'X',    ///< an operation with a duration
    Counter = 'C', ///< a sampled numeric track
};

/**
 * One trace event. Plain data; `name` and `detail` must point at
 * storage that outlives the tracer (string literals at every call site).
 */
struct TraceEvent
{
    Tick tick = 0;          ///< simulated time (ps)
    Tick duration = 0;      ///< span length (ps); only for TracePhase::Span
    TraceCategory cat = TraceCategory::None;
    TracePhase phase = TracePhase::Instant;
    const char *name = "";
    std::int32_t rank = -1; ///< -1 = not applicable
    std::int32_t bank = -1;
    std::int64_t row = -1;
    double value = 0.0;     ///< free-form numeric payload
    const char *detail = nullptr; ///< optional qualifier
};

/** Receives every event that passes the category filter. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceEvent &ev) = 0;
    /** Finalise the output (close JSON arrays, flush). Idempotent. */
    virtual void finish() {}
};

/**
 * Chrome trace_event JSON sink. Events become entries of the standard
 * {"traceEvents": [...]} envelope with ts/dur in microseconds; ranks map
 * to tids so per-rank activity lands on separate Perfetto tracks.
 */
class ChromeTraceSink : public TraceSink
{
  public:
    /** Write to a file; fatal when the path cannot be opened. */
    explicit ChromeTraceSink(const std::string &path);
    /** Write to a caller-owned stream (tests, benchmarks). */
    explicit ChromeTraceSink(std::ostream &os);
    ~ChromeTraceSink() override;

    void write(const TraceEvent &ev) override;
    void finish() override;

  private:
    std::unique_ptr<std::ostream> owned_;
    std::ostream *os_;
    bool first_ = true;
    bool finished_ = false;
};

/** Compact CSV timeline sink: one event per line. */
class CsvTraceSink : public TraceSink
{
  public:
    explicit CsvTraceSink(const std::string &path);
    explicit CsvTraceSink(std::ostream &os);
    ~CsvTraceSink() override;

    void write(const TraceEvent &ev) override;
    void finish() override;

  private:
    void writeHeader();

    std::unique_ptr<std::ostream> owned_;
    std::ostream *os_;
    bool finished_ = false;
};

/**
 * The event dispatcher. enabled() is the only call on the hot path;
 * everything else runs once per emitted event or once per run.
 */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True when `cat` is selected and at least one sink is attached. */
    bool
    enabled(TraceCategory cat) const
    {
        return (mask_ & static_cast<std::uint32_t>(cat)) != 0 &&
               !sinks_.empty();
    }

    /** Replace the category filter (default: All). */
    void
    setCategories(TraceCategory mask)
    {
        mask_ = static_cast<std::uint32_t>(mask);
    }

    TraceCategory
    categories() const
    {
        return static_cast<TraceCategory>(mask_);
    }

    void addSink(std::unique_ptr<TraceSink> sink);

    /** Finish and drop all sinks; also resets the filter to All. */
    void reset();

    /** Dispatch a fully-formed event (category already checked). */
    void emit(const TraceEvent &ev);

    /** Convenience emitter used by the SMARTREF_TRACE macro. */
    void
    emit(TraceCategory cat, Tick tick, const char *name,
         std::int32_t rank = -1, std::int32_t bank = -1,
         std::int64_t row = -1, double value = 0.0, Tick duration = 0,
         const char *detail = nullptr)
    {
        TraceEvent ev;
        ev.tick = tick;
        ev.duration = duration;
        ev.cat = cat;
        ev.phase = duration > 0 ? TracePhase::Span : TracePhase::Instant;
        ev.name = name;
        ev.rank = rank;
        ev.bank = bank;
        ev.row = row;
        ev.value = value;
        ev.detail = detail;
        emit(ev);
    }

    /** Convenience emitter for counter tracks. */
    void
    emitCounter(TraceCategory cat, Tick tick, const char *name,
                double value)
    {
        TraceEvent ev;
        ev.tick = tick;
        ev.cat = cat;
        ev.phase = TracePhase::Counter;
        ev.name = name;
        ev.value = value;
        emit(ev);
    }

    /** Call finish() on every sink (safe to call repeatedly). */
    void flush();

    /** Events dispatched to sinks so far. */
    std::uint64_t emitted() const { return emitted_; }

  private:
    std::uint32_t mask_ = static_cast<std::uint32_t>(TraceCategory::All);
    std::vector<std::unique_ptr<TraceSink>> sinks_;
    std::uint64_t emitted_ = 0;
};

namespace detail {
/** Constant-initialised, so reading it needs no init guard. */
extern constinit Tracer globalTracerInstance;
} // namespace detail

/** The process-wide tracer the SMARTREF_TRACE macros feed. */
inline Tracer &
globalTracer()
{
    return detail::globalTracerInstance;
}

/**
 * Emission macros. The argument list after the category forwards to
 * Tracer::emit(cat, tick, name, rank, bank, row, value, duration,
 * detail); trailing arguments are optional.
 */
#define SMARTREF_TRACE_ENABLED(cat) (::smartref::globalTracer().enabled(cat))
#define SMARTREF_TRACE(cat, ...)                                             \
    do {                                                                     \
        if (::smartref::globalTracer().enabled(cat))                         \
            ::smartref::globalTracer().emit((cat), __VA_ARGS__);             \
    } while (0)
#define SMARTREF_TRACE_COUNTER(cat, tick, name, value)                       \
    do {                                                                     \
        if (::smartref::globalTracer().enabled(cat))                         \
            ::smartref::globalTracer().emitCounter((cat), (tick), (name),    \
                                                   (value));                 \
    } while (0)

} // namespace smartref
