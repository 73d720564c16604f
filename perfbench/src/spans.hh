/**
 * @file
 * In-memory span log of the traced benchmark run.
 *
 * A span is one timed call into a layer of the simulator: its name
 * (the layer boundary, e.g. "sim.run" or "ctrl.access"), start and end
 * on the steady clock, the span that caused it, the job it belongs to
 * and the track (thread) it ran on. Spans are recorded from the
 * benchmark's own code around library calls, kept in memory and
 * written once, at the end of the run.
 *
 * Hot boundaries (every generated access) are sampled: SinkSampler
 * times a fixed 1-in-kSampleEvery of the calls and counts all of them;
 * each sampled span carries that weight, so weighted sums estimate the
 * boundary's total time without timing every call.
 *
 * Self time of a span is its duration minus what its children on the
 * same track cover (weighted). Children on other tracks ran in
 * parallel on worker threads and cover nothing of the parent's own
 * timeline, so the weighted self times of the tracks that start at a
 * root add up to that root's duration.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds since the clock's epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t start = 0;  ///< steady-clock ns
    std::int64_t end = 0;    ///< steady-clock ns
    int parent = -1;         ///< index in the log; -1 for a root
    int job = -1;            ///< job id (-1 = not part of a job)
    int track = 0;           ///< 0 = calling thread; workers get their own
    std::uint64_t weight = 1; ///< calls this span stands for

    std::int64_t duration() const { return end - start; }
};

/** Calls between two timed calls of a sampled boundary. */
constexpr std::uint64_t kSampleEvery = 64;

/**
 * Spans of one run. open()/close() nest on the calling thread; add()
 * appends finished spans recorded elsewhere (sampled calls, worker
 * tracks). Not thread-safe: each thread records into its own log and
 * absorb() merges them.
 */
class SpanLog
{
  public:
    /** Open a span as a child of the innermost open span. */
    int open(const std::string &name, int job = -1);

    /** Close the innermost open span, which must be `id`. */
    void close(int id);

    /** Innermost open span, or -1. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Append a finished span; returns its index. */
    int add(const Span &s);

    /**
     * Append every span of `other`, re-parenting its roots under
     * `parent` and moving them to `track`.
     */
    void absorb(const SpanLog &other, int parent, int track);

    const std::vector<Span> &spans() const { return spans_; }

    /** Weighted self time of span `i` in ns. */
    std::int64_t selfNs(std::size_t i) const;

    /**
     * Weighted self times of `root` and every span below it on the same
     * track; equals the root's duration in a log that validates.
     */
    std::int64_t trackSelfNs(int root) const;

    /** Sum of weighted self times per span name, in seconds. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Sum of weighted durations per span name, in seconds. */
    std::map<std::string, double> totalSecondsByName() const;

    /**
     * Structural check: no span is left open, every child lies inside
     * its parent, and children on the parent's track do not overlap.
     * Returns an empty string when the log is well formed.
     */
    std::string validate() const;

    /** Chrome trace_event JSON (loads in Perfetto / chrome://tracing). */
    void writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<std::vector<int>> children_;
};

/** RAII span on a log that may be null (untraced runs record nothing). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name, int job = -1)
        : log_(log), id_(log ? log->open(name, job) : -1)
    {
    }
    ~ScopedSpan() { end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

    /** Close the span before the end of its scope. */
    void
    end()
    {
        if (log_)
            log_->close(id_);
        log_ = nullptr;
    }

  private:
    SpanLog *log_;
    int id_;
};

/**
 * Counts every call through one boundary and times 1 in kSampleEvery
 * of them. One sampler serves one sink, which runs on one thread at a
 * time; `parent` points at the span the calls belong to (the enclosing
 * sim.run), updated by the coordinating thread between runs.
 *
 * `Now` is the time source; tests substitute a synthetic clock.
 */
template <typename Now = decltype(&nowNs)>
class SinkSampler
{
  public:
    SinkSampler(std::string name, int job, int track, const int *parent,
                Now now = &nowNs)
        : name_(std::move(name)), job_(job), track_(track),
          parent_(parent), now_(now)
    {
    }

    template <typename Fn>
    void
    call(Fn &&fn)
    {
        if (++calls_ % kSampleEvery != 0) {
            fn();
            return;
        }
        const std::int64_t t0 = now_();
        fn();
        const std::int64_t t1 = now_();
        Span s;
        s.name = name_;
        s.start = t0;
        s.end = t1;
        s.parent = *parent_;
        s.job = job_;
        s.track = track_;
        s.weight = kSampleEvery;
        sampled_.push_back(std::move(s));
    }

    std::uint64_t calls() const { return calls_; }
    const std::vector<Span> &sampled() const { return sampled_; }

    /** Estimated total ns over all calls: mean sampled cost x calls. */
    double
    estimatedNs() const
    {
        if (sampled_.empty())
            return 0.0;
        double sum = 0.0;
        for (const Span &s : sampled_)
            sum += static_cast<double>(s.duration());
        return sum / static_cast<double>(sampled_.size()) *
               static_cast<double>(calls_);
    }

  private:
    std::string name_;
    int job_;
    int track_;
    const int *parent_;
    Now now_;
    std::uint64_t calls_ = 0;
    std::vector<Span> sampled_;
};

} // namespace perfbench
