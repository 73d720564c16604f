/**
 * @file
 * Live sweep telemetry: an NDJSON event stream (one JSON object per
 * line) describing how a sweep *executed* — per-job start/finish, wall
 * time, simulation events per second, peak RSS, thread-pool scheduling
 * counters.
 *
 * Telemetry is the explicitly non-deterministic side of the sweep
 * subsystem. Everything here (wall clocks, RSS, steal counts) varies
 * run to run, so none of it may ever leak into the deterministic
 * aggregates (sweep JSON/CSV, heatmaps); tests assert the aggregates
 * are byte-identical with and without a telemetry sink attached. The
 * stream is flushed line-by-line so `tail -f` of a running sweep works.
 */

#pragma once

#include <chrono>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>

#include "harness/sweep.hh"
#include "sim/thread_pool.hh"

namespace smartref {

struct ResultCacheStats;

/** Thread-safe NDJSON telemetry sink for one sweep run. */
class SweepTelemetry
{
  public:
    /** Stream to a file (fatal when unwritable). */
    explicit SweepTelemetry(const std::string &path);

    /** Stream to an existing ostream (tests; not owned). */
    explicit SweepTelemetry(std::ostream &os);

    SweepTelemetry(const SweepTelemetry &) = delete;
    SweepTelemetry &operator=(const SweepTelemetry &) = delete;

    /**
     * Emit the sweep_start event. `metaJson`, when non-empty, is a
     * complete JSON value (smartref::metaJson()) embedded verbatim so
     * the stream is attributable to a build.
     */
    void sweepStart(const std::string &gridName, std::size_t jobCount,
                    unsigned workers, const std::string &metaJson = "");

    /** Emit a job_start event (called from worker threads). */
    void jobStart(const SweepJob &job);

    /**
     * Emit a job_finish event with wall time, events/s, peak RSS, a
     * linear completion estimate (`eta_s`, JSON null until a finite
     * positive rate is observable — never inf/NaN) and whether the
     * result was served from the result cache.
     */
    void jobFinish(const SweepJobResult &result);

    /**
     * Emit the sweep_finish event. `pool` may be null (serial run);
     * when present its scheduling counters are included. `cache` may be
     * null (no result cache attached); when present its hit/miss/
     * corrupt/store/eviction/verified counters are included.
     */
    void sweepFinish(double wallSeconds, const ThreadPool::Stats *pool,
                     const ResultCacheStats *cache = nullptr);

    /**
     * Peak resident-set size of this process in KB (getrusage), or 0
     * where unsupported.
     */
    static long peakRssKb();

  private:
    void emitLine(const std::string &line);
    /** Seconds since construction (the stream's time base). */
    double elapsed() const;

    std::chrono::steady_clock::time_point start_;
    std::ofstream file_;
    std::ostream *os_;
    std::mutex mu_;
    /** From sweepStart; 0 until then (keeps eta_s null). */
    std::size_t jobCount_ = 0;
    std::size_t finished_ = 0;
};

} // namespace smartref
