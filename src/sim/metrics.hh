/**
 * @file
 * Process metrics: a process-wide registry of named counters, gauges
 * and log2-bucketed histograms with lock-free atomic updates.
 *
 * Where the tracer (sim/tracer.hh) answers "what happened inside one
 * simulated run" and the sweep telemetry answers "how is this sweep
 * progressing", the metrics registry answers the process-wide
 * question: cumulative cache hit rates, thread-pool utilization and
 * per-job wall distributions across *every* run this process has
 * executed. smartref_sweep dumps it via `--metrics-out`.
 *
 * Contract mirrored from `peakRssBytes`: every metrics output is a
 * non-deterministic sidecar and must never be embedded in
 * deterministic aggregates (sweep JSON/CSV, stats dumps, cache
 * entries). CI pins this by comparing smoke-sweep bytes with and
 * without a `--metrics-out` snapshot.
 *
 * Update cost: one relaxed atomic RMW per counter add, two per
 * histogram observe (plus CAS loops for min/max on new extremes).
 * Instrumented call sites go through the SMARTREF_METRIC_* macros and
 * fire once per epoch, pool task, sweep job or cache operation, never
 * per simulated event (tests/test_sharded.cpp pins the fan-out).
 *
 * The registry never deletes an instrument: references returned by
 * counter()/gauge()/histogram() stay valid for the process lifetime,
 * and reset() zeroes values in place, so call sites may cache handles
 * in function-local statics.
 */

#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace smartref {

/** Monotonically increasing event count. */
class MetricCounter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (e.g. queue depth). */
class MetricGauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution of non-negative integer samples (durations in us/ns,
 * sizes in bytes) over power-of-two buckets: sample v lands in bucket
 * bit_width(v), so bucket k covers [2^(k-1), 2^k). 65 buckets span
 * the full uint64 range. Percentiles are estimated from the bucket
 * counts (geometric bucket midpoints, clamped to observed min/max),
 * so they are accurate to within one octave — plenty for "where is
 * the wall time going" questions, at the cost of two relaxed RMWs
 * per observe.
 */
class MetricHistogram
{
  public:
    static constexpr int kBuckets = 65;

    void observe(std::uint64_t v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    /** Smallest observed sample; 0 when empty. */
    std::uint64_t min() const;
    /** Largest observed sample; 0 when empty. */
    std::uint64_t max() const;
    /** Count in bucket k (samples with bit_width == k). */
    std::uint64_t bucketCount(int k) const;
    /** Estimated quantile in [0,1]; 0 when empty. */
    double quantile(double q) const;

    void reset();

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/**
 * Named instruments, one namespace per kind. Lookup takes a mutex;
 * updates through the returned reference are lock-free, so hot paths
 * resolve the handle once (function-local static) and only ever pay
 * the atomic RMW.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    /** Find-or-create; the reference stays valid forever. */
    MetricCounter &counter(const std::string &name);
    MetricGauge &gauge(const std::string &name);
    MetricHistogram &histogram(const std::string &name);

    /** Seconds since this registry was constructed (steady clock). */
    double uptimeSeconds() const;

    /**
     * Compact JSON snapshot (schema "smartref-metrics-v1"): meta
     * block, uptimeSeconds, then counters/gauges/histograms keyed by
     * name in sorted order. Histograms carry count/sum/min/max and
     * estimated p50/p95/p99.
     */
    void writeJson(std::ostream &os) const;
    std::string snapshotJson() const;

    /**
     * Zero every instrument in place (handles stay valid) and restart
     * the uptime clock. Test-only: snapshots assume counters are
     * cumulative.
     */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
    std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;
    std::chrono::steady_clock::time_point start_;
};

/** The process-wide registry the SMARTREF_METRIC_* macros update. */
MetricsRegistry &globalMetrics();

/** Add `n` to the process-wide counter `name`. */
#define SMARTREF_METRIC_ADD(name, n)                                         \
    do {                                                                     \
        static ::smartref::MetricCounter &smartrefMetricHandle_ =            \
            ::smartref::globalMetrics().counter(name);                       \
        smartrefMetricHandle_.add(static_cast<std::uint64_t>(n));            \
    } while (0)

/** Bump the process-wide counter `name` by one. */
#define SMARTREF_METRIC_INC(name) SMARTREF_METRIC_ADD(name, 1)

/** Set the process-wide gauge `name`. */
#define SMARTREF_METRIC_SET(name, v)                                         \
    do {                                                                     \
        static ::smartref::MetricGauge &smartrefMetricHandle_ =              \
            ::smartref::globalMetrics().gauge(name);                         \
        smartrefMetricHandle_.set(static_cast<double>(v));                   \
    } while (0)

/** Record a sample into the process-wide histogram `name`. */
#define SMARTREF_METRIC_OBSERVE(name, v)                                     \
    do {                                                                     \
        static ::smartref::MetricHistogram &smartrefMetricHandle_ =          \
            ::smartref::globalMetrics().histogram(name);                     \
        smartrefMetricHandle_.observe(static_cast<std::uint64_t>(v));        \
    } while (0)

} // namespace smartref
