#include "sim/metrics.hh"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

#include "sim/json_writer.hh"
#include "sim/provenance.hh"

namespace smartref {

namespace {

/** Locale-independent shortest-round-trip double, like sweep.cc. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, ptr);
}

} // namespace

void
MetricHistogram::observe(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
}

std::uint64_t
MetricHistogram::min() const
{
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
}

std::uint64_t
MetricHistogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::bucketCount(int k) const
{
    if (k < 0 || k >= kBuckets)
        return 0;
    return buckets_[k].load(std::memory_order_relaxed);
}

double
MetricHistogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const std::uint64_t target =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
    std::uint64_t cum = 0;
    for (int k = 0; k < kBuckets; ++k) {
        cum += bucketCount(k);
        if (cum >= target && cum > 0) {
            // Bucket k covers [2^(k-1), 2^k); estimate with the
            // midpoint, clamped to the observed extremes.
            double estimate = 0.0;
            if (k > 0) {
                const double lo = std::ldexp(1.0, k - 1);
                const double hi = std::ldexp(1.0, k);
                estimate = (lo + hi) / 2.0;
            }
            const double lo = static_cast<double>(min());
            const double hi = static_cast<double>(max());
            if (estimate < lo)
                estimate = lo;
            if (estimate > hi)
                estimate = hi;
            return estimate;
        }
    }
    return static_cast<double>(max());
}

void
MetricHistogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry()
    : start_(std::chrono::steady_clock::now())
{
}

MetricCounter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>();
    return *slot;
}

MetricGauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>();
    return *slot;
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>();
    return *slot;
}

double
MetricsRegistry::uptimeSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    RunMeta meta;
    meta.schema = "smartref-metrics-v1";
    meta.peakRssBytes = currentPeakRssBytes();

    std::lock_guard<std::mutex> lock(mu_);
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    os << "{\"schema\":\"smartref-metrics-v1\"";
    os << ",\"meta\":" << metaJson(meta);
    os << ",\"uptimeSeconds\":" << num(uptime);
    os << ",\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":"
           << c->value();
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":"
           << num(g->value());
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        os << (first ? "" : ",") << jsonQuoted(name) << ":{"
           << "\"count\":" << h->count() << ",\"sum\":" << h->sum()
           << ",\"min\":" << h->min() << ",\"max\":" << h->max()
           << ",\"p50\":" << num(h->quantile(0.50))
           << ",\"p95\":" << num(h->quantile(0.95))
           << ",\"p99\":" << num(h->quantile(0.99)) << "}";
        first = false;
    }
    os << "}}";
}

std::string
MetricsRegistry::snapshotJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
    start_ = std::chrono::steady_clock::now();
}

MetricsRegistry &
globalMetrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace smartref
