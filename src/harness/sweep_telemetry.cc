#include "harness/sweep_telemetry.hh"

#include <cmath>
#include <ostream>
#include <sstream>

#include "harness/result_cache.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace smartref {

SweepTelemetry::SweepTelemetry(const std::string &path)
    : start_(std::chrono::steady_clock::now()), file_(path), os_(&file_)
{
    if (!file_)
        SMARTREF_FATAL("cannot write telemetry stream '", path, "'");
}

SweepTelemetry::SweepTelemetry(std::ostream &os)
    : start_(std::chrono::steady_clock::now()), os_(&os)
{
}

double
SweepTelemetry::elapsed() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
SweepTelemetry::emitLine(const std::string &line)
{
    std::lock_guard<std::mutex> lk(mu_);
    *os_ << line << '\n';
    os_->flush(); // line-by-line so `tail -f` follows a live sweep
}

void
SweepTelemetry::sweepStart(const std::string &gridName,
                           std::size_t jobCount, unsigned workers,
                           const std::string &metaJson)
{
    std::ostringstream line;
    line << "{\"event\":\"sweep_start\",\"t\":" << jsonNumber(elapsed())
         << ",\"grid\":" << jsonQuoted(gridName)
         << ",\"jobs\":" << jobCount << ",\"workers\":" << workers;
    if (!metaJson.empty())
        line << ",\"meta\":" << metaJson;
    line << "}";
    {
        std::lock_guard<std::mutex> lk(mu_);
        jobCount_ = jobCount;
        finished_ = 0;
    }
    emitLine(line.str());
}

void
SweepTelemetry::jobStart(const SweepJob &job)
{
    std::ostringstream line;
    line << "{\"event\":\"job_start\",\"t\":" << jsonNumber(elapsed())
         << ",\"index\":" << job.index
         << ",\"point\":" << jsonQuoted(pointKey(job.point)) << "}";
    emitLine(line.str());
}

void
SweepTelemetry::jobFinish(const SweepJobResult &result)
{
    const std::uint64_t events =
        result.comparison.baseline.eventsExecuted +
        result.comparison.smart.eventsExecuted;
    const double perSec = result.wallSeconds > 0.0
                              ? static_cast<double>(events) /
                                    result.wallSeconds
                              : 0.0;
    // The ETA derives from this sink's own completion count; the stream
    // time base and count update under the same lock as the write so
    // concurrent finishers see monotone (done, t) pairs.
    std::lock_guard<std::mutex> lk(mu_);
    ++finished_;
    const double t = elapsed();
    // First sample lands at t == 0 on coarse clocks and a full sweep
    // can outrun the job count bookkeeping in tests; both would make
    // the naive remaining/rate estimate inf or NaN — emit null instead.
    std::string eta = "null";
    if (t > 0.0 && jobCount_ >= finished_) {
        const double rate = static_cast<double>(finished_) / t;
        const double remaining =
            static_cast<double>(jobCount_ - finished_) / rate;
        if (std::isfinite(remaining))
            eta = jsonNumber(remaining);
    }
    std::ostringstream line;
    line << "{\"event\":\"job_finish\",\"t\":" << jsonNumber(t)
         << ",\"index\":" << result.job.index
         << ",\"point\":" << jsonQuoted(pointKey(result.job.point))
         << ",\"wallSeconds\":" << jsonNumber(result.wallSeconds)
         << ",\"events\":" << events
         << ",\"eventsPerSec\":" << jsonNumber(perSec)
         << ",\"eta_s\":" << eta
         << ",\"cached\":" << (result.cached ? "true" : "false")
         << ",\"peakRssKb\":" << peakRssKb() << "}";
    *os_ << line.str() << '\n';
    os_->flush(); // line-by-line so `tail -f` follows a live sweep
}

void
SweepTelemetry::sweepFinish(double wallSeconds,
                            const ThreadPool::Stats *pool,
                            const ResultCacheStats *cache)
{
    std::ostringstream line;
    line << "{\"event\":\"sweep_finish\",\"t\":" << jsonNumber(elapsed())
         << ",\"wallSeconds\":" << jsonNumber(wallSeconds)
         << ",\"peakRssKb\":" << peakRssKb();
    if (pool) {
        line << ",\"pool\":{\"localPops\":" << pool->localPops
             << ",\"externalPops\":" << pool->externalPops
             << ",\"steals\":" << pool->steals
             << ",\"idleWaits\":" << pool->idleWaits << "}";
    }
    if (cache) {
        line << ",\"cache\":{\"hits\":" << cache->hits
             << ",\"misses\":" << cache->misses
             << ",\"corrupt\":" << cache->corrupt
             << ",\"stores\":" << cache->stores
             << ",\"evictions\":" << cache->evictions
             << ",\"verified\":" << cache->verified << "}";
    }
    line << "}";
    emitLine(line.str());
}

long
SweepTelemetry::peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<long>(ru.ru_maxrss / 1024); // bytes on macOS
#else
    return ru.ru_maxrss; // kilobytes on Linux
#endif
#else
    return 0;
#endif
}

} // namespace smartref
