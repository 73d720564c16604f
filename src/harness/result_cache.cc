#include "harness/result_cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/mini_json.hh"
#include "sim/provenance.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace fs = std::filesystem;

namespace smartref {

namespace {

constexpr const char *kEntrySchema = "smartref-result-cache-v1";

long
processId()
{
#if defined(__unix__) || defined(__APPLE__)
    return static_cast<long>(::getpid());
#else
    return 0;
#endif
}


} // namespace

std::string
jobCacheCanonical(const SweepJob &job, const SweepRunOptions &opts)
{
    // Canonical textual identity of everything that shapes this job's
    // deterministic result. Execution-only knobs (jobs, shardJobs,
    // telemetry/heatmap sinks, progress, logLevel, the cache
    // itself) never change the result, so they must not appear here.
    std::ostringstream oss;
    oss << kEntrySchema << ";build{" << buildFingerprint() << "}"
        << ";" << pointKey(job.point) << ";seed=" << job.seed
        << ";warmupMs=" << opts.warmup / kMillisecond
        << ";measureMs=" << opts.measure / kMillisecond
        << ";segments=" << opts.segments
        << ";autoReconfigure=" << (opts.autoReconfigure ? 1 : 0);
    // Mirror sweepConfigHash's asymmetry: the sparse counter array is a
    // semantic axis, but only contributes once switched on, so every
    // historical (dense) key stays stable.
    if (opts.sparseCounters)
        oss << ";sparse=1";
    return oss.str();
}

ResultCacheKey
resultCacheKey(const SweepJob &job, const SweepRunOptions &opts)
{
    ResultCacheKey key;
    key.canonical = jobCacheCanonical(job, opts);
    key.hex = hex64(fnv1a64(key.canonical));
    return key;
}

ResultCache::ResultCache(const std::string &dir) : dir_(dir)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        SMARTREF_FATAL("cannot create cache directory '", dir_, "': ",
                       ec.message());
}

std::string
ResultCache::entryPath(const std::string &hex) const
{
    SMARTREF_ASSERT(hex.size() == 16, "bad cache key '", hex, "'");
    return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".json";
}

std::string
ResultCache::comparisonJson(const ComparisonResult &c)
{
    std::ostringstream oss;
    oss << "{\"benchmark\":" << jsonQuoted(c.benchmark)
        << ",\"suite\":" << jsonQuoted(c.suite) << ",\"baseline\":";
    writeRunResultJson(oss, c.baseline);
    oss << ",\"smart\":";
    writeRunResultJson(oss, c.smart);
    oss << "}";
    return oss.str();
}

bool
ResultCache::lookup(const ResultCacheKey &key, SweepJobResult &out)
{
    const auto text = minijson::readFile(entryPath(key.hex));
    if (!text) {
        SMARTREF_METRIC_INC("result_cache.miss_absent");
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.misses;
        return false;
    }
    // Any defect — truncation, garbage, wrong schema, a key collision
    // on the file name — downgrades to a miss; the recompute will
    // overwrite the bad entry.
    // Both defect classes land in the `corrupt` stat (that field's
    // contract predates the metrics layer); only the metrics counters
    // tell schema drift apart from truncation/garbage.
    const char *missCause = "result_cache.miss_corrupt";
    try {
        const minijson::Value root = minijson::parse(*text);
        if (root.at("schema").str != kEntrySchema) {
            missCause = "result_cache.miss_schema";
            throw std::runtime_error("schema mismatch");
        }
        if (root.at("key").str != key.hex ||
            root.at("canonical").str != key.canonical)
            throw std::runtime_error("key mismatch");
        SweepJobResult r;
        const minijson::Value &cmp = root.at("comparison");
        if (!cmp.at("benchmark").isString() || !cmp.at("suite").isString())
            throw std::runtime_error("mistyped comparison");
        r.comparison.benchmark = cmp.at("benchmark").str;
        r.comparison.suite = cmp.at("suite").str;
        r.comparison.baseline = runResultFromJson(cmp.at("baseline"));
        r.comparison.smart = runResultFromJson(cmp.at("smart"));
        r.cached = true;
        out = std::move(r);
    } catch (const std::exception &) {
        // missCause is a variable, so resolve the handle explicitly
        // rather than through the literal-name macro.
        globalMetrics().counter(missCause).add(1);
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.misses;
        ++stats_.corrupt;
        return false;
    }
    SMARTREF_METRIC_INC("result_cache.hits");
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.hits;
    return true;
}

void
ResultCache::store(const ResultCacheKey &key, const SweepJob &job,
                   const SweepJobResult &result)
{
    const std::string path = entryPath(key.hex);
    const fs::path dir = fs::path(path).parent_path();
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        SMARTREF_FATAL("cannot create cache directory '", dir.string(),
                       "': ", ec.message());

    std::ostringstream body;
    RunMeta meta;
    meta.schema = kEntrySchema;
    meta.configHash = key.hex;
    const auto &p = job.point;
    body << "{\"schema\":\"" << kEntrySchema << "\""
         << ",\"key\":\"" << key.hex << "\""
         << ",\"canonical\":" << jsonQuoted(key.canonical)
         << ",\"meta\":" << metaJson(meta)
         << ",\"point\":{\"config\":" << jsonQuoted(p.config)
         << ",\"benchmark\":" << jsonQuoted(p.benchmark)
         << ",\"policy\":" << jsonQuoted(p.policy)
         << ",\"counterBits\":" << p.counterBits
         << ",\"retentionMs\":" << p.retentionMs
         << ",\"parallelism\":" << jsonQuoted(p.parallelism) << "}"
         << ",\"seed\":\"" << job.seed << "\""
         << ",\"comparison\":" << comparisonJson(result.comparison)
         << "}\n";

    // Unique temp name per process + store: concurrent writers of the
    // same key each rename a complete blob; whichever lands last wins,
    // and both blobs are identical by the determinism contract anyway.
    std::uint64_t serial;
    {
        std::lock_guard<std::mutex> lk(mu_);
        serial = ++stats_.stores;
    }
    SMARTREF_METRIC_INC("result_cache.stores");
    SMARTREF_METRIC_ADD("result_cache.store_bytes", body.str().size());
    const std::string tmp = path + ".tmp." +
                            std::to_string(processId()) + "." +
                            std::to_string(serial);
    {
        std::ofstream outFile(tmp, std::ios::binary | std::ios::trunc);
        if (!outFile) {
            SMARTREF_WARN("cannot write cache entry '", tmp,
                          "'; result not cached");
            return;
        }
        outFile << body.str();
        if (!outFile.flush()) {
            SMARTREF_WARN("short write on cache entry '", tmp,
                          "'; result not cached");
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        SMARTREF_WARN("cannot publish cache entry '", path, "': ",
                      ec.message());
        fs::remove(tmp, ec);
    }
}

void
ResultCache::countVerified()
{
    SMARTREF_METRIC_INC("result_cache.verified");
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.verified;
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::string
ResultCache::defaultDir()
{
    if (const char *dir = std::getenv("SMARTREF_CACHE_DIR");
        dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/smartref";
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/smartref";
    return ".smartref-cache";
}

} // namespace smartref
