/**
 * @file
 * Content-addressed sweep result store — the storage layer of the
 * sweep subsystem (spec: harness/sweep_spec.hh, execution:
 * harness/sweep.hh).
 *
 * Every expanded grid point has a canonical simulation-semantic
 * identity string (jobCacheCanonical: build fingerprint + pointKey +
 * seed + the run options that change simulated results). Its FNV-1a
 * hash, as 16 lowercase hex digits, is the cache key; the finished
 * ComparisonResult lands under `<dir>/<hex[0:2]>/<hex>.json` as one
 * JSON blob. Because sweep aggregates are byte-identical for any
 * -j/-shard-jobs, a stored result is *the* result of that point — the
 * same memoization contract the paper applies in silicon (a refresh
 * whose work was already done by an access is skipped) lifted to the
 * experiment layer: never re-simulate a (config, seed, build)
 * point whose result already exists.
 *
 * Robustness contract:
 *  - writes go to a per-process temp file and are atomically renamed
 *    into place, so concurrent writers (smartref_sweep processes
 *    sharing one cache) can race on the same key and readers still
 *    only ever see complete entries;
 *  - a truncated, corrupt, schema-mismatched or key-mismatched entry
 *    is a miss (counted in stats().corrupt) and is overwritten by the
 *    recompute — never a crash;
 *  - eviction (pruneToBytes) drops least-recently-used entries first;
 *    lookups bump an entry's mtime so hot grid points survive.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace smartref {

/** A cache key: the canonical identity string and its hex64 hash. */
struct ResultCacheKey
{
    std::string canonical; ///< jobCacheCanonical(job, opts)
    std::string hex;       ///< hex64(fnv1a64(canonical))
};

/** Key of one job under the given run options. */
ResultCacheKey resultCacheKey(const SweepJob &job,
                              const SweepRunOptions &opts);

/** Hit/miss/store accounting of one ResultCache instance. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    ///< absent entries
    std::uint64_t corrupt = 0;   ///< present but unusable (also a miss)
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t verified = 0;  ///< hits re-simulated by --cache-verify
};

/**
 * One cache directory. All methods are thread-safe: the sweep runner
 * probes on the calling thread but stores from pool workers.
 */
class ResultCache
{
  public:
    /** Opens (and creates, if needed) the cache root directory. */
    explicit ResultCache(const std::string &dir);

    const std::string &dir() const { return dir_; }

    /**
     * Probe one key. On a valid entry: fills `out` (the caller must
     * re-stamp out.job with the grid-local job — the entry stores the
     * point/seed, not a grid index), bumps the entry's mtime, counts a
     * hit, returns true. Anything else — absent, truncated, corrupt,
     * wrong schema, wrong key — counts a miss and returns false.
     */
    bool lookup(const ResultCacheKey &key, SweepJobResult &out);

    /**
     * Store one finished job result under `key` via write-to-temp +
     * atomic rename. Heatmaps are not stored (they are per-run
     * observations, not the deterministic result).
     */
    void store(const ResultCacheKey &key, const SweepJob &job,
               const SweepJobResult &result);

    /**
     * Evict least-recently-used entries until the cache holds at most
     * `maxBytes` of entry blobs. Returns the number evicted.
     */
    std::uint64_t pruneToBytes(std::uint64_t maxBytes);

    /** Count a --cache-verify recompute (runSweep bookkeeping). */
    void countVerified();

    ResultCacheStats stats() const;

    /** Entry blob path of a full 16-hex key. */
    std::string entryPath(const std::string &hex) const;

    /**
     * All stored keys starting with `prefix` (lowercase hex), sorted.
     * The resolution primitive behind `smartref_statdiff cache:<key>`.
     */
    std::vector<std::string> matchPrefix(const std::string &prefix) const;

    /**
     * Default cache root: $SMARTREF_CACHE_DIR, else
     * $XDG_CACHE_HOME/smartref, else $HOME/.cache/smartref, else
     * ./.smartref-cache.
     */
    static std::string defaultDir();

    /**
     * Deterministic JSON of a comparison (both RunResults, full
     * precision) — the entry payload, and the equality witness
     * --cache-verify compares a hit against a fresh recompute with.
     */
    static std::string comparisonJson(const ComparisonResult &c);

  private:
    std::string dir_;
    mutable std::mutex mu_;
    ResultCacheStats stats_;
};

} // namespace smartref
