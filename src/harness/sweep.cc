#include "harness/sweep.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "ctrl/bus_energy_model.hh"
#include "dram/refresh_parallelism.hh"
#include "harness/report.hh"
#include "harness/result_cache.hh"
#include "harness/sweep_telemetry.hh"
#include "harness/system.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"
#include "sim/thread_pool.hh"
#include "trace/benchmark_profiles.hh"

namespace smartref {

SweepJobResult
runSweepJob(const SweepJob &job, const SweepRunOptions &opts)
{
    const auto start = std::chrono::steady_clock::now();

    DramConfig dram = dramConfigByName(job.point.config);
    if (job.point.retentionMs > 0)
        dram.timing.retention = Tick(job.point.retentionMs) * kMillisecond;
    // Both runs of the comparison share the device mode: parallelism is
    // a property of the module under test, not of the policy.
    dram.parallelism = parallelismFromString(job.point.parallelism);

    ExperimentOptions eo;
    eo.warmup = opts.warmup;
    eo.measure = opts.measure;
    eo.counterBits = job.point.counterBits;
    eo.segments = opts.segments;
    eo.autoReconfigure = opts.autoReconfigure;
    eo.seed = job.seed;
    eo.logLevel = opts.logLevel;
    eo.checkConservation = opts.checkConservation;
    eo.shardJobs = opts.shardJobs;
    eo.sparseCounters = opts.sparseCounters;

    const BenchmarkProfile &profile = findProfile(job.point.benchmark);
    const PolicyKind policy = policyFromString(job.point.policy);

    SweepJobResult result;
    result.job = job;
    if (opts.collectHeatmaps) {
        // The heatmap observes the policy-under-test run only;
        // counterMax matches the policy's counter width so merged
        // groups — which share counterBits — always agree on shape.
        result.heatmap = std::make_shared<RefreshHeatmap>(
            dram.org.ranks, dram.org.banks, opts.segments,
            (1u << job.point.counterBits) - 1);
        eo.heatmap = result.heatmap.get();
    }
    if (policy == PolicyKind::RetentionAware) {
        // The retention-aware policy needs a per-row class map; derive
        // it from the job's coordinate seed so -j1 and -jN sweeps see
        // the same rows in the same classes.
        RetentionClassParams cp;
        cp.seed = job.seed;
        eo.retentionClasses = std::make_shared<const RetentionClassMap>(
            dram.org.totalRows(), cp);
    }
    // Larger modules spread each footprint over more rows than the 2 GB
    // calibration; the scale follows the row-buffer geometry
    // (absRowScaleFor), not the config's name, so new configs are never
    // silently unscaled.
    const bool threeD = isThreeDConfigName(job.point.config);
    result.comparison =
        comparePolicy(profile, dram, policy, threeD, eo,
                      threeD ? 1.0 : absRowScaleFor(dram.org));

    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

std::vector<SweepJobResult>
runSweep(const SweepGrid &grid, const SweepRunOptions &opts)
{
    const std::vector<SweepJob> jobs =
        expandGrid(grid, opts.baseSeed, opts.seedMode);
    std::vector<SweepJobResult> results(jobs.size());
    const auto sweepStart = std::chrono::steady_clock::now();
    std::mutex progressMu;
    std::size_t done = 0;
    const auto progressLine = [&](std::size_t i) {
        if (!opts.progress)
            return;
        std::lock_guard<std::mutex> lk(progressMu);
        ++done;
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - sweepStart)
                .count();
        // Naive linear ETA: remaining jobs at the observed mean
        // rate. Good enough for a ticker; never in aggregates.
        const double eta =
            elapsed / static_cast<double>(done) *
            static_cast<double>(jobs.size() - done);
        std::cerr << "  [" << done << "/" << jobs.size() << "] "
                  << pointKey(jobs[i].point) << " ["
                  << fmtPercent(
                         results[i].comparison.refreshReduction())
                  << ", "
                  << fmtDouble(results[i].wallSeconds, 1) << "s, eta "
                  << fmtDouble(eta, 1) << "s"
                  << (results[i].cached ? ", cached" : "") << "]"
                  << std::endl;
    };

    // Probe phase: serve hits from the result cache on the calling
    // thread, in grid order, before anything touches the thread pool.
    // Heatmap collection bypasses probing (entries carry no heatmap),
    // but finished jobs are still stored for later heatmap-less runs.
    std::vector<ResultCacheKey> keys;
    std::vector<char> hit;
    if (opts.cache) {
        keys.resize(jobs.size());
        hit.assign(jobs.size(), 0);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            keys[i] = resultCacheKey(jobs[i], opts);
        if (!opts.collectHeatmaps) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const auto probeStart = std::chrono::steady_clock::now();
                if (!opts.cache->lookup(keys[i], results[i]))
                    continue;
                hit[i] = 1;
                SMARTREF_METRIC_INC("sweep.jobs_cached");
                // Entries store the point and seed, not the grid index:
                // re-stamp the grid-local job.
                results[i].job = jobs[i];
                results[i].wallSeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - probeStart)
                        .count();
                if (!opts.cacheVerify) {
                    if (opts.telemetry) {
                        opts.telemetry->jobStart(jobs[i]);
                        opts.telemetry->jobFinish(results[i]);
                    }
                    progressLine(i);
                }
            }
        }
    }

    // Schedule only what the cache could not serve — plus every hit
    // when cacheVerify demands a recompute-and-compare.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (opts.cache && hit[i] && !opts.cacheVerify)
            continue;
        pending.push_back(i);
    }
    SMARTREF_METRIC_ADD("sweep.jobs_scheduled", pending.size());

    const auto runOne = [&](std::size_t k) {
        const std::size_t i = pending[k];
        if (opts.telemetry)
            opts.telemetry->jobStart(jobs[i]);
        SweepJobResult fresh;
        try {
            fresh = runSweepJob(jobs[i], opts);
        } catch (...) {
            SMARTREF_METRIC_INC("sweep.jobs_failed");
            throw;
        }
        SMARTREF_METRIC_OBSERVE("sweep.job_wall_us",
                                fresh.wallSeconds * 1e6);
        if (opts.cache) {
            if (hit[i]) {
                // cacheVerify: the stored result must be bit-equal to
                // the recompute — anything else means a stale or
                // foreign cache (or nondeterminism) and is fatal.
                const std::string stored =
                    ResultCache::comparisonJson(results[i].comparison);
                const std::string recomputed =
                    ResultCache::comparisonJson(fresh.comparison);
                if (stored != recomputed) {
                    SMARTREF_METRIC_INC("result_cache.verify_failures");
                    SMARTREF_FATAL(
                        "cache verify failed for '",
                        pointKey(jobs[i].point), "' (key ", keys[i].hex,
                        "):\n  cached: ", stored,
                        "\n  fresh:  ", recomputed);
                }
                opts.cache->countVerified();
                fresh.cached = true; // served (and verified) from cache
            } else {
                opts.cache->store(keys[i], jobs[i], fresh);
            }
        }
        results[i] = std::move(fresh);
        if (opts.telemetry)
            opts.telemetry->jobFinish(results[i]);
        progressLine(i);
    };
    // Own the pool (rather than the parallelFor(jobs, ...) convenience)
    // so its scheduling counters can be reported to the telemetry sink.
    ResultCacheStats cacheStats;
    const ResultCacheStats *cacheStatsPtr = nullptr;
    const auto finishStats = [&]() {
        if (opts.cache) {
            cacheStats = opts.cache->stats();
            cacheStatsPtr = &cacheStats;
        }
    };
    if (opts.jobs <= 1 || pending.size() <= 1) {
        for (std::size_t k = 0; k < pending.size(); ++k)
            runOne(k);
        if (opts.telemetry) {
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    sweepStart)
                                    .count();
            finishStats();
            opts.telemetry->sweepFinish(wall, nullptr, cacheStatsPtr);
        }
    } else {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(opts.jobs, pending.size())));
        parallelFor(pool, pending.size(), runOne);
        if (opts.telemetry) {
            const double wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    sweepStart)
                                    .count();
            const ThreadPool::Stats poolStats = pool.stats();
            finishStats();
            opts.telemetry->sweepFinish(wall, &poolStats, cacheStatsPtr);
        }
    }
    return results;
}

std::uint64_t
totalViolations(const std::vector<SweepJobResult> &results)
{
    std::uint64_t total = 0;
    for (const auto &r : results)
        total += r.comparison.baseline.violations +
                 r.comparison.smart.violations;
    return total;
}

namespace {

void
writeRunResult(std::ostream &os, const RunResult &r)
{
    os << "{\"policy\":" << jsonQuoted(r.policy)
       << ",\"simSeconds\":" << jsonNumber(r.simSeconds)
       << ",\"refreshesPerSec\":" << jsonNumber(r.refreshesPerSec)
       << ",\"refreshEnergyJ\":" << jsonNumber(r.refreshEnergyJ)
       << ",\"totalEnergyJ\":" << jsonNumber(r.totalEnergyJ)
       << ",\"overheadJ\":" << jsonNumber(r.overheadJ)
       << ",\"avgLatencyNs\":" << jsonNumber(r.avgLatencyNs)
       << ",\"latencyP50Ns\":" << jsonNumber(r.latencyP50Ns)
       << ",\"latencyP95Ns\":" << jsonNumber(r.latencyP95Ns)
       << ",\"latencyP99Ns\":" << jsonNumber(r.latencyP99Ns)
       << ",\"demandBlockedByRefreshTicks\":"
       << jsonNumber(r.demandBlockedByRefreshTicks)
       << ",\"refreshStallsAvoided\":" << r.refreshStallsAvoided
       << ",\"subarrayConflicts\":" << r.subarrayConflicts
       << ",\"demandAccesses\":" << r.demandAccesses
       << ",\"violations\":" << r.violations
       << ",\"maxRefreshBacklog\":" << r.maxRefreshBacklog << "}";
}

template <typename T>
void
writeArray(std::ostream &os, const std::vector<T> &values, bool asString)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        os << (i ? "," : "");
        if constexpr (std::is_arithmetic_v<T>) {
            (void)asString;
            os << +values[i];
        } else {
            os << jsonQuoted(values[i]);
        }
    }
    os << "]";
}

/** Jobs sharing every coordinate except the benchmark. */
struct SummaryGroup
{
    std::string config;
    std::uint64_t retentionMs;
    std::uint32_t counterBits;
    std::string policy;
    std::string parallelism;
    std::vector<const SweepJobResult *> members;
};

std::vector<SummaryGroup>
groupResults(const std::vector<SweepJobResult> &results)
{
    std::vector<SummaryGroup> groups;
    for (const auto &r : results) {
        const auto &p = r.job.point;
        if (groups.empty() || groups.back().config != p.config ||
            groups.back().retentionMs != p.retentionMs ||
            groups.back().counterBits != p.counterBits ||
            groups.back().policy != p.policy ||
            groups.back().parallelism != p.parallelism) {
            // Grid order nests benchmark innermost, so equal-coordinate
            // jobs are always contiguous.
            groups.push_back({p.config, p.retentionMs, p.counterBits,
                              p.policy, p.parallelism, {}});
        }
        groups.back().members.push_back(&r);
    }
    return groups;
}

double
gmeanOf(const SummaryGroup &g,
        const std::function<double(const ComparisonResult &)> &metric)
{
    std::vector<double> values;
    values.reserve(g.members.size());
    for (const auto *m : g.members)
        values.push_back(metric(m->comparison));
    return geometricMean(values);
}

} // namespace

void
writeSweepJson(const SweepGrid &grid, const SweepRunOptions &opts,
               const std::vector<SweepJobResult> &results,
               std::ostream &os)
{
    os << "{\"schema\":\"smartref-sweep-v1\"";

    RunMeta meta;
    meta.schema = "smartref-sweep-v1";
    meta.configHash = sweepConfigHash(grid, opts);
    meta.seedMode = seedModeName(opts.seedMode);
    os << ",\"meta\":" << metaJson(meta);

    os << ",\"grid\":{\"name\":" << jsonQuoted(grid.name) << ",\"configs\":";
    writeArray(os, grid.configs, true);
    os << ",\"benchmarks\":";
    writeArray(os, grid.benchmarks, true);
    os << ",\"policies\":";
    writeArray(os, grid.policies, true);
    os << ",\"counterBits\":";
    writeArray(os, grid.counterBits, false);
    os << ",\"retentionMs\":";
    writeArray(os, grid.retentionMs, false);
    os << ",\"parallelism\":";
    writeArray(os, grid.parallelism, true);
    os << "}";

    os << ",\"options\":{\"warmupMs\":" << opts.warmup / kMillisecond
       << ",\"measureMs\":" << opts.measure / kMillisecond
       << ",\"segments\":" << opts.segments << ",\"autoReconfigure\":"
       << (opts.autoReconfigure ? "true" : "false")
       << ",\"baseSeed\":" << opts.baseSeed
       << ",\"seedMode\":" << jsonQuoted(seedModeName(opts.seedMode)) << "}";

    // Geometry/energy anchors of each preset in the grid: the Table 1
    // baseline refresh rate and the Table 3 address-bus energy. CI's
    // golden-number gate reads these.
    os << ",\"anchors\":{";
    for (std::size_t i = 0; i < grid.configs.size(); ++i) {
        const DramConfig cfg = dramConfigByName(grid.configs[i]);
        StatGroup scratch("anchors");
        BusEnergyModel bus(deriveBusParams(BusEnergyParams{}, cfg.org),
                           &scratch);
        os << (i ? "," : "") << jsonQuoted(grid.configs[i])
           << ":{\"baselineRefreshesPerSec\":"
           << jsonNumber(cfg.baselineRefreshesPerSecond())
           << ",\"busNanojoulesPerAddress\":"
           << jsonNumber(bus.energyPerAccess() * 1e9)
           << ",\"refreshTargets\":" << cfg.org.totalRows() << "}";
    }
    os << "}";

    os << ",\"jobs\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &p = r.job.point;
        os << (i ? "," : "") << "{\"index\":" << r.job.index
           << ",\"config\":" << jsonQuoted(p.config)
           << ",\"benchmark\":" << jsonQuoted(p.benchmark)
           << ",\"suite\":" << jsonQuoted(r.comparison.suite)
           << ",\"policy\":" << jsonQuoted(p.policy)
           << ",\"counterBits\":" << p.counterBits
           << ",\"retentionMs\":" << p.retentionMs
           << ",\"parallelism\":" << jsonQuoted(p.parallelism)
           // As a string: 64-bit seeds overflow JSON's double numbers.
           << ",\"seed\":" << jsonQuoted(std::to_string(r.job.seed))
           << ",\"baseline\":";
        writeRunResult(os, r.comparison.baseline);
        os << ",\"smart\":";
        writeRunResult(os, r.comparison.smart);
        os << ",\"refreshReduction\":"
           << jsonNumber(r.comparison.refreshReduction())
           << ",\"refreshEnergySaving\":"
           << jsonNumber(r.comparison.refreshEnergySaving())
           << ",\"totalEnergySaving\":"
           << jsonNumber(r.comparison.totalEnergySaving())
           << ",\"perfImprovement\":"
           << jsonNumber(r.comparison.perfImprovement()) << "}";
    }
    os << "]";

    os << ",\"summary\":[";
    const auto groups = groupResults(results);
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const auto &g = groups[i];
        const double gmeanBase = gmeanOf(g, [](const ComparisonResult &c) {
            return c.baseline.refreshesPerSec;
        });
        const double gmeanSmart =
            gmeanOf(g, [](const ComparisonResult &c) {
                return c.smart.refreshesPerSec;
            });
        std::uint64_t violations = 0;
        for (const auto *m : g.members)
            violations += m->comparison.baseline.violations +
                          m->comparison.smart.violations;
        os << (i ? "," : "") << "{\"config\":" << jsonQuoted(g.config)
           << ",\"retentionMs\":" << g.retentionMs
           << ",\"counterBits\":" << g.counterBits
           << ",\"policy\":" << jsonQuoted(g.policy)
           << ",\"parallelism\":" << jsonQuoted(g.parallelism)
           << ",\"jobs\":" << g.members.size()
           << ",\"gmeanBaselineRefreshesPerSec\":" << jsonNumber(gmeanBase)
           << ",\"gmeanSmartRefreshesPerSec\":" << jsonNumber(gmeanSmart)
           << ",\"gmeanRefreshReduction\":"
           << jsonNumber(gmeanBase > 0.0 ? 1.0 - gmeanSmart / gmeanBase
                                         : 0.0)
           << ",\"gmeanRefreshEnergySaving\":"
           << jsonNumber(gmeanOf(g,
                                 [](const ComparisonResult &c) {
                                     return c.refreshEnergySaving();
                                 }))
           << ",\"gmeanTotalEnergySaving\":"
           << jsonNumber(gmeanOf(g,
                                 [](const ComparisonResult &c) {
                                     return c.totalEnergySaving();
                                 }))
           << ",\"gmeanPerfImprovement\":"
           << jsonNumber(gmeanOf(g,
                                 [](const ComparisonResult &c) {
                                     return c.perfImprovement();
                                 }))
           << ",\"violations\":" << violations << "}";
    }
    os << "]";

    os << ",\"totalViolations\":" << totalViolations(results) << "}\n";
}

void
writeSweepJson(const SweepGrid &grid, const SweepRunOptions &opts,
               const std::vector<SweepJobResult> &results,
               const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        SMARTREF_FATAL("cannot write sweep JSON '", path, "'");
    writeSweepJson(grid, opts, results, out);
}

void
writeSweepCsv(const std::vector<SweepJobResult> &results, std::ostream &os)
{
    ReportTable table({"index", "config", "benchmark", "suite", "policy",
                       "counterBits", "retentionMs", "parallelism",
                       "seed", "baselineRefreshesPerSec",
                       "smartRefreshesPerSec", "refreshReduction",
                       "refreshEnergySaving", "totalEnergySaving",
                       "perfImprovement", "demandBlockedByRefreshTicks",
                       "refreshStallsAvoided", "subarrayConflicts",
                       "violations"});
    for (const auto &r : results) {
        const auto &p = r.job.point;
        const auto &c = r.comparison;
        table.addRow({std::to_string(r.job.index), p.config, p.benchmark,
                      c.suite, p.policy, std::to_string(p.counterBits),
                      std::to_string(p.retentionMs), p.parallelism,
                      std::to_string(r.job.seed),
                      jsonNumber(c.baseline.refreshesPerSec),
                      jsonNumber(c.smart.refreshesPerSec),
                      jsonNumber(c.refreshReduction()),
                      jsonNumber(c.refreshEnergySaving()),
                      jsonNumber(c.totalEnergySaving()),
                      jsonNumber(c.perfImprovement()),
                      jsonNumber(c.smart.demandBlockedByRefreshTicks),
                      std::to_string(c.smart.refreshStallsAvoided),
                      std::to_string(c.smart.subarrayConflicts),
                      std::to_string(c.baseline.violations +
                                     c.smart.violations)});
    }
    table.writeCsv(os);
}

void
writeSweepCsv(const std::vector<SweepJobResult> &results,
              const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        SMARTREF_FATAL("cannot write sweep CSV '", path, "'");
    writeSweepCsv(results, out);
}

void
writeSweepTimingJson(const SweepGrid &grid, const SweepRunOptions &opts,
                     const std::vector<SweepJobResult> &results,
                     double wallSeconds, std::ostream &os)
{
    double jobSeconds = 0.0;
    for (const auto &r : results)
        jobSeconds += r.wallSeconds;
    RunMeta meta;
    meta.schema = "smartref-sweep-timing-v1";
    meta.configHash = sweepConfigHash(grid, opts);
    // The timing sidecar is already host-dependent, so it is the one
    // sweep artifact allowed to carry the process peak RSS.
    meta.peakRssBytes = currentPeakRssBytes();
    os << "{\"meta\":" << metaJson(meta)
       << ",\"grid\":" << jsonQuoted(grid.name)
       << ",\"jobs\":" << opts.jobs << ",\"jobCount\":" << results.size()
       << ",\"wallSeconds\":" << wallSeconds
       << ",\"cpuJobSeconds\":" << jobSeconds
       << ",\"parallelEfficiency\":"
       << (wallSeconds > 0.0 && opts.jobs > 0
               ? jobSeconds / (wallSeconds * opts.jobs)
               : 0.0);
    if (opts.cache) {
        const ResultCacheStats cs = opts.cache->stats();
        os << ",\"cache\":{\"hits\":" << cs.hits
           << ",\"misses\":" << cs.misses << ",\"corrupt\":" << cs.corrupt
           << ",\"stores\":" << cs.stores
           << ",\"verified\":" << cs.verified << "}";
    }
    os << "}\n";
}

std::string
sweepConfigHash(const SweepGrid &grid, const SweepRunOptions &opts)
{
    // Canonical textual form of everything that shapes the sweep's
    // deterministic outputs. Deliberately excludes execution-only knobs
    // (jobs, progress, telemetry, heatmap collection): those never
    // change the aggregates, so they must not change the hash either.
    std::ostringstream oss;
    oss << "name=" << grid.name;
    auto axis = [&oss](const char *key, const auto &values) {
        oss << ";" << key << "=";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                oss << ",";
            oss << values[i];
        }
    };
    axis("configs", grid.configs);
    axis("benchmarks", grid.benchmarks);
    axis("policies", grid.policies);
    axis("counterBits", grid.counterBits);
    axis("retentionMs", grid.retentionMs);
    // Keep the hash of pre-parallelism grids stable: the axis only
    // contributes once it departs from the historical default.
    if (grid.parallelism != std::vector<std::string>{"refpb"})
        axis("parallelism", grid.parallelism);
    oss << ";warmupMs=" << opts.warmup / kMillisecond
        << ";measureMs=" << opts.measure / kMillisecond
        << ";segments=" << opts.segments
        << ";autoReconfigure=" << (opts.autoReconfigure ? 1 : 0)
        << ";baseSeed=" << opts.baseSeed
        << ";seedMode=" << seedModeName(opts.seedMode);
    // Sparse counters change the modeled SRAM traffic, so they are a
    // real configuration axis — but only when switched on, keeping
    // every historical hash stable. shardJobs stays excluded: it is
    // execution-only, like jobs.
    if (opts.sparseCounters)
        oss << ";sparse=1";
    return hex64(fnv1a64(oss.str()));
}

namespace {

/**
 * Merge each summary group's per-job heatmaps in grid order. Fatal when
 * any job lacks a heatmap (the sweep ran without collectHeatmaps).
 */
std::vector<RefreshHeatmap>
mergeGroupHeatmaps(const std::vector<SummaryGroup> &groups)
{
    std::vector<RefreshHeatmap> merged;
    merged.reserve(groups.size());
    for (const auto &g : groups) {
        SMARTREF_ASSERT(!g.members.empty(), "empty summary group");
        const SweepJobResult *first = g.members.front();
        if (!first->heatmap)
            SMARTREF_FATAL("job '", pointKey(first->job.point),
                           "' has no heatmap; run the sweep with "
                           "collectHeatmaps enabled");
        RefreshHeatmap sum(first->heatmap->ranks(),
                           first->heatmap->banks(),
                           first->heatmap->segments(),
                           first->heatmap->counterMax());
        for (const auto *m : g.members) {
            if (!m->heatmap)
                SMARTREF_FATAL("job '", pointKey(m->job.point),
                               "' has no heatmap; run the sweep with "
                               "collectHeatmaps enabled");
            sum.merge(*m->heatmap);
        }
        merged.push_back(std::move(sum));
    }
    return merged;
}

} // namespace

void
writeSweepHeatmapJson(const SweepGrid &grid, const SweepRunOptions &opts,
                      const std::vector<SweepJobResult> &results,
                      std::ostream &os)
{
    RunMeta meta;
    meta.schema = "smartref-sweep-heatmap-v1";
    meta.configHash = sweepConfigHash(grid, opts);
    meta.seedMode = seedModeName(opts.seedMode);

    const auto groups = groupResults(results);
    const auto merged = mergeGroupHeatmaps(groups);

    os << "{\"schema\":\"smartref-sweep-heatmap-v1\""
       << ",\"meta\":" << metaJson(meta)
       << ",\"grid\":{\"name\":" << jsonQuoted(grid.name) << "}"
       << ",\"groups\":[";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const auto &g = groups[i];
        os << (i ? "," : "") << "{\"config\":" << jsonQuoted(g.config)
           << ",\"retentionMs\":" << g.retentionMs
           << ",\"counterBits\":" << g.counterBits
           << ",\"policy\":" << jsonQuoted(g.policy)
           << ",\"parallelism\":" << jsonQuoted(g.parallelism)
           << ",\"jobs\":" << g.members.size() << ",\"heatmap\":";
        merged[i].writeJson(os);
        os << "}";
    }
    os << "]}\n";
}

void
writeSweepHeatmapCsv(const std::vector<SweepJobResult> &results,
                     std::ostream &os)
{
    const auto groups = groupResults(results);
    const auto merged = mergeGroupHeatmaps(groups);
    os << "config,retentionMs,counterBits,policy,parallelism,"
       << "kind,rank,bank,segment,bucket,value\n";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const auto &g = groups[i];
        std::ostringstream body;
        merged[i].writeCsv(body, /*header=*/false);
        const std::string prefix = g.config + "," +
                                   std::to_string(g.retentionMs) + "," +
                                   std::to_string(g.counterBits) + "," +
                                   g.policy + "," + g.parallelism + ",";
        std::istringstream lines(body.str());
        std::string line;
        while (std::getline(lines, line))
            os << prefix << line << '\n';
    }
}

std::vector<FigureSpec>
figuresForConfig(const std::string &configName)
{
    using M = FigureSpec::Metric;
    if (configName == "2gb") {
        return {{"fig06", "Figure 6: refreshes per second (2 GB DRAM)",
                 "baseline 2,048,000/s, GMEAN 691,435/s, reductions "
                 "26%..85.7%",
                 M::RefreshRate, 1},
                {"fig07",
                 "Figure 7: relative refresh energy savings (2 GB DRAM)",
                 "savings 25% (gcc) .. 79% (radix), GMEAN 52.57%",
                 M::RefreshEnergy, 1},
                {"fig08",
                 "Figure 8: relative total DRAM energy savings (2 GB "
                 "DRAM)",
                 "up to 25% (perl_twolf), GMEAN 12.13%", M::TotalEnergy,
                 1}};
    }
    if (configName == "4gb") {
        return {{"fig09", "Figure 9: refreshes per second (4 GB DRAM)",
                 "baseline 4,096,000/s, GMEAN 2,343,691/s",
                 M::RefreshRate, 1},
                {"fig10",
                 "Figure 10: relative refresh energy savings (4 GB DRAM)",
                 "GMEAN 23.76%", M::RefreshEnergy, 1},
                {"fig11",
                 "Figure 11: relative total DRAM energy savings (4 GB "
                 "DRAM)",
                 "GMEAN 9.10%", M::TotalEnergy, 1}};
    }
    if (configName == "3d64") {
        return {{"fig12",
                 "Figure 12: refreshes per second (64 MB 3D DRAM cache, "
                 "64 ms)",
                 "baseline 1,024,000/s, GMEAN 795,411/s, reductions "
                 "4%..42%",
                 M::RefreshRate, 1},
                {"fig13",
                 "Figure 13: relative refresh energy savings (3D 64 MB, "
                 "64 ms)",
                 "savings 7%..42%, GMEAN 21.91%", M::RefreshEnergy, 1},
                {"fig14",
                 "Figure 14: relative total energy savings (3D 64 MB, "
                 "64 ms)",
                 "up to 21.5% (gcc_twolf), GMEAN 9.37%", M::TotalEnergy,
                 1}};
    }
    if (configName == "3d64-32ms") {
        return {{"fig15",
                 "Figure 15: refreshes per second (64 MB 3D DRAM cache, "
                 "32 ms)",
                 "baseline 2,048,000/s, GMEAN 1,724,640/s",
                 M::RefreshRate, 1},
                {"fig16",
                 "Figure 16: relative refresh energy savings (3D 64 MB, "
                 "32 ms)",
                 "GMEAN 15.79%", M::RefreshEnergy, 1},
                {"fig17",
                 "Figure 17: relative total energy savings (3D 64 MB, "
                 "32 ms)",
                 "GMEAN 6.87%", M::TotalEnergy, 1},
                {"fig18",
                 "Figure 18: performance improvement (3D 64 MB, 32 ms)",
                 "all under 1%, GMEAN 0.11%", M::Performance, 3}};
    }
    return {};
}

void
writeFigures(std::ostream &os, const std::string &configName,
             const std::vector<ComparisonResult> &comparisons,
             const std::string &outDir)
{
    const DramConfig cfg = dramConfigByName(configName);
    for (const FigureSpec &spec : figuresForConfig(configName)) {
        const std::string csvPath =
            outDir.empty() ? "" : outDir + "/" + spec.id + ".csv";
        switch (spec.metric) {
          case FigureSpec::Metric::RefreshRate:
            printRefreshRateFigure(os, spec.title, spec.paperNote,
                                   cfg.baselineRefreshesPerSecond(),
                                   comparisons, csvPath);
            break;
          case FigureSpec::Metric::RefreshEnergy:
            printFigure(os, spec.title, spec.paperNote, comparisons,
                        "refresh energy saving",
                        [](const ComparisonResult &c) {
                            return c.refreshEnergySaving();
                        },
                        true, csvPath, spec.decimals);
            break;
          case FigureSpec::Metric::TotalEnergy:
            printFigure(os, spec.title, spec.paperNote, comparisons,
                        "total energy saving",
                        [](const ComparisonResult &c) {
                            return c.totalEnergySaving();
                        },
                        true, csvPath, spec.decimals);
            break;
          case FigureSpec::Metric::Performance:
            printFigure(os, spec.title, spec.paperNote, comparisons,
                        "performance improvement",
                        [](const ComparisonResult &c) {
                            return c.perfImprovement();
                        },
                        true, csvPath, spec.decimals);
            break;
        }
    }
}

} // namespace smartref
