#include "workloads.hh"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "cli.hh"
#include "core/counter_array.hh"
#include "core/stagger_scheduler.hh"
#include "dram/refresh_parallelism.hh"
#include "harness/result_cache.hh"
#include "harness/sweep_telemetry.hh"
#include "host_speed.hh"
#include "sim/metrics.hh"
#include "sim/mini_json.hh"
#include "sim/provenance.hh"
#include "sim/thread_pool.hh"
#include "trace/benchmark_profiles.hh"

namespace perfbench {

using namespace smartref;
namespace fs = std::filesystem;

namespace {

/** Host threads the load is sized for (a 4-core machine). */
constexpr unsigned kWorkers = 4;

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Peak resident set of this process image in bytes: VmHWM, which exec
 * and resetPeakRss() reset. getrusage's ru_maxrss is not used because
 * Linux carries the parent's high-water mark across exec, so under
 * run.py it would read the Python interpreter's peak whenever the
 * workload's is smaller.
 */
std::uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            std::uint64_t kb = 0;
            status >> kb;
            return kb * 1024;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return currentPeakRssBytes();
}

/**
 * Hand free heap memory back to the system, then reset VmHWM to the
 * current resident set, so the next peakRssBytes() reads the peak
 * since now and not what earlier batches left cached in the heap.
 * Where the kernel refuses the reset, VmHWM keeps the process's peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** One simulated run of a batch. */
struct Run
{
    std::string label;
    RunResult result;
    RunCounts counts; ///< assembled runs only
    /** Retention violations over the whole run, final check included. */
    std::uint64_t violations = 0;
};

/** One execution of a workload's fixed batch. */
struct Batch
{
    std::vector<Run> runs;
    double wallSeconds = 0.0; ///< after set-up
    double cpuSeconds = 0.0;  ///< over the same interval, all threads
    double totalSeconds = 0.0; ///< set-up included
    /** Host times of one unit of a SpeedProbe (host_speed.hh). */
    struct Unit
    {
        std::size_t id;
        double wallSeconds, cpuSeconds;
    };
    std::vector<Unit> units; ///< only when the batch ran with a probe
    // figures-sweep only
    std::string dir;
    std::string sweepJson;
    std::string sweepCsv;
    std::vector<double> jobSeconds;
};

/** Sequential ids for the cold-cache directories of this process. */
std::string
freshDir(const std::string &scratchDir, const std::string &name)
{
    static int counter = 0;
    const fs::path dir = fs::path(scratchDir) /
                         (name + "-" + std::to_string(::getpid()) + "-" +
                          std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
label(const WorkloadDef &w, const std::string &what, const std::string &policy)
{
    return w.name + "/" + what + "/" + policy;
}

/** Each run is a unit of its own for `probe`, which may be null. */
Batch
runSerialBatch(const WorkloadDef &w, SpanLog *log, SpeedProbe *probe)
{
    Batch b;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const RunSpec &spec = w.specs[i];
        AssembledRun a = runAssembled(spec, log, static_cast<int>(i));
        b.wallSeconds += a.runSeconds;
        b.cpuSeconds += a.runCpuSeconds;
        if (probe)
            b.units.push_back({probe->endUnit(), a.runSeconds, a.runCpuSeconds});
        b.runs.push_back({spec.label, a.result, a.counts, a.counts.violations});
    }
    b.totalSeconds = secondsBetween(t0, nowNs());
    return b;
}

/** Spread overlapping intervals over the fewest tracks (1, 2, ...). */
std::vector<int>
assignTracks(const std::vector<std::pair<std::int64_t, std::int64_t>> &iv)
{
    std::vector<std::size_t> order(iv.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return iv[a].first < iv[b].first;
    });
    std::vector<std::int64_t> trackEnd;
    std::vector<int> track(iv.size(), 0);
    for (const std::size_t i : order) {
        std::size_t t = 0;
        while (t < trackEnd.size() && trackEnd[t] > iv[i].first)
            ++t;
        if (t == trackEnd.size())
            trackEnd.push_back(0);
        trackEnd[t] = iv[i].second;
        track[i] = static_cast<int>(t) + 1;
    }
    return track;
}

/**
 * Job spans from the sweep's telemetry stream: job_start/job_finish
 * carry seconds since the sink was created at `baseNs`. Clamped into
 * the enclosing sweep span.
 */
void
addJobSpans(SpanLog &log, int parent, std::int64_t baseNs,
            const std::string &ndjson)
{
    std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> jobs;
    std::istringstream in(ndjson);
    std::string line;
    while (std::getline(in, line)) {
        const minijson::Value ev = minijson::parse(line);
        const std::string kind = ev.at("event").str;
        if (kind != "job_start" && kind != "job_finish")
            continue;
        const auto idx = static_cast<std::int64_t>(ev.at("index").number);
        const auto t = baseNs + static_cast<std::int64_t>(
                                    std::llround(ev.at("t").number * 1e9));
        (kind == "job_start" ? jobs[idx].first : jobs[idx].second) = t;
    }
    const Span &p = log.spans().at(static_cast<std::size_t>(parent));
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::vector<std::int64_t> ids;
    for (auto &[idx, se] : jobs) {
        se.first = std::clamp(se.first, p.start, p.end);
        se.second = std::clamp(se.second, se.first, p.end);
        iv.push_back(se);
        ids.push_back(idx);
    }
    const std::vector<int> tracks = assignTracks(iv);
    for (std::size_t i = 0; i < iv.size(); ++i) {
        Span s;
        s.name = "harness.sweep.job";
        s.start = iv[i].first;
        s.end = iv[i].second;
        s.parent = parent;
        s.job = static_cast<int>(ids[i]);
        s.track = tracks[i];
        log.add(s);
    }
}

/**
 * A fresh directory for one sweep, holding the empty directory of a
 * cold result cache, "cache". Making them is the benchmark's own
 * scaffolding and is not timed: on a busy host, file-system writes
 * made the set-up time jump by a factor of two from run to run.
 */
std::string
freshSweepDir(const WorkloadDef &w, const std::string &scratchDir)
{
    const std::string dir = freshDir(scratchDir, w.name);
    fs::create_directories(dir + "/cache");
    return dir;
}

/**
 * The sweep's set-up: expand the grid (runSweep expands it again
 * itself; this times what a user's front end pays) and open the cold
 * result cache in `dir` (see freshSweepDir).
 */
std::unique_ptr<ResultCache>
openSweep(const WorkloadDef &w, const std::string &dir)
{
    expandGrid(w.grid, w.sweepOpts.baseSeed, w.sweepOpts.seedMode);
    return std::make_unique<ResultCache>(dir + "/cache");
}

/** The whole batch is one unit for `probe`, which may be null. */
Batch
runSweepBatch(const WorkloadDef &w, const std::string &scratchDir,
              SpanLog *log, SpeedProbe *probe)
{
    Batch b;
    b.dir = freshSweepDir(w, scratchDir);
    const std::int64_t t0 = nowNs();
    ScopedSpan setup(log, "harness.setup");
    const std::unique_ptr<ResultCache> cachePtr = openSweep(w, b.dir);
    ResultCache &cache = *cachePtr;
    setup.end();
    const std::int64_t t1 = nowNs();
    const double cpu1 = processCpuSeconds();

    SweepRunOptions opts = w.sweepOpts;
    opts.cache = &cache;
    std::ostringstream telemetry;
    std::int64_t telemetryBase = 0;
    std::vector<SweepJobResult> results;
    int sweepSpan = -1;
    {
        ScopedSpan sweep(log, "harness.sweep");
        sweepSpan = sweep.id();
        std::unique_ptr<SweepTelemetry> sink;
        if (log) {
            telemetryBase = nowNs();
            sink = std::make_unique<SweepTelemetry>(telemetry);
            opts.telemetry = sink.get();
        }
        results = runSweep(w.grid, opts);
    }
    {
        ScopedSpan write(log, "harness.report.write");
        writeSweepJson(w.grid, opts, results, b.dir + "/sweep.json");
        writeSweepCsv(results, b.dir + "/sweep.csv");
    }
    const std::int64_t t2 = nowNs();
    b.wallSeconds = secondsBetween(t1, t2);
    b.cpuSeconds = processCpuSeconds() - cpu1;
    b.totalSeconds = secondsBetween(t0, t2);
    if (probe)
        b.units.push_back({probe->endUnit(), b.wallSeconds, b.cpuSeconds});

    b.sweepJson = readFile(b.dir + "/sweep.json");
    b.sweepCsv = readFile(b.dir + "/sweep.csv");
    for (const SweepJobResult &r : results) {
        const std::string key = pointKey(r.job.point);
        const RunResult &base = r.comparison.baseline;
        const RunResult &smart = r.comparison.smart;
        b.runs.push_back({label(w, key, base.policy), base, {}, base.violations});
        b.runs.push_back(
            {label(w, key, smart.policy), smart, {}, smart.violations});
        b.jobSeconds.push_back(r.wallSeconds);
    }
    if (log)
        addJobSpans(*log, sweepSpan, telemetryBase, telemetry.str());
    return b;
}

Batch
runBatch(const WorkloadDef &w, const std::string &scratchDir, SpanLog *log,
         SpeedProbe *probe = nullptr)
{
    return w.sweep ? runSweepBatch(w, scratchDir, log, probe)
                   : runSerialBatch(w, log, probe);
}

/** Accumulates check outcomes: one attempted unit, failed or not. */
struct Checker
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    unit(const std::string &what, const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        std::string line = what + ":";
        for (const auto &p : problems)
            line += " " + p + ";";
        failures.push_back(line);
    }

    void
    into(Report &r) const
    {
        r.attempted += attempted;
        r.failed += failed;
        r.failures.insert(r.failures.end(), failures.begin(), failures.end());
    }
};

/** Problems of one run: retention safety and the default-seed reference. */
std::vector<std::string>
runProblems(const Run &run, const Reference *ref)
{
    std::vector<std::string> p;
    if (run.violations != 0)
        p.push_back(std::to_string(run.violations) + " retention violations");
    if (ref) {
        const auto it = ref->find(run.label);
        if (it == ref->end()) {
            p.push_back("no reference result");
        } else if (resultJson(run.result) != it->second) {
            p.push_back("differs from the reference: " +
                        resultJson(run.result));
        }
    }
    return p;
}

/** Problems where `b` does not repeat `a` bit for bit, per run. */
std::vector<std::vector<std::string>>
identityProblems(const Batch &a, const Batch &b, const std::string &what)
{
    std::vector<std::vector<std::string>> out(b.runs.size());
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
        if (i >= a.runs.size() || a.runs[i].label != b.runs[i].label) {
            out[i].push_back("missing from the " + what);
        } else if (resultJson(a.runs[i].result, true) !=
                   resultJson(b.runs[i].result, true)) {
            out[i].push_back("differs from the " + what);
        }
    }
    return out;
}

/** The sweep summaries' geometric means, over a batch's run pairs. */
void
addModelled(const Batch &b, std::map<std::string, double> &m)
{
    std::vector<double> baseRate, smartRate, refreshSaving, totalSaving;
    double latencySum = 0.0;
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i + 1 < b.runs.size(); i += 2) {
        ComparisonResult c;
        c.baseline = b.runs[i].result;
        c.smart = b.runs[i + 1].result;
        baseRate.push_back(c.baseline.refreshesPerSec);
        smartRate.push_back(c.smart.refreshesPerSec);
        refreshSaving.push_back(c.refreshEnergySaving());
        totalSaving.push_back(c.totalEnergySaving());
        latencySum += c.smart.latencySumSec;
        accesses += c.smart.demandAccesses;
    }
    const double gBase = geometricMean(baseRate);
    m["refresh_reduction_pct"] =
        gBase > 0.0 ? 100.0 * (1.0 - geometricMean(smartRate) / gBase) : 0.0;
    m["refresh_energy_saving_pct"] = 100.0 * geometricMean(refreshSaving);
    m["total_energy_saving_pct"] = 100.0 * geometricMean(totalSaving);
    m["demand_latency_ns"] =
        accesses ? latencySum / static_cast<double>(accesses) * 1e9 : 0.0;
}

struct ReplayOutcome
{
    double seconds = 0.0;
    double hitRatio = 0.0;
    std::vector<std::string> problems;
};

/** Replay the sweep against the warm cache a cold batch left behind. */
ReplayOutcome
warmReplay(const WorkloadDef &w, const Batch &cold)
{
    ReplayOutcome out;
    ResultCache cache(cold.dir + "/cache");
    SweepRunOptions opts = w.sweepOpts;
    opts.cache = &cache;
    const std::int64_t t0 = nowNs();
    const std::vector<SweepJobResult> results = runSweep(w.grid, opts);
    writeSweepJson(w.grid, opts, results, cold.dir + "/replay.json");
    writeSweepCsv(results, cold.dir + "/replay.csv");
    out.seconds = secondsBetween(t0, nowNs());
    const ResultCacheStats s = cache.stats();
    const std::uint64_t probes = s.hits + s.misses + s.corrupt;
    out.hitRatio = probes ? static_cast<double>(s.hits) /
                                static_cast<double>(probes)
                          : 0.0;
    if (s.hits != results.size() || probes != results.size())
        out.problems.push_back(std::to_string(s.hits) + " of " +
                               std::to_string(results.size()) +
                               " jobs served from the cache");
    if (readFile(cold.dir + "/replay.json") != cold.sweepJson)
        out.problems.push_back("replayed sweep JSON differs");
    if (readFile(cold.dir + "/replay.csv") != cold.sweepCsv)
        out.problems.push_back("replayed sweep CSV differs");
    return out;
}

/**
 * measure() repeats set-up alone in probed units: kSetupUnitsPerBatch
 * after each batch, so they see the same host as the batches, and at
 * least kMinSetupUnits in all. A unit takes at least one sample and
 * keeps sampling for kSetupUnitSeconds, up to kMaxUnitSetupSamples.
 */
constexpr int kSetupUnitsPerBatch = 3;
constexpr std::size_t kMinSetupUnits = 10;
constexpr double kSetupUnitSeconds = 0.1;
constexpr std::size_t kMaxUnitSetupSamples = 50;

/** Set-up time of the whole batch, built and dropped without running. */
double
batchSetupSeconds(const WorkloadDef &w, const std::string &scratchDir)
{
    if (!w.sweep) {
        double s = 0.0;
        for (const RunSpec &spec : w.specs)
            s += setupSeconds(spec);
        return s;
    }
    const std::string dir = freshSweepDir(w, scratchDir);
    const std::int64_t t0 = nowNs();
    openSweep(w, dir);
    const double s = secondsBetween(t0, nowNs());
    fs::remove_all(dir);
    return s;
}

/** Set-up samples of one probed unit. */
struct SetupUnit
{
    std::size_t id;
    std::vector<double> seconds;
};

SetupUnit
sampleSetup(const WorkloadDef &w, const std::string &scratchDir,
            SpeedProbe &probe)
{
    SetupUnit u;
    const std::int64_t start = nowNs();
    do {
        u.seconds.push_back(batchSetupSeconds(w, scratchDir));
    } while (secondsBetween(start, nowNs()) < kSetupUnitSeconds &&
             u.seconds.size() < kMaxUnitSetupSamples);
    u.id = probe.endUnit();
    return u;
}

/** Runs of a batch plus the retention/reference checks. */
void
checkRuns(const Batch &b, const Reference *ref,
          const std::vector<std::vector<std::string>> &extra, Checker &chk)
{
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
        std::vector<std::string> p = runProblems(b.runs[i], ref);
        if (i < extra.size())
            p.insert(p.end(), extra[i].begin(), extra[i].end());
        chk.unit(b.runs[i].label, p);
    }
}

std::uint64_t
registryCounter(const char *name)
{
    return globalMetrics().counter(name).value();
}

struct GenPass
{
    double seconds = 0.0;
    std::uint64_t issued = 0;    ///< generator counts
    std::uint64_t delivered = 0; ///< sink calls
};

/**
 * Generate every run's access streams alone: the same parameters and
 * seeds as the runs, one event queue per channel, a counting sink.
 */
GenPass
generationPass(const std::vector<RunSpec> &specs)
{
    GenPass g;
    const std::int64_t t0 = nowNs();
    for (const RunSpec &spec : specs) {
        const ExperimentOptions &o = spec.opts;
        const std::uint64_t rowBytes = spec.dram.org.rowBytes();
        for (const auto &params : workloadStreams(spec)) {
            EventQueue eq;
            StatGroup root("generate");
            std::uint64_t count = 0;
            std::vector<std::unique_ptr<WorkloadModel>> models;
            for (const auto &wp : params) {
                models.push_back(std::make_unique<WorkloadModel>(
                    wp, rowBytes, [&count](Addr, bool) { ++count; }, eq,
                    &root));
            }
            for (auto &m : models)
                m->start();
            eq.runUntil(o.warmup + o.measure);
            g.delivered += count;
            for (const auto &m : models)
                g.issued += m->accessesIssued();
        }
    }
    g.seconds = secondsBetween(t0, nowNs());
    return g;
}

/**
 * ns per counter touch of StaggerScheduler::step over each distinct
 * Smart counter geometry of the workload (one channel's array),
 * walked from the staggered start with no demand resets.
 */
double
walkTouchNs(const std::vector<RunSpec> &specs)
{
    std::map<std::string, const RunSpec *> geometries;
    for (const RunSpec &s : specs) {
        if (s.policy == PolicyKind::Smart)
            geometries[s.dram.name + (s.opts.sparseCounters ? "/sparse" : "")] = &s;
    }
    double ns = 0.0;
    std::uint64_t touches = 0;
    for (const auto &[key, spec] : geometries) {
        const ExperimentOptions &o = spec->opts;
        CounterArray counters(spec->dram.org.totalRows(), o.counterBits,
                              o.segments, o.sparseCounters);
        StaggerScheduler walk(counters, o.segments,
                              spec->dram.timing.retention, o.counterBits);
        walk.initialiseStaggered();
        const std::uint64_t steps =
            std::min<std::uint64_t>(1u << 18, 4 * walk.countersPerSegment());
        std::uint64_t expired = 0;
        const StaggerScheduler::RefreshFn onExpiry =
            [&expired](std::uint64_t) { ++expired; };
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < steps; ++i)
            walk.step(onExpiry);
        ns += static_cast<double>(nowNs() - t0);
        touches += steps * o.segments;
        if (expired == 0)
            std::cerr << "perfbench: walk over " << key
                      << " expired no counter\n";
    }
    return touches ? ns / static_cast<double>(touches) : 0.0;
}

double
spanSeconds(const SpanLog &log, const std::string &name)
{
    const auto totals = log.totalSecondsByName();
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
}

/** Per-layer metrics over assembled runs and their spans. */
void
addLayerMetrics(const std::vector<Run> &runs, const SpanLog &log,
                std::map<std::string, double> &m)
{
    RunCounts t;
    for (const Run &r : runs) {
        const RunCounts &c = r.counts;
        t.events += c.events;
        t.accessesGenerated += c.accessesGenerated;
        t.ctrlAccessCalls += c.ctrlAccessCalls;
        t.cacheAccessCalls += c.cacheAccessCalls;
        t.ctrlAccessNs += c.ctrlAccessNs;
        t.cacheAccessNs += c.cacheAccessNs;
        t.refreshes += c.refreshes;
        t.dramCommands += c.dramCommands;
        t.violations += c.violations;
        t.walkSteps += c.walkSteps;
        t.counterReads += c.counterReads;
        t.counterWrites += c.counterWrites;
        t.counterChecks += c.counterChecks;
        t.counterExpiries += c.counterExpiries;
        t.counterBytes = std::max(t.counterBytes, c.counterBytes);
        t.cacheHits += c.cacheHits;
        t.cacheMisses += c.cacheMisses;
        t.maxBacklog = std::max(t.maxBacklog, c.maxBacklog);
    }
    const double runSeconds = spanSeconds(log, "sim.run");
    m["sim.events"] = static_cast<double>(t.events);
    m["sim.ns_per_event"] =
        t.events ? runSeconds * 1e9 / static_cast<double>(t.events) : 0.0;
    m["trace.accesses"] =
        static_cast<double>(t.ctrlAccessCalls + t.cacheAccessCalls);
    m["ctrl.access_calls"] = static_cast<double>(t.ctrlAccessCalls);
    m["ctrl.access_s"] = t.ctrlAccessNs * 1e-9;
    m["ctrl.refreshes"] = static_cast<double>(t.refreshes);
    m["ctrl.max_backlog"] = static_cast<double>(t.maxBacklog);
    m["core.walk_steps"] = static_cast<double>(t.walkSteps);
    m["core.counter_reads"] = static_cast<double>(t.counterReads);
    m["core.counter_writes"] = static_cast<double>(t.counterWrites);
    m["core.skip_ratio"] =
        t.counterChecks ? 1.0 - static_cast<double>(t.counterExpiries) /
                                    static_cast<double>(t.counterChecks)
                        : 0.0;
    m["core.counter_mb"] = static_cast<double>(t.counterBytes) / 1048576.0;
    m["dram.commands"] = static_cast<double>(t.dramCommands);
    m["dram.violations"] = static_cast<double>(t.violations);
    m["dram.finish_s"] = spanSeconds(log, "dram.finish");
    m["cache.access_calls"] = static_cast<double>(t.cacheAccessCalls);
    m["cache.access_s"] = t.cacheAccessNs * 1e-9;
    const std::uint64_t lookups = t.cacheHits + t.cacheMisses;
    m["cache.hit_ratio"] = lookups ? static_cast<double>(t.cacheHits) /
                                         static_cast<double>(lookups)
                                   : 0.0;
    m["harness.build_s"] = spanSeconds(log, "harness.build");
}

/** Checks only a traced run can make, per assembled run. */
std::vector<std::vector<std::string>>
tracedProblems(const std::vector<Run> &runs)
{
    std::vector<std::vector<std::string>> out(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunCounts &c = runs[i].counts;
        if (!c.ledgerConserved)
            out[i].push_back("energy ledger not conserved");
        // A visit's open-page train is counted when the visit starts,
        // so accesses still in flight at the end were never delivered.
        if (c.ctrlAccessCalls + c.cacheAccessCalls > c.accessesGenerated)
            out[i].push_back(
                "the sinks saw " +
                std::to_string(c.ctrlAccessCalls + c.cacheAccessCalls) +
                " accesses, more than the " +
                std::to_string(c.accessesGenerated) + " generated");
    }
    return out;
}

void
merge(std::vector<std::vector<std::string>> &into,
      const std::vector<std::vector<std::string>> &from)
{
    into.resize(std::max(into.size(), from.size()));
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i].insert(into[i].end(), from[i].begin(), from[i].end());
}

/** Span log invariants: well formed, and self times cover the root. */
std::vector<std::string>
spanProblems(const SpanLog &log, int root)
{
    std::vector<std::string> p;
    const std::string err = log.validate();
    if (!err.empty())
        p.push_back(err);
    const std::int64_t self = log.trackSelfNs(root);
    const std::int64_t wall =
        log.spans().at(static_cast<std::size_t>(root)).duration();
    if (self != wall)
        p.push_back("self times sum to " + std::to_string(self) +
                    " ns, the traced wall is " + std::to_string(wall) + " ns");
    return p;
}

/** The benchmark's own assembly over every run of a sweep batch. */
std::vector<Run>
assembleSweepRuns(const WorkloadDef &w, SpanLog &log, int parent)
{
    const std::vector<RunSpec> specs = runSpecs(w);
    std::vector<Run> runs(specs.size());
    std::vector<SpanLog> logs(specs.size());
    parallelFor(kWorkers, specs.size(), [&](std::size_t i) {
        AssembledRun a = runAssembled(specs[i], &logs[i], static_cast<int>(i));
        runs[i] = {specs[i].label, a.result, a.counts, a.counts.violations};
    });
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const SpanLog &l : logs) {
        std::int64_t lo = INT64_MAX, hi = INT64_MIN;
        for (const Span &s : l.spans()) {
            lo = std::min(lo, s.start);
            hi = std::max(hi, s.end);
        }
        iv.emplace_back(lo, hi);
    }
    const std::vector<int> tracks = assignTracks(iv);
    for (std::size_t i = 0; i < logs.size(); ++i)
        log.absorb(logs[i], parent, tracks[i]);
    return runs;
}

} // namespace

WorkloadDef
defineWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadDef w;
    w.name = name;
    const auto pair = [&w](const std::string &profile, const DramConfig &dram,
                           const ExperimentOptions &opts, double scale) {
        for (const PolicyKind p : {PolicyKind::Cbr, PolicyKind::Smart}) {
            RunSpec s;
            s.label = label(w, profile, toString(p));
            s.profile = profile;
            s.dram = dram;
            s.policy = p;
            s.opts = opts;
            s.absRowScale = scale;
            w.specs.push_back(s);
        }
    };
    if (name == "conv-2gb") {
        ExperimentOptions o;
        o.seed = seed;
        o.warmup = 64 * kMillisecond;
        o.measure = 128 * kMillisecond;
        for (const char *b : {"gcc", "mummer", "water-spatial", "perl_twolf"})
            pair(b, ddr2_2GB(), o, 1.0);
    } else if (name == "server-512gb") {
        ExperimentOptions o;
        o.seed = seed;
        o.warmup = 8 * kMillisecond;
        o.measure = 32 * kMillisecond;
        o.sparseCounters = true;
        o.shardJobs = kWorkers;
        const DramConfig dram = server_512GB();
        pair("mummer", dram, o, absRowScaleFor(dram.org));
    } else if (name == "figures-sweep") {
        w.sweep = true;
        w.grid.name = "figures-sweep";
        w.grid.configs = {"2gb", "4gb", "3d64", "3d64-32ms"};
        w.grid.benchmarks = {"mummer", "gcc", "radix", "gcc_twolf"};
        w.sweepOpts.jobs = kWorkers;
        w.sweepOpts.baseSeed = seed;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<RunSpec>
runSpecs(const WorkloadDef &w)
{
    if (!w.sweep)
        return w.specs;
    // runSweepJob's derivation of each job's two runs.
    std::vector<RunSpec> specs;
    const SweepRunOptions &so = w.sweepOpts;
    for (const SweepJob &job : expandGrid(w.grid, so.baseSeed, so.seedMode)) {
        DramConfig dram = dramConfigByName(job.point.config);
        if (job.point.retentionMs > 0)
            dram.timing.retention = Tick(job.point.retentionMs) * kMillisecond;
        dram.parallelism = parallelismFromString(job.point.parallelism);
        ExperimentOptions eo;
        eo.warmup = so.warmup;
        eo.measure = so.measure;
        eo.counterBits = job.point.counterBits;
        eo.segments = so.segments;
        eo.autoReconfigure = so.autoReconfigure;
        eo.seed = job.seed;
        eo.shardJobs = so.shardJobs;
        eo.sparseCounters = so.sparseCounters;
        for (const PolicyKind p :
             {PolicyKind::Cbr, policyFromString(job.point.policy)}) {
            RunSpec s;
            s.label = label(w, pointKey(job.point), toString(p));
            s.profile = job.point.benchmark;
            s.dram = dram;
            s.policy = p;
            s.opts = eo;
            s.threeD = isThreeDConfigName(job.point.config);
            s.absRowScale = s.threeD ? 1.0 : absRowScaleFor(dram.org);
            specs.push_back(s);
        }
    }
    return specs;
}

unsigned
workerThreads(const WorkloadDef &w)
{
    if (w.sweep)
        return w.sweepOpts.jobs;
    return w.specs.empty() ? 1 : std::max(1u, w.specs.front().opts.shardJobs);
}

std::string
windowsText(const WorkloadDef &w)
{
    const Tick warm = w.sweep ? w.sweepOpts.warmup : w.specs.at(0).opts.warmup;
    const Tick meas = w.sweep ? w.sweepOpts.measure : w.specs.at(0).opts.measure;
    return std::to_string(warm / kMillisecond) + " ms warmup + " +
           std::to_string(meas / kMillisecond) + " ms measurement";
}

Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream in(path);
    if (!in)
        return ref;
    std::ostringstream os;
    os << in.rdbuf();
    const minijson::Value root = minijson::parse(os.str());
    for (const auto &[label, v] : root.at("runs").object) {
        // The reference omits eventsExecuted; runResultFromJson needs it.
        minijson::Value entry = v;
        entry.object["eventsExecuted"].kind = minijson::Value::Kind::Number;
        ref[label] = resultJson(runResultFromJson(entry));
    }
    return ref;
}

std::string
referenceJson(std::uint64_t seed)
{
    std::ostringstream os;
    os << "{\"seed\":" << seed << ",\n\"runs\":{";
    bool first = true;
    const auto emit = [&](const std::string &lbl, const RunResult &r) {
        os << (first ? "\n" : ",\n") << "\"" << lbl << "\":" << resultJson(r);
        first = false;
    };
    for (const std::string &name : workloadNames()) {
        const WorkloadDef w = defineWorkload(name, seed);
        if (!w.sweep) {
            for (const RunSpec &s : w.specs)
                emit(s.label, runLibrary(s));
            continue;
        }
        const std::vector<SweepJobResult> results =
            runSweep(w.grid, w.sweepOpts);
        for (const SweepJobResult &r : results) {
            const std::string key = pointKey(r.job.point);
            emit(label(w, key, r.comparison.baseline.policy),
                 r.comparison.baseline);
            emit(label(w, key, r.comparison.smart.policy), r.comparison.smart);
        }
    }
    os << "\n}}\n";
    return os.str();
}

Report
measure(const WorkloadDef &w, int seconds, const Reference *ref,
        const std::string &scratchDir)
{
    // Repeat until the next batch would end more than half a batch
    // past the deadline, so a run measures about `seconds` in all.
    // Host times are scaled to the nominal host speed, unit by unit,
    // with the reference kernel on the workload's thread count.
    // Set-up is short next to the batch; it is repeated alone, in probed
    // units between the batches.
    std::vector<Batch> batches;
    std::vector<double> peakRss;
    std::vector<SetupUnit> alone;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds) * 1000000000;
    std::int64_t last = 0;
    SpeedProbe probe(workerThreads(w));
    do {
        const std::int64_t t0 = nowNs();
        resetPeakRss();
        batches.push_back(runBatch(w, scratchDir, nullptr, &probe));
        peakRss.push_back(static_cast<double>(peakRssBytes()) / 1048576.0);
        for (int u = 0; u < kSetupUnitsPerBatch; ++u)
            alone.push_back(sampleSetup(w, scratchDir, probe));
        last = nowNs() - t0;
    } while (nowNs() + last / 2 < deadline);
    while (alone.size() < kMinSetupUnits)
        alone.push_back(sampleSetup(w, scratchDir, probe));

    Checker chk;
    for (std::size_t k = 0; k < batches.size(); ++k) {
        checkRuns(batches[k], ref,
                  k ? identityProblems(batches[0], batches[k],
                                       "first repetition")
                    : std::vector<std::vector<std::string>>{},
                  chk);
    }
    if (w.sweep) {
        const ReplayOutcome replay = warmReplay(w, batches.back());
        chk.unit(w.name + "/warm-replay", replay.problems);
        for (const Batch &b : batches)
            fs::remove_all(b.dir);
    }

    Report rep;
    chk.into(rep);
    std::vector<double> wall, cpu, rawWall;
    for (const Batch &b : batches) {
        double sw = 0.0, sc = 0.0;
        for (const Batch::Unit &u : b.units) {
            const double k = probe.scale(u.id);
            sw += k * u.wallSeconds;
            sc += k * u.cpuSeconds;
        }
        wall.push_back(sw);
        cpu.push_back(sc);
        rawWall.push_back(b.wallSeconds);
    }
    // setup_s: the median over set-up units of each unit's fastest
    // sample. Set-up takes 10 us to 60 ms, so within 0.1 s some samples
    // run undisturbed; the median of all samples followed the load.
    std::vector<double> setup;
    for (const SetupUnit &u : alone)
        setup.push_back(probe.scale(u.id) *
                        *std::min_element(u.seconds.begin(), u.seconds.end()));
    rep.metrics["wall_s"] = median(wall);
    rep.metrics["cpu_s"] = median(cpu);
    rep.metrics["setup_s"] = median(setup);
    rep.metrics["peak_rss_mb"] = median(peakRss);
    rep.metrics["pass_frac"] =
        static_cast<double>(rep.attempted - rep.failed) /
        static_cast<double>(rep.attempted);
    addModelled(batches.front(), rep.metrics);
    std::cerr << "perfbench: " << w.name << " batch wall (s), measured:";
    for (const double t : rawWall)
        std::cerr << " " << t;
    std::cerr << "\nperfbench: " << w.name << " batch wall (s), scaled:";
    for (const double t : wall)
        std::cerr << " " << t;
    std::cerr << "\nperfbench: " << w.name << " batch peak RSS (MiB):";
    for (const double r : peakRss)
        std::cerr << " " << r;
    std::cerr << "\n";
    return rep;
}

Report
trace(const WorkloadDef &w, const Reference *ref,
      const std::string &scratchDir, const std::string &spanOut)
{
    Checker chk;
    Report rep;
    auto &m = rep.metrics;

    SpeedProbe probe(workerThreads(w));
    const Batch plain = runBatch(w, scratchDir, nullptr);
    const double plainScale = probe.scale(probe.endUnit());
    checkRuns(plain, ref, {}, chk);

    m["bench.host_speed"] = plainScale;

    SpanLog log;
    const std::uint64_t busy0 = registryCounter("thread_pool.busy_ns");
    const std::uint64_t epochs0 = registryCounter("sharded.epochs");
    const std::uint64_t stores0 = registryCounter("result_cache.stores");
    int root = -1;
    Batch traced;
    {
        ScopedSpan batch(&log, "bench.batch");
        root = batch.id();
        traced = runBatch(w, scratchDir, &log);
    }
    const double busy =
        static_cast<double>(registryCounter("thread_pool.busy_ns") - busy0) *
        1e-9;
    const std::uint64_t epochs = registryCounter("sharded.epochs") - epochs0;
    const std::uint64_t stores =
        registryCounter("result_cache.stores") - stores0;
    const double tracedWall =
        static_cast<double>(log.spans()[static_cast<std::size_t>(root)].duration()) *
        1e-9;

    std::vector<std::vector<std::string>> extra =
        identityProblems(plain, traced, "untraced run");
    std::vector<Run> layerRuns = traced.runs;
    if (w.sweep) {
        if (traced.sweepJson != plain.sweepJson ||
            traced.sweepCsv != plain.sweepCsv)
            extra.at(0).push_back("traced sweep outputs differ from untraced");
        // Layer counts of the sweep's runs: the same runs again through
        // the benchmark's own assembly, which must reproduce them.
        ScopedSpan again(&log, "bench.assembled");
        layerRuns = assembleSweepRuns(w, log, again.id());
        again.end();
        Batch assembled;
        assembled.runs = layerRuns;
        merge(extra, identityProblems(traced, assembled, "sweep run"));
        merge(extra, tracedProblems(layerRuns));
    } else {
        merge(extra, tracedProblems(traced.runs));
    }
    checkRuns(traced, ref, extra, chk);
    chk.unit(w.name + "/spans", spanProblems(log, root));

    addLayerMetrics(layerRuns, log, m);
    const GenPass gen = generationPass(runSpecs(w));
    m["trace.gen_s"] = gen.seconds;
    std::uint64_t issued = 0;
    for (const Run &r : layerRuns)
        issued += r.counts.accessesGenerated;
    std::vector<std::string> genProblems;
    if (gen.delivered != static_cast<std::uint64_t>(m["trace.accesses"]) ||
        gen.issued != issued)
        genProblems.push_back(
            "generating alone delivered " + std::to_string(gen.delivered) +
            " of " + std::to_string(gen.issued) +
            " accesses, the traced sinks saw " +
            std::to_string(static_cast<std::uint64_t>(m["trace.accesses"])) +
            " of " + std::to_string(issued));
    chk.unit(w.name + "/generation", genProblems);
    m["core.walk_touch_ns"] = walkTouchNs(runSpecs(w));

    const unsigned workers = workerThreads(w);
    const double parallelWall =
        w.sweep ? spanSeconds(log, "harness.sweep")
                : (workers > 1 ? spanSeconds(log, "sim.run") : 0.0);
    m["sim.pool.busy_s"] = busy;
    m["sim.pool.idle_frac"] =
        parallelWall > 0.0 ? 1.0 - busy / (workers * parallelWall) : 0.0;
    m["harness.shard.epochs"] = static_cast<double>(epochs);
    m["harness.shard.merge_s"] = spanSeconds(log, "harness.shard.merge");
    m["harness.sweep.job_s_p50"] =
        traced.jobSeconds.empty() ? 0.0 : median(traced.jobSeconds);
    m["harness.sweep.job_s_max"] =
        traced.jobSeconds.empty()
            ? 0.0
            : *std::max_element(traced.jobSeconds.begin(),
                                traced.jobSeconds.end());
    m["harness.report.write_s"] = spanSeconds(log, "harness.report.write");
    m["harness.cache.stores"] = static_cast<double>(stores);
    m["harness.cache.replay_s"] = 0.0;
    m["harness.cache.hit_ratio"] = 0.0;
    if (w.sweep) {
        const ReplayOutcome replay = warmReplay(w, traced);
        chk.unit(w.name + "/warm-replay", replay.problems);
        m["harness.cache.replay_s"] = replay.seconds;
        m["harness.cache.hit_ratio"] = replay.hitRatio;
        fs::remove_all(plain.dir);
        fs::remove_all(traced.dir);
    }
    m["bench.trace_overhead_pct"] =
        100.0 * (tracedWall - plain.totalSeconds) / plain.totalSeconds;

    std::cerr << "perfbench: self time by span over the traced batch "
              << "(s; sampled spans scaled by " << kSampleEvery << "):\n";
    for (const auto &[name, s] : log.selfSecondsByName())
        std::cerr << "  " << name << " " << s << "\n";
    if (!spanOut.empty())
        log.writeChromeTrace(spanOut);

    chk.into(rep);
    return rep;
}

} // namespace perfbench
