#include "assembly.hh"

#include <sys/resource.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "dram/energy_ledger.hh"
#include "harness/sharded.hh"
#include "harness/threed_system.hh"
#include "trace/benchmark_profiles.hh"

namespace perfbench {

using namespace smartref;

namespace {

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** The Smart Refresh config the library's run functions derive. */
SmartRefreshConfig
smartConfig(const ExperimentOptions &opts)
{
    SmartRefreshConfig sc;
    sc.counterBits = opts.counterBits;
    sc.segments = opts.segments;
    sc.queueCapacity = opts.segments;
    sc.autoReconfigure = opts.autoReconfigure;
    sc.sparseCounters = opts.sparseCounters;
    return sc;
}

double
percentileNs(const Histogram &h, double p)
{
    const double v = h.percentile(p);
    return std::isnan(v) ? 0.0 : v / static_cast<double>(kNanosecond);
}

/**
 * The library's reduction of a measurement-window delta to a
 * RunResult (experiment.cc keeps its own copy internal). The default
 * seed's reference and the self-tests compare the two.
 */
RunResult
reduce(const RunSpec &spec, const EnergySnapshot &delta,
       std::size_t maxBacklog, const Histogram &latency,
       std::uint64_t events)
{
    const BenchmarkProfile &profile = findProfile(spec.profile);
    RunResult r;
    r.benchmark = profile.name;
    r.suite = profile.suite;
    r.policy = toString(spec.policy);
    r.simSeconds = static_cast<double>(delta.tick) /
                   static_cast<double>(kSecond);
    r.refreshesPerSec =
        r.simSeconds > 0.0
            ? static_cast<double>(delta.refreshes) / r.simSeconds
            : 0.0;
    r.refreshEnergyJ = delta.refreshEnergy;
    r.totalEnergyJ = delta.totalEnergy();
    r.overheadJ = delta.overheadEnergy;
    r.latencySumSec = delta.latencySumTicks / static_cast<double>(kSecond);
    r.demandAccesses = delta.demandAccesses;
    r.avgLatencyNs =
        delta.demandAccesses > 0
            ? delta.latencySumTicks /
                  static_cast<double>(delta.demandAccesses) /
                  static_cast<double>(kNanosecond)
            : 0.0;
    r.violations = delta.violations;
    r.maxRefreshBacklog = maxBacklog;
    r.demandBlockedByRefreshTicks = delta.demandBlockedTicks;
    r.refreshStallsAvoided = delta.refreshStallsAvoided;
    r.subarrayConflicts = delta.subarrayConflicts;
    r.latencyP50Ns = percentileNs(latency, 0.50);
    r.latencyP95Ns = percentileNs(latency, 0.95);
    r.latencyP99Ns = percentileNs(latency, 0.99);
    r.eventsExecuted = events;
    return r;
}

void
countDram(DramModule &d, RunCounts &c)
{
    c.refreshes += d.totalRefreshes();
    c.dramCommands += d.activates() + d.precharges() + d.reads() +
                      d.writes() + d.cbrRefreshes() + d.rasOnlyRefreshes();
}

void
countSmart(SmartRefreshPolicy *p, RunCounts &c)
{
    if (!p)
        return;
    const CounterArray &ctr = p->counters();
    c.walkSteps += p->stagger().stepsExecuted();
    c.counterChecks += p->stagger().stepsExecuted() * p->stagger().segments();
    c.counterExpiries += p->smartRefreshesRequested();
    c.counterReads += ctr.sramReads() + ctr.summaryReads();
    c.counterWrites += ctr.sramWrites();
    c.counterBytes += ctr.residentCounterBytes();
}

using Sampler = SinkSampler<>;

/**
 * Conventional run over a ShardedSystem. One channel runs each window
 * in a single slice, exactly as runConventional's System::run does;
 * several channels use the library's lock-step epoch.
 */
AssembledRun
runSharded(const RunSpec &spec, SpanLog *log, int job, bool setupOnly)
{
    const DramConfig &dram = spec.dram;
    const ExperimentOptions &opts = spec.opts;
    const bool multi = dram.channels > 1;
    AssembledRun out;

    // sim.run span the sampled sink calls belong to; set between runs.
    int runSpan = -1;

    const std::int64_t setupStart = nowNs();
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = spec.policy;
    cfg.smart = smartConfig(opts);
    cfg.retentionClasses = opts.retentionClasses;
    std::unique_ptr<EnergyLedger> ledger;
    if (log) {
        ledger = std::make_unique<EnergyLedger>(EnergyLedger::Shape{
            dram.channels * dram.org.ranks, dram.org.banks});
        cfg.ledger = ledger.get();
    }
    ScopedSpan build(log, "harness.build", job);
    ShardedSystem sys(cfg, opts.shardJobs,
                      multi ? kDefaultShardEpoch : kTickMax);
    std::vector<std::unique_ptr<Sampler>> samplers;
    std::vector<std::unique_ptr<WorkloadModel>> models;
    const auto streams = workloadStreams(spec);
    for (std::uint32_t c = 0; c < dram.channels; ++c) {
        System &ch = sys.channel(c);
        const auto &params = streams[c];
        if (!log) {
            for (const auto &wp : params)
                ch.addWorkload(wp);
            continue;
        }
        const int track = multi && opts.shardJobs > 1 ? 1 + int(c) : 0;
        samplers.push_back(std::make_unique<Sampler>("ctrl.access", job,
                                                     track, &runSpan));
        Sampler *smp = samplers.back().get();
        MemoryController *ctrl = &ch.controller();
        for (const auto &wp : params) {
            models.push_back(std::make_unique<WorkloadModel>(
                wp, dram.org.rowBytes(),
                [ctrl, smp](Addr addr, bool write) {
                    smp->call([&] { ctrl->access(addr, write); });
                },
                ch.eventQueue(), &ch));
        }
    }
    for (auto &m : models)
        m->start();
    build.end();
    out.setupSeconds = secondsSince(setupStart);
    if (setupOnly)
        return out;

    const std::int64_t runStart = nowNs();
    const double runCpu = processCpuSeconds();
    const auto window = [&](Tick duration) {
        ScopedSpan run(log, "sim.run", job);
        runSpan = run.id();
        sys.run(duration);
    };
    window(opts.warmup);
    EnergySnapshot atWarm;
    {
        ScopedSpan merge(log, "harness.shard.merge", job);
        atWarm = sys.captureMergedSnapshot();
    }
    window(opts.measure);
    EnergySnapshot delta;
    {
        ScopedSpan finish(log, "dram.finish", job);
        const EnergySnapshot atEnd = sys.captureMergedSnapshot();
        const std::uint64_t stale = sys.finalCheck();
        delta = atEnd - atWarm;
        delta.violations += stale;
        out.counts.violations = atEnd.violations + stale;
    }
    {
        ScopedSpan merge(log, "harness.shard.merge", job);
        sys.mergeObservers();
        if (multi) {
            StatGroup scratch("sharded");
            const Histogram &shape =
                sys.channel(0).controller().latencyHistogram();
            Histogram latency(&scratch, "latency", "merged demand latency",
                              shape.bucketLo(), shape.bucketHi(),
                              shape.numBuckets());
            sys.mergeLatency(latency);
            out.result = reduce(spec, delta, sys.maxRefreshBacklog(),
                                latency, sys.eventsExecuted());
        } else {
            out.result = reduce(
                spec, delta, sys.maxRefreshBacklog(),
                sys.channel(0).controller().latencyHistogram(),
                sys.eventsExecuted());
        }
    }
    out.runSeconds = secondsSince(runStart);
    out.runCpuSeconds = processCpuSeconds() - runCpu;

    RunCounts &c = out.counts;
    c.events = sys.eventsExecuted();
    c.maxBacklog = sys.maxRefreshBacklog();
    for (std::uint32_t ch = 0; ch < dram.channels; ++ch) {
        System &s = sys.channel(ch);
        countDram(s.dram(), c);
        countSmart(s.smartPolicy(), c);
        if (log) {
            ScopedSpan check(log, "bench.check", job);
            c.ledgerConserved =
                s.dram().verifyLedger(false) && c.ledgerConserved;
        }
    }
    for (const auto &m : models)
        c.accessesGenerated += m->accessesIssued();
    for (const auto &smp : samplers) {
        c.ctrlAccessCalls += smp->calls();
        c.ctrlAccessNs += smp->estimatedNs();
        for (const Span &s : smp->sampled())
            log->add(s);
    }
    return out;
}

/** 3D die-stacked run, mirroring runThreeD. */
AssembledRun
runStacked(const RunSpec &spec, SpanLog *log, int job, bool setupOnly)
{
    const ExperimentOptions &opts = spec.opts;
    AssembledRun out;
    int runSpan = -1;

    const std::int64_t setupStart = nowNs();
    ThreeDSystemConfig cfg;
    cfg.threeD = spec.dram;
    cfg.threeDPolicy = spec.policy;
    cfg.smart = smartConfig(opts);
    cfg.retentionClasses = opts.retentionClasses;
    std::unique_ptr<EnergyLedger> ledger;
    if (log) {
        ledger = std::make_unique<EnergyLedger>(EnergyLedger::Shape{
            spec.dram.org.ranks, spec.dram.org.banks});
        cfg.ledger = ledger.get();
    }
    ScopedSpan build(log, "harness.build", job);
    ThreeDSystem sys(cfg);
    std::unique_ptr<Sampler> sampler;
    std::vector<std::unique_ptr<WorkloadModel>> models;
    const auto params = workloadStreams(spec).front();
    if (!log) {
        for (const auto &wp : params)
            sys.addWorkload(wp);
    } else {
        sampler = std::make_unique<Sampler>("cache.access", job, 0,
                                            &runSpan);
        Sampler *smp = sampler.get();
        DramCache *cache = &sys.cache();
        for (const auto &wp : params) {
            models.push_back(std::make_unique<WorkloadModel>(
                wp, spec.dram.org.rowBytes(),
                [cache, smp](Addr addr, bool write) {
                    smp->call([&] { cache->access(addr, write); });
                },
                sys.eventQueue(), &sys));
        }
    }
    for (auto &m : models)
        m->start();
    build.end();
    out.setupSeconds = secondsSince(setupStart);
    if (setupOnly)
        return out;

    const std::int64_t runStart = nowNs();
    const double runCpu = processCpuSeconds();
    const auto window = [&](Tick duration) {
        ScopedSpan run(log, "sim.run", job);
        runSpan = run.id();
        sys.run(duration);
    };
    window(opts.warmup);
    EnergySnapshot atWarm;
    {
        ScopedSpan snap(log, "harness.snapshot", job);
        atWarm = captureSnapshot(sys);
    }
    window(opts.measure);
    EnergySnapshot delta;
    {
        ScopedSpan finish(log, "dram.finish", job);
        const EnergySnapshot atEnd = captureSnapshot(sys);
        const std::uint64_t stale =
            sys.threeDDram().retention().finalCheck(sys.eventQueue().now());
        delta = atEnd - atWarm;
        delta.violations += stale;
        out.counts.violations = atEnd.violations + stale;
    }
    {
        ScopedSpan snap(log, "harness.snapshot", job);
        out.result = reduce(spec, delta,
                            sys.threeDController().maxRefreshBacklog(),
                            sys.threeDController().latencyHistogram(),
                            sys.eventQueue().executed());
    }
    out.runSeconds = secondsSince(runStart);
    out.runCpuSeconds = processCpuSeconds() - runCpu;

    RunCounts &c = out.counts;
    c.events = sys.eventQueue().executed();
    c.maxBacklog = sys.threeDController().maxRefreshBacklog();
    countDram(sys.threeDDram(), c);
    countDram(sys.mainDram(), c);
    countSmart(sys.smartPolicy(), c);
    c.cacheHits = sys.cache().hits();
    c.cacheMisses = sys.cache().misses();
    if (log) {
        ScopedSpan check(log, "bench.check", job);
        c.ledgerConserved = sys.threeDDram().verifyLedger(false);
    }
    for (const auto &m : models)
        c.accessesGenerated += m->accessesIssued();
    if (sampler) {
        c.cacheAccessCalls = sampler->calls();
        c.cacheAccessNs = sampler->estimatedNs();
        for (const Span &s : sampler->sampled())
            log->add(s);
    }
    return out;
}

} // namespace

std::vector<std::vector<WorkloadParams>>
workloadStreams(const RunSpec &spec)
{
    const BenchmarkProfile &profile = findProfile(spec.profile);
    const std::uint64_t seed = spec.opts.seed;
    if (spec.threeD)
        return {threeDParams(profile, spec.dram, seed)};
    DramConfig ch = spec.dram;
    ch.channels = 1;
    const bool multi = spec.dram.channels > 1;
    std::vector<std::vector<WorkloadParams>> streams;
    for (std::uint32_t c = 0; c < spec.dram.channels; ++c) {
        // runConventional seeds a lone channel with the base seed;
        // runShardedConventional derives one seed per channel.
        streams.push_back(conventionalParams(
            profile, ch, spec.absRowScale,
            multi ? shardChannelSeed(seed, c) : seed));
    }
    return streams;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

AssembledRun
runAssembled(const RunSpec &spec, SpanLog *log, int job)
{
    return spec.threeD ? runStacked(spec, log, job, false)
                       : runSharded(spec, log, job, false);
}

double
setupSeconds(const RunSpec &spec)
{
    return (spec.threeD ? runStacked(spec, nullptr, 0, true)
                        : runSharded(spec, nullptr, 0, true))
        .setupSeconds;
}

RunResult
runLibrary(const RunSpec &spec)
{
    const BenchmarkProfile &profile = findProfile(spec.profile);
    return spec.threeD ? runThreeD(profile, spec.dram, spec.policy, spec.opts)
                       : runConventional(profile, spec.dram, spec.policy,
                                         spec.opts, spec.absRowScale);
}

std::string
resultJson(const RunResult &r, bool withEvents)
{
    std::ostringstream os;
    writeRunResultJson(os, r);
    std::string s = os.str();
    if (!withEvents) {
        const auto pos = s.rfind(",\"eventsExecuted\":");
        if (pos != std::string::npos)
            s = s.substr(0, pos) + "}";
    }
    return s;
}

} // namespace perfbench
