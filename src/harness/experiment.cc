#include "harness/experiment.hh"

#include <cmath>
#include <iostream>

#include "dram/energy_ledger.hh"
#include "harness/sharded.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/mini_json.hh"

namespace smartref {

EnergySnapshot
operator-(const EnergySnapshot &b, const EnergySnapshot &a)
{
    EnergySnapshot d;
    d.tick = b.tick - a.tick;
    std::apply([&](auto... m) { ((d.*m = b.*m - a.*m), ...); },
               kSnapshotSums);
    return d;
}

EnergySnapshot
captureSnapshot(System &sys)
{
    sys.dram().finalize();
    EnergySnapshot s;
    s.tick = sys.eventQueue().now();
    s.refreshes = sys.dram().totalRefreshes();
    const auto &p = sys.dram().power();
    s.refreshEnergy = p.refreshEnergy();
    s.actEnergy = p.activateEnergy();
    s.readEnergy = p.readEnergy();
    s.writeEnergy = p.writeEnergy();
    s.backgroundEnergy = p.backgroundEnergy();
    s.overheadEnergy = sys.refreshPolicy().overheadEnergy();
    s.violations = sys.dram().retention().violations();
    if (const DramCache *cache = sys.cache()) {
        s.demandAccesses = cache->demandAccesses();
        s.latencySumTicks = cache->latencySum();
        s.cacheHits = cache->hits();
        s.violations += sys.mainDram()->retention().violations();
    } else {
        s.demandAccesses = sys.controller().demandReads() +
                           sys.controller().demandWrites();
        s.latencySumTicks = sys.controller().latencySumTicks();
    }
    s.demandBlockedTicks = sys.controller().demandBlockedTicks();
    s.refreshStallsAvoided = sys.controller().refreshStallsAvoided();
    s.subarrayConflicts = sys.controller().subarrayConflicts();
    return s;
}

namespace {

/** NaN-safe percentile in ns (empty histograms report 0, not NaN,
 *  because NaN would render as invalid JSON via jsonNumber). */
double
percentileNs(const Histogram &h, double p)
{
    const double v = h.percentile(p);
    return std::isnan(v) ? 0.0 : v / static_cast<double>(kNanosecond);
}

RunResult
reduce(const std::string &benchmark, const std::string &suite,
       const std::string &policy, const EnergySnapshot &delta,
       std::size_t maxBacklog, const Histogram *latency)
{
    RunResult r;
    r.benchmark = benchmark;
    r.suite = suite;
    r.policy = policy;
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
    if (latency) {
        r.latencyP50Ns = percentileNs(*latency, 0.50);
        r.latencyP95Ns = percentileNs(*latency, 0.95);
        r.latencyP99Ns = percentileNs(*latency, 0.99);
    }
    return r;
}

} // namespace

SmartRefreshConfig
ExperimentOptions::smartConfig() const
{
    SmartRefreshConfig sc;
    sc.counterBits = counterBits;
    sc.segments = segments;
    sc.queueCapacity = segments;
    sc.autoReconfigure = autoReconfigure;
    sc.sparseCounters = sparseCounters;
    return sc;
}

RunResult
runConventional(const BenchmarkProfile &profile, const DramConfig &dram,
                PolicyKind policy, const ExperimentOptions &opts,
                double absRowScale)
{
    if (opts.verbose) {
        std::cerr << "  [" << dram.name << "/" << toString(policy);
        if (dram.channels > 1)
            std::cerr << "/" << dram.channels << "ch";
        std::cerr << "] " << profile.name << "..." << std::endl;
    }
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = policy;
    cfg.smart = opts.smartConfig();
    cfg.heatmap = opts.heatmap;
    cfg.audit = opts.audit;
    cfg.ledger = opts.ledger;
    cfg.retentionClasses = opts.retentionClasses;
    std::unique_ptr<EnergyLedger> checkLedger;
    if (opts.checkConservation && !cfg.ledger) {
        checkLedger = std::make_unique<EnergyLedger>(EnergyLedger::Shape{
            dram.channels * dram.org.ranks, dram.org.banks});
        cfg.ledger = checkLedger.get();
    }
    ShardedSystem sys(cfg, opts.shardJobs);

    DramConfig chDram = dram;
    chDram.channels = 1;
    for (std::uint32_t c = 0; c < dram.channels; ++c) {
        for (const auto &wp :
             workloadParams(profile, chDram, absRowScale,
                            sys.channelSeed(opts.seed, c))) {
            sys.channel(c).addWorkload(wp);
        }
    }

    sys.run(opts.warmup);
    const EnergySnapshot atWarm = sys.captureMergedSnapshot();
    sys.run(opts.measure);
    const EnergySnapshot atEnd = sys.captureMergedSnapshot();

    const std::uint64_t stale = sys.finalCheck();
    EnergySnapshot delta = atEnd - atWarm;
    delta.violations += stale;

    if (opts.checkConservation)
        sys.verifyLedgers(true);
    sys.mergeObservers();

    // Whole-run latency percentiles over all channels' demand traffic.
    StatGroup scratch("sharded");
    const Histogram &shape = sys.channel(0).controller().latencyHistogram();
    Histogram latency(&scratch, "latency", "merged demand latency",
                      shape.bucketLo(), shape.bucketHi(),
                      shape.numBuckets());
    sys.mergeLatency(latency);

    RunResult r = reduce(profile.name, profile.suite, toString(policy),
                         delta, sys.maxRefreshBacklog(), &latency);
    r.eventsExecuted = sys.eventsExecuted();
    return r;
}

ComparisonResult
comparePolicy(const BenchmarkProfile &profile, const DramConfig &dram,
              PolicyKind policy, const ExperimentOptions &opts,
              double absRowScale)
{
    ExperimentOptions baseOpts = opts;
    baseOpts.heatmap = nullptr;
    baseOpts.audit = nullptr;
    baseOpts.ledger = nullptr;
    baseOpts.retentionClasses = nullptr;

    ComparisonResult c;
    c.benchmark = profile.name;
    c.suite = profile.suite;
    c.baseline =
        runConventional(profile, dram, PolicyKind::Cbr, baseOpts, absRowScale);
    c.smart = runConventional(profile, dram, policy, opts, absRowScale);
    return c;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, 1e-12));
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
writeRunResultJson(std::ostream &os, const RunResult &r, bool sweepSubset)
{
    char sep = '{';
    forEachRunField(
        [&](const char *name, bool inSweep, const auto &v) {
            if (sweepSubset && !inSweep)
                return;
            os << sep << '"' << name << "\":";
            sep = ',';
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                         std::string>)
                os << jsonQuoted(v);
            else
                os << runFieldText(v);
        },
        r);
    os << '}';
}

RunResult
runResultFromJson(const minijson::Value &v)
{
    RunResult r;
    forEachRunField(
        [&](const char *name, bool, auto &m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, std::string>)
                m = v.stringAt(name);
            else if constexpr (std::is_floating_point_v<T>)
                m = v.numberAt(name);
            else
                m = v.countAt(name);
        },
        r);
    return r;
}

} // namespace smartref
