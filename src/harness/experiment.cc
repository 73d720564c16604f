#include "harness/experiment.hh"

#include <cmath>
#include <iostream>
#include <stdexcept>

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
    d.refreshes = b.refreshes - a.refreshes;
    d.refreshEnergy = b.refreshEnergy - a.refreshEnergy;
    d.actEnergy = b.actEnergy - a.actEnergy;
    d.readEnergy = b.readEnergy - a.readEnergy;
    d.writeEnergy = b.writeEnergy - a.writeEnergy;
    d.backgroundEnergy = b.backgroundEnergy - a.backgroundEnergy;
    d.overheadEnergy = b.overheadEnergy - a.overheadEnergy;
    d.demandAccesses = b.demandAccesses - a.demandAccesses;
    d.latencySumTicks = b.latencySumTicks - a.latencySumTicks;
    d.violations = b.violations - a.violations;
    d.demandBlockedTicks = b.demandBlockedTicks - a.demandBlockedTicks;
    d.refreshStallsAvoided =
        b.refreshStallsAvoided - a.refreshStallsAvoided;
    d.subarrayConflicts = b.subarrayConflicts - a.subarrayConflicts;
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
    s.demandAccesses =
        sys.controller().demandReads() + sys.controller().demandWrites();
    s.latencySumTicks = sys.controller().latencySumTicks();
    s.violations = sys.dram().retention().violations();
    s.demandBlockedTicks = sys.controller().demandBlockedTicks();
    s.refreshStallsAvoided = sys.controller().refreshStallsAvoided();
    s.subarrayConflicts = sys.controller().subarrayConflicts();
    return s;
}

EnergySnapshot
captureSnapshot(ThreeDSystem &sys)
{
    sys.threeDDram().finalize();
    EnergySnapshot s;
    s.tick = sys.eventQueue().now();
    s.refreshes = sys.threeDDram().totalRefreshes();
    const auto &p = sys.threeDDram().power();
    s.refreshEnergy = p.refreshEnergy();
    s.actEnergy = p.activateEnergy();
    s.readEnergy = p.readEnergy();
    s.writeEnergy = p.writeEnergy();
    s.backgroundEnergy = p.backgroundEnergy();
    s.overheadEnergy = sys.threeDPolicy().overheadEnergy();
    s.demandAccesses = sys.cache().demandAccesses();
    s.latencySumTicks = sys.cache().latencySum();
    s.violations = sys.threeDDram().retention().violations() +
                   sys.mainDram().retention().violations();
    s.demandBlockedTicks = sys.threeDController().demandBlockedTicks();
    s.refreshStallsAvoided =
        sys.threeDController().refreshStallsAvoided();
    s.subarrayConflicts = sys.threeDController().subarrayConflicts();
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

} // namespace

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
    cfg.smart = smartConfig(opts);
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
             conventionalParams(profile, chDram, absRowScale,
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

RunResult
runThreeD(const BenchmarkProfile &profile, const DramConfig &threeD,
          PolicyKind policy, const ExperimentOptions &opts)
{
    if (opts.verbose) {
        std::cerr << "  [" << threeD.name << "/" << toString(policy)
                  << "] " << profile.name << "..." << std::endl;
    }
    ThreeDSystemConfig cfg;
    cfg.threeD = threeD;
    cfg.threeDPolicy = policy;
    cfg.smart = smartConfig(opts);
    cfg.heatmap = opts.heatmap;
    cfg.audit = opts.audit;
    cfg.ledger = opts.ledger;
    cfg.retentionClasses = opts.retentionClasses;
    std::unique_ptr<EnergyLedger> checkLedger;
    if (opts.checkConservation && !cfg.ledger) {
        checkLedger = std::make_unique<EnergyLedger>(
            EnergyLedger::Shape{threeD.org.ranks, threeD.org.banks});
        cfg.ledger = checkLedger.get();
    }
    ThreeDSystem sys(cfg);
    for (const auto &wp : threeDParams(profile, threeD, opts.seed))
        sys.addWorkload(wp);

    sys.run(opts.warmup);
    const EnergySnapshot atWarm = captureSnapshot(sys);
    sys.run(opts.measure);
    const EnergySnapshot atEnd = captureSnapshot(sys);

    const std::uint64_t stale =
        sys.threeDDram().retention().finalCheck(sys.eventQueue().now());
    EnergySnapshot delta = atEnd - atWarm;
    delta.violations += stale;

    if (opts.checkConservation)
        sys.threeDDram().verifyLedger(true);

    RunResult r =
        reduce(profile.name, profile.suite, toString(policy), delta,
               sys.threeDController().maxRefreshBacklog(),
               &sys.threeDController().latencyHistogram());
    r.eventsExecuted = sys.eventQueue().executed();
    return r;
}

ComparisonResult
comparePolicy(const BenchmarkProfile &profile, const DramConfig &dram,
              PolicyKind policy, bool threeD, const ExperimentOptions &opts,
              double absRowScale)
{
    const auto run = [&](PolicyKind kind, const ExperimentOptions &o) {
        return threeD ? runThreeD(profile, dram, kind, o)
                      : runConventional(profile, dram, kind, o,
                                        absRowScale);
    };
    ExperimentOptions baseOpts = opts;
    baseOpts.heatmap = nullptr;
    baseOpts.audit = nullptr;
    baseOpts.ledger = nullptr;
    baseOpts.retentionClasses = nullptr;

    ComparisonResult c;
    c.benchmark = profile.name;
    c.suite = profile.suite;
    c.baseline = run(PolicyKind::Cbr, baseOpts);
    c.smart = run(policy, opts);
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

namespace {

double
requiredNumber(const minijson::Value &v, const char *name)
{
    const minijson::Value &m = v.at(name);
    if (!m.isNumber())
        throw std::runtime_error(std::string("member '") + name +
                                 "' is not a number");
    return m.number;
}

} // namespace

void
writeRunResultJson(std::ostream &os, const RunResult &r)
{
    os << "{\"benchmark\":" << jsonQuoted(r.benchmark)
       << ",\"suite\":" << jsonQuoted(r.suite)
       << ",\"policy\":" << jsonQuoted(r.policy)
       << ",\"simSeconds\":" << jsonNumber(r.simSeconds)
       << ",\"refreshesPerSec\":" << jsonNumber(r.refreshesPerSec)
       << ",\"refreshEnergyJ\":" << jsonNumber(r.refreshEnergyJ)
       << ",\"totalEnergyJ\":" << jsonNumber(r.totalEnergyJ)
       << ",\"overheadJ\":" << jsonNumber(r.overheadJ)
       << ",\"avgLatencyNs\":" << jsonNumber(r.avgLatencyNs)
       << ",\"latencySumSec\":" << jsonNumber(r.latencySumSec)
       << ",\"latencyP50Ns\":" << jsonNumber(r.latencyP50Ns)
       << ",\"latencyP95Ns\":" << jsonNumber(r.latencyP95Ns)
       << ",\"latencyP99Ns\":" << jsonNumber(r.latencyP99Ns)
       << ",\"demandBlockedByRefreshTicks\":"
       << jsonNumber(r.demandBlockedByRefreshTicks)
       << ",\"refreshStallsAvoided\":" << r.refreshStallsAvoided
       << ",\"subarrayConflicts\":" << r.subarrayConflicts
       << ",\"demandAccesses\":" << r.demandAccesses
       << ",\"violations\":" << r.violations
       << ",\"maxRefreshBacklog\":" << r.maxRefreshBacklog
       << ",\"eventsExecuted\":" << r.eventsExecuted << "}";
}

RunResult
runResultFromJson(const minijson::Value &v)
{
    RunResult r;
    r.benchmark = v.at("benchmark").str;
    r.suite = v.at("suite").str;
    r.policy = v.at("policy").str;
    r.simSeconds = requiredNumber(v, "simSeconds");
    r.refreshesPerSec = requiredNumber(v, "refreshesPerSec");
    r.refreshEnergyJ = requiredNumber(v, "refreshEnergyJ");
    r.totalEnergyJ = requiredNumber(v, "totalEnergyJ");
    r.overheadJ = requiredNumber(v, "overheadJ");
    r.avgLatencyNs = requiredNumber(v, "avgLatencyNs");
    r.latencySumSec = requiredNumber(v, "latencySumSec");
    r.latencyP50Ns = requiredNumber(v, "latencyP50Ns");
    r.latencyP95Ns = requiredNumber(v, "latencyP95Ns");
    r.latencyP99Ns = requiredNumber(v, "latencyP99Ns");
    r.demandBlockedByRefreshTicks =
        requiredNumber(v, "demandBlockedByRefreshTicks");
    r.refreshStallsAvoided = static_cast<std::uint64_t>(
        requiredNumber(v, "refreshStallsAvoided"));
    r.subarrayConflicts = static_cast<std::uint64_t>(
        requiredNumber(v, "subarrayConflicts"));
    r.demandAccesses =
        static_cast<std::uint64_t>(requiredNumber(v, "demandAccesses"));
    r.violations =
        static_cast<std::uint64_t>(requiredNumber(v, "violations"));
    r.maxRefreshBacklog =
        static_cast<std::size_t>(requiredNumber(v, "maxRefreshBacklog"));
    r.eventsExecuted =
        static_cast<std::uint64_t>(requiredNumber(v, "eventsExecuted"));
    return r;
}

} // namespace smartref
