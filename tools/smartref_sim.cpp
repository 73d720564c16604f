/**
 * @file
 * smartref_sim — the standalone simulator frontend.
 *
 * Runs one (configuration, refresh policy, workload) combination and
 * prints a summary plus, optionally, the full statistics tree. The
 * workload can be a named benchmark profile, the idle/light special
 * profiles, or a recorded trace file (DRAMsim-style trace-driven mode).
 *
 * Usage: see kUsage below (printed by --help / -h).
 */

#include <bit>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ctrl/refresh_audit.hh"
#include "ctrl/refresh_heatmap.hh"
#include "dram/energy_ledger.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sharded.hh"
#include "sim/interval_stats.hh"
#include "sim/provenance.hh"
#include "sim/stats_json.hh"
#include "sim/suggest.hh"
#include "sim/tracer.hh"
#include "trace/trace.hh"

using namespace smartref;

namespace {

constexpr const char *kUsage = R"(usage:
  smartref_sim [--config 2gb|4gb|128gb|256gb|512gb|3d64|3d64-32ms|
                         3d32|edram]
               [--policy cbr|burst|ras-only|per-bank|smart|
                         retention-aware]
               [--parallelism none|refpb|darp|sarp|all]
                                     refresh-access parallelism mode
               [--classes]           RAPID-style retention classes
               [--sparse-counters]   lazily-chunked counter array
               [-j N]                shard workers for multi-channel
                                     configs (aggregates are
                                     byte-identical for any N)
               [--benchmark NAME | --idle | --light | --trace FILE]
               [--threed]            use the 3D cache system assembly
               [--warmup-ms N] [--measure-ms N]
               [--bits B] [--segments N] [--no-auto] [--seed S]
               [--scheme row-rank-bank|row-bank-rank|rank-bank-row]
               [--stats-out FILE]    dump the full statistics tree
               [--stats-json FILE]   machine-readable statistics dump
               [--stats-interval-ms N]  per-interval time series
               [--stats-interval-out FILE]
               [--interval-cols LIST]  extra interval columns by dotted
                                     stat path (validated up front)
               [--heatmap-out FILE]  spatial refresh heatmap JSON
                                     (+ .csv sibling)
               [--audit-out FILE]    binary refresh decision audit trail
               [--audit-json FILE]   NDJSON audit trail
               [--ledger-out FILE]   energy attribution ledger JSON
               [--ledger-csv FILE]   per-interval ledger grid CSV
               [--ledger-check FILE] conservation-check JSON (for
                                     smartref_statdiff --subset)
               [--check-conservation]  verify the ledger invariant
               [--trace-out FILE]    Chrome trace_event JSON timeline
               [--trace-csv FILE]    compact CSV timeline
               [--trace-categories LIST]  e.g. refresh,counter (def all)
               [--log-level silent|warn|info|debug]
               [--list]              list benchmark profiles and exit
               [--version]           print the provenance build block
               [--help | -h]         print this usage and exit
)";

AddressScheme
schemeByName(const std::string &name)
{
    if (name == "row-rank-bank")
        return AddressScheme::RowRankBankColumn;
    if (name == "row-bank-rank")
        return AddressScheme::RowBankRankColumn;
    if (name == "rank-bank-row")
        return AddressScheme::RankBankRowColumn;
    SMARTREF_FATAL("unknown scheme '", name, "'");
}

void
listProfiles()
{
    ReportTable table({"benchmark", "suite", "2GB coverage",
                       "3D coverage", "reads", "run length"});
    for (const auto &p : allProfiles()) {
        table.addRow({p.name, p.suite, fmtPercent(p.reduction2gb),
                      fmtPercent(p.reduction3d),
                      fmtPercent(p.readFraction),
                      std::to_string(p.accessesPerVisit)});
    }
    table.print(std::cout);
}

void
printSummary(const std::string &label, const EnergySnapshot &d,
             std::size_t backlog, double hitRate, bool isCache)
{
    const double seconds =
        static_cast<double>(d.tick) / static_cast<double>(kSecond);
    ReportTable table({"metric", "value"});
    table.addRow({"measured window (ms)", fmtDouble(seconds * 1e3, 1)});
    table.addRow({"refreshes/s",
                  fmtMillions(static_cast<double>(d.refreshes) / seconds) +
                      " M"});
    table.addRow({"demand accesses", std::to_string(d.demandAccesses)});
    if (isCache)
        table.addRow({"cache hit rate", fmtPercent(hitRate)});
    table.addRow(
        {"avg demand latency (ns)",
         fmtDouble(d.demandAccesses
                       ? d.latencySumTicks /
                             static_cast<double>(d.demandAccesses) / 1e3
                       : 0.0,
                   1)});
    table.addRow({"refresh energy (mJ)", fmtDouble(d.refreshEnergy * 1e3)});
    table.addRow({"activate energy (mJ)", fmtDouble(d.actEnergy * 1e3)});
    table.addRow({"read/write energy (mJ)",
                  fmtDouble((d.readEnergy + d.writeEnergy) * 1e3)});
    table.addRow(
        {"background energy (mJ)", fmtDouble(d.backgroundEnergy * 1e3)});
    table.addRow(
        {"policy overhead (mJ)", fmtDouble(d.overheadEnergy * 1e3)});
    table.addRow({"total energy (mJ)", fmtDouble(d.totalEnergy() * 1e3)});
    table.addRow({"max refresh backlog", std::to_string(backlog)});
    table.addRow({"retention violations", std::to_string(d.violations)});
    std::cout << "\n=== " << label << " ===\n";
    table.print(std::cout);
}

/** Attach the sinks and category filter requested on the command line. */
void
configureTracer(const CliArgs &args)
{
    Tracer &tracer = globalTracer();
    tracer.setCategories(parseTraceCategories(args.traceCategories()));
    if (!args.traceOutPath().empty())
        tracer.addSink(
            std::make_unique<ChromeTraceSink>(args.traceOutPath()));
    if (!args.traceCsvPath().empty())
        tracer.addSink(
            std::make_unique<CsvTraceSink>(args.traceCsvPath()));
}

/** Split a comma-separated list, dropping empty tokens. */
std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::string token;
    std::istringstream in(list);
    while (std::getline(in, token, ','))
        if (!token.empty())
            out.push_back(token);
    return out;
}

/** Every full dotted stat path below @p group, for did-you-mean. */
void
collectStatPaths(const StatGroup &group, const std::string &prefix,
                 std::vector<std::string> &out)
{
    for (const StatBase *stat : group.stats())
        out.push_back(prefix + stat->name());
    for (const StatGroup *child : group.children())
        collectStatPaths(*child, prefix + child->statName() + ".", out);
}

/**
 * Build the interval sampler (when --stats-interval-ms is given) with
 * the standard refresh-dynamics columns plus any --interval-cols dotted
 * stat paths (validated before the run starts), and start it.
 */
std::unique_ptr<IntervalStats>
makeSampler(const CliArgs &args, const StatGroup &root, EventQueue &eq,
            MemoryController &ctrl, DramModule &dram,
            SmartRefreshPolicy *smart)
{
    const std::uint64_t ms = args.statsIntervalMs();
    const std::string cols = args.getString("interval-cols");
    if (ms == 0) {
        if (!cols.empty())
            SMARTREF_FATAL("--interval-cols requires --stats-interval-ms");
        return nullptr;
    }
    auto sampler =
        std::make_unique<IntervalStats>(eq, Tick(ms) * kMillisecond);
    sampler->addDelta("refreshes", [&dram] {
        return static_cast<double>(dram.totalRefreshes());
    });
    sampler->addDelta("demandAccesses", [&ctrl] {
        return static_cast<double>(ctrl.demandReads() +
                                   ctrl.demandWrites());
    });
    sampler->addDelta("rowHits", [&ctrl] {
        return static_cast<double>(ctrl.rowHits());
    });
    sampler->addGauge("refreshBacklog", [&ctrl] {
        return static_cast<double>(ctrl.refreshBacklog());
    });
    if (smart) {
        // Policy-internal stats are found by dotted path; the group is
        // named "refresh.smart" so this also exercises greedy matching.
        if (const StatBase *s =
                smart->resolveStat("refresh.smart.touchesDeferred")) {
            sampler->addDelta("touchesDeferred",
                              [s] { return statValue(*s); });
        }
    }
    for (const std::string &path : splitCommas(cols)) {
        const StatBase *s = root.resolveStat(path);
        if (!s) {
            std::vector<std::string> names;
            collectStatPaths(root,
                             root.statName().empty()
                                 ? ""
                                 : root.statName() + ".",
                             names);
            SMARTREF_FATAL("unknown stat path '", path, "'",
                           didYouMean(path, names));
        }
        sampler->addDelta(path, [s] { return statValue(*s); });
    }
    sampler->start();
    return sampler;
}

/**
 * Verify and drain the optional audit / ledger artifacts.
 * The overhead lump joins the ledger here because it is an analytic
 * per-run quantity the DRAM module never sees. @p dram is null for
 * multi-channel runs, whose caller has already verified every
 * channel's ledger.
 */
void
finishLedgerAudit(const CliArgs &args, const DramModule *dram,
                  double overheadJoules, const RefreshAudit *audit,
                  EnergyLedger *ledger, const std::string &configHash)
{
    if (ledger) {
        ledger->setOverhead(overheadJoules);
        if (args.has("check-conservation") && dram) {
            dram->verifyLedger(true);
            std::cout << "energy conservation verified on '"
                      << dram->statName()
                      << "' (ledger == power stats)\n";
        }
        RunMeta meta;
        meta.schema = "smartref-ledger-v1";
        meta.configHash = configHash;
        if (!args.ledgerOutPath().empty()) {
            ledger->writeJson(args.ledgerOutPath(), metaJson(meta));
            std::cout << "energy ledger written to "
                      << args.ledgerOutPath() << "\n";
        }
        if (!args.ledgerCsvPath().empty()) {
            ledger->writeCsv(args.ledgerCsvPath());
            std::cout << "energy ledger CSV written to "
                      << args.ledgerCsvPath() << "\n";
        }
        if (!args.ledgerCheckPath().empty()) {
            SMARTREF_ASSERT(dram,
                            "--ledger-check needs a single-module run");
            RunMeta checkMeta;
            checkMeta.schema = "smartref-stats-v1";
            checkMeta.configHash = configHash;
            ledger->writeConservationCheckJson(
                args.ledgerCheckPath(), dram->power().fullStatName(),
                metaJson(checkMeta));
            std::cout << "conservation check written to "
                      << args.ledgerCheckPath() << "\n";
        }
    }
    if (audit) {
        if (!args.auditOutPath().empty()) {
            audit->writeBinary(args.auditOutPath());
            std::cout << "audit trail (" << audit->total()
                      << " records) written to " << args.auditOutPath()
                      << "\n";
        }
        if (!args.auditJsonPath().empty()) {
            audit->writeNdjson(args.auditJsonPath());
            std::cout << "audit NDJSON (" << audit->total()
                      << " records) written to " << args.auditJsonPath()
                      << "\n";
        }
    }
}

/** End-of-run observability output: interval CSV, JSON stats, heatmap,
 *  flush. `configHash` ties every artifact to the same run provenance. */
void
finishObservability(const CliArgs &args, const StatGroup &root,
                    IntervalStats *sampler, const std::string &configHash,
                    const RefreshHeatmap *heatmap)
{
    if (sampler) {
        sampler->finish();
        std::string path = args.statsIntervalPath();
        if (path.empty())
            path = "stats_intervals.csv";
        sampler->writeCsv(path);
        std::cout << "interval statistics written to " << path << "\n";
    }
    if (!args.statsJsonPath().empty()) {
        RunMeta meta;
        meta.schema = "smartref-stats-v1";
        meta.configHash = configHash;
        writeStatsJson(root, args.statsJsonPath(), metaJson(meta));
        std::cout << "JSON statistics written to "
                  << args.statsJsonPath() << "\n";
    }
    if (heatmap) {
        const std::string path = args.heatmapOutPath();
        std::ofstream out(path);
        if (!out)
            SMARTREF_FATAL("cannot write heatmap JSON '", path, "'");
        RunMeta meta;
        meta.schema = "smartref-heatmap-v1";
        meta.configHash = configHash;
        out << "{\"schema\":\"smartref-heatmap-v1\",\"meta\":"
            << metaJson(meta) << ",\"heatmap\":";
        heatmap->writeJson(out);
        out << "}\n";
        std::filesystem::path csvPath(path);
        csvPath.replace_extension(".csv");
        std::ofstream csv(csvPath);
        if (!csv)
            SMARTREF_FATAL("cannot write heatmap CSV '",
                           csvPath.string(), "'");
        heatmap->writeCsv(csv);
        std::cout << "heatmap written to " << path << " and "
                  << csvPath.string() << "\n";
    }
    globalTracer().flush();
}

int
run(int argc, char **argv)
{
    if (helpRequested(argc, argv)) {
        std::cout << kUsage;
        return 0;
    }
    CliArgs args(argc, argv);
    if (args.has("version")) {
        std::cout << versionText("smartref_sim");
        return 0;
    }
    if (args.has("list")) {
        listProfiles();
        return 0;
    }

    const ExperimentOptions opts = args.experimentOptions();
    setLogLevel(opts.logLevel);
    configureTracer(args);
    DramConfig dram = dramConfigByName(args.getString("config", "2gb"));
    if (args.has("parallelism"))
        dram.parallelism =
            parallelismFromString(args.getString("parallelism"));
    const PolicyKind policy =
        policyFromString(args.getString("policy", "smart"));
    const std::string tracePath = args.getString("trace");
    const std::string statsOut = args.getString("stats-out");
    const bool threed = args.has("threed");

    SmartRefreshConfig smart;
    smart.counterBits = opts.counterBits;
    smart.segments = opts.segments;
    smart.queueCapacity = opts.segments;
    smart.autoReconfigure = opts.autoReconfigure;
    smart.sparseCounters = opts.sparseCounters;

    // Every artifact of this run (stats JSON, heatmap) carries the same
    // configuration hash so they can be attributed to one experiment.
    std::ostringstream cfgKey;
    cfgKey << "config=" << dram.name << ";policy=" << toString(policy)
           << ";threed=" << (threed ? 1 : 0);
    // Same convention as sweepConfigHash: the historical default mode
    // leaves pre-parallelism hashes untouched.
    if (dram.parallelism != RefreshParallelism::PerBank)
        cfgKey << ";par=" << toString(dram.parallelism);
    // Same stability convention: sparse counters change the modeled
    // SRAM traffic, so they enter the hash only when switched on.
    if (opts.sparseCounters)
        cfgKey << ";sparse=1";
    cfgKey << ";classes=" << (args.has("classes") ? 1 : 0)
           << ";bits=" << opts.counterBits
           << ";segments=" << opts.segments
           << ";autoReconfigure=" << (opts.autoReconfigure ? 1 : 0)
           << ";warmupMs=" << opts.warmup / kMillisecond
           << ";measureMs=" << opts.measure / kMillisecond
           << ";seed=" << opts.seed << ";workload="
           << (tracePath.empty() ? args.getString("benchmark", "mummer")
                                 : "trace:" + tracePath);
    const std::string configHash = hex64(fnv1a64(cfgKey.str()));

    const bool wantAudit =
        !args.auditOutPath().empty() || !args.auditJsonPath().empty();
    std::unique_ptr<RefreshAudit> audit;
    if (wantAudit) {
        audit = std::make_unique<RefreshAudit>(RefreshAudit::Shape{
            dram.org.ranks, dram.org.banks, dram.org.rows});
    }
    std::unique_ptr<EnergyLedger> ledger;
    if (args.has("check-conservation") || !args.ledgerOutPath().empty() ||
        !args.ledgerCsvPath().empty() || !args.ledgerCheckPath().empty()) {
        // Multi-channel runs merge into a channel-major rank axis
        // (channel = rank / org.ranks); single-channel shapes are
        // unchanged (channels == 1).
        ledger = std::make_unique<EnergyLedger>(EnergyLedger::Shape{
            dram.channels * dram.org.ranks, dram.org.banks});
    }

    std::uint64_t violations = 0;

    if (threed) {
        ThreeDSystemConfig cfg;
        cfg.threeD = dram;
        cfg.threeDPolicy = policy;
        cfg.smart = smart;
        std::unique_ptr<RefreshHeatmap> heatmap;
        if (!args.heatmapOutPath().empty()) {
            heatmap = std::make_unique<RefreshHeatmap>(
                dram.org.ranks, dram.org.banks, opts.segments,
                (1u << opts.counterBits) - 1);
            cfg.heatmap = heatmap.get();
        }
        cfg.audit = audit.get();
        cfg.ledger = ledger.get();
        ThreeDSystem sys(cfg);
        const std::string benchName =
            args.getString("benchmark", "mummer");
        for (const auto &wp : threeDParams(findProfile(benchName), dram,
                                           opts.seed))
            sys.addWorkload(wp);

        auto sampler =
            makeSampler(args, sys, sys.eventQueue(),
                        sys.threeDController(), sys.threeDDram(),
                        sys.smartPolicy());
        sys.run(opts.warmup);
        const EnergySnapshot warm = captureSnapshot(sys);
        sys.run(opts.measure);
        EnergySnapshot d = captureSnapshot(sys) - warm;
        d.violations += sys.threeDDram().retention().finalCheck(
            sys.eventQueue().now());
        violations = d.violations;
        printSummary(dram.name + " / " + toString(policy) + " / " +
                         benchName,
                     d, sys.threeDController().maxRefreshBacklog(),
                     sys.cache().hitRate(), true);
        if (!statsOut.empty()) {
            std::ofstream out(statsOut);
            sys.dumpStats(out);
            std::cout << "full statistics written to " << statsOut
                      << "\n";
        }
        finishLedgerAudit(args, &sys.threeDDram(),
                          sys.threeDPolicy().overheadEnergy(),
                          audit.get(), ledger.get(), configHash);
        finishObservability(args, sys, sampler.get(), configHash,
                            cfg.heatmap);
    } else {
        // Every conventional config runs on the per-channel sharded
        // engine (harness/sharded.hh): one event queue per channel,
        // advanced in epoch lock-step on up to -j N workers with
        // deterministic merges, so every artifact below is
        // byte-identical for any -j value. A lone channel advances in
        // one slice per window, exactly like a plain System.
        const bool multi = dram.channels > 1;
        for (const char *flag :
             {"trace", "trace-out", "trace-csv", "stats-out",
              "stats-json", "stats-interval-ms", "stats-interval-out",
              "interval-cols", "ledger-check", "classes"}) {
            if (multi && args.has(flag)) {
                SMARTREF_FATAL("--", flag,
                               " is not yet supported with channels"
                               " > 1 (config '", dram.name, "')");
            }
        }

        SystemConfig cfg;
        cfg.dram = dram;
        cfg.policy = policy;
        cfg.smart = smart;
        cfg.ctrl.scheme =
            schemeByName(args.getString("scheme", "row-rank-bank"));
        if (args.has("classes")) {
            // RAPID-style retention classes (see DESIGN.md section 9).
            RetentionClassParams cp;
            cp.seed = opts.seed;
            cfg.retentionClasses = std::make_shared<RetentionClassMap>(
                dram.org.totalRows(), cp);
        }
        std::unique_ptr<RefreshHeatmap> heatmap;
        if (!args.heatmapOutPath().empty()) {
            // Per-channel shape: channels overlay onto one grid.
            // Retention classes widen the counters (multi-rate rows),
            // so the heatmap's value axis must widen with them.
            std::uint32_t bits = opts.counterBits;
            if (cfg.retentionClasses)
                bits += static_cast<std::uint32_t>(std::bit_width(
                    cfg.retentionClasses->maxMultiplier() - 1));
            heatmap = std::make_unique<RefreshHeatmap>(
                dram.org.ranks, dram.org.banks, opts.segments,
                (1u << bits) - 1);
            cfg.heatmap = heatmap.get();
        }
        cfg.audit = audit.get();
        cfg.ledger = ledger.get();

        ShardedSystem sys(cfg, opts.shardJobs);
        System &ch0 = sys.channel(0);
        auto sampler = makeSampler(args, ch0, ch0.eventQueue(),
                                   ch0.controller(), ch0.dram(),
                                   ch0.smartPolicy());

        std::string label;
        EnergySnapshot d;
        if (!tracePath.empty()) {
            label = "trace:" + tracePath;
            // Trace-driven: inject records as simulated time advances.
            TraceReader reader(tracePath);
            TraceRecord rec;
            Tick last = 0;
            sys.run(0);
            while (reader.next(rec)) {
                if (rec.tick > last) {
                    sys.run(rec.tick - last);
                    last = rec.tick;
                }
                ch0.controller().access(rec.addr, rec.write);
            }
            sys.run(opts.measure);
            d = sys.captureMergedSnapshot();
        } else {
            DramConfig chDram = dram;
            chDram.channels = 1;
            for (std::uint32_t c = 0; c < dram.channels; ++c) {
                const std::uint64_t seed = sys.channelSeed(opts.seed, c);
                if (args.has("idle")) {
                    label = "idle-os";
                    sys.channel(c).addWorkload(idleParams(chDram, seed));
                } else if (args.has("light")) {
                    label = "light-activity";
                    sys.channel(c).addWorkload(lightParams(chDram, seed));
                } else {
                    label = args.getString("benchmark", "mummer");
                    for (const auto &wp : conventionalParams(
                             findProfile(label), chDram, 1.0, seed))
                        sys.channel(c).addWorkload(wp);
                }
            }
            sys.run(opts.warmup);
            const EnergySnapshot warm = sys.captureMergedSnapshot();
            sys.run(opts.measure);
            d = sys.captureMergedSnapshot() - warm;
        }
        d.violations += sys.finalCheck();
        violations = d.violations;
        printSummary(dram.name + " / " + toString(policy) + " / " +
                         label,
                     d, sys.maxRefreshBacklog(), 0.0, false);
        if (multi) {
            std::cout << "channels: " << dram.channels
                      << ", resident counter bytes: "
                      << sys.residentCounterBytes() << "\n";
            if (args.has("check-conservation")) {
                sys.verifyLedgers(true);
                std::cout << "energy conservation verified on all "
                          << dram.channels << " channels\n";
            }
        }
        if (!statsOut.empty()) {
            std::ofstream out(statsOut);
            ch0.dumpStats(out);
            std::cout << "full statistics written to " << statsOut
                      << "\n";
        }
        double overhead = 0.0;
        for (std::uint32_t c = 0; c < dram.channels; ++c)
            overhead += sys.channel(c).refreshPolicy().overheadEnergy();
        sys.mergeObservers();
        finishLedgerAudit(args, multi ? nullptr : &ch0.dram(), overhead,
                          audit.get(), ledger.get(), configHash);
        finishObservability(args, ch0, sampler.get(), configHash,
                            cfg.heatmap);
    }

    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // A user error (bad flag value, unknown config or grid, unwritable
    // path) exits 2 with one line; a panic (std::logic_error) is a bug
    // and still aborts.
    try {
        return run(argc, argv);
    } catch (const std::runtime_error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
