/**
 * @file
 * smartref_sim — the standalone simulator frontend.
 *
 * Runs one (configuration, refresh policy, workload) combination and
 * prints a summary plus, optionally, the full statistics tree. The
 * workload can be a named benchmark profile, the idle/light special
 * profiles, or a recorded trace file (DRAMsim-style trace-driven mode).
 *
 * Usage: smartref_sim --help.
 */

#include <bit>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
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

const CliSpec kSpec = {
    "smartref_sim",
    {},
    {
        {"config", "NAME",
         "2gb|4gb|128gb|256gb|512gb|edram; 3D cache: 3d64|3d64-32ms|3d32",
         "2gb"},
        {"policy", "NAME", "cbr|burst|ras-only|per-bank|smart|retention-aware",
         "smart"},
        {"parallelism", "MODE", "none|refpb|darp|sarp|all (default: config)"},
        {"classes", "", "RAPID-style retention classes"},
        {"sparse-counters"},
        {"j", "", "shard workers, byte-identical for any N; bare -j: all"},
        {"benchmark", "NAME", "workload profile, see --list", "mummer"},
        {"idle", "", "idle-OS traffic instead of a benchmark"},
        {"light", "", "light-activity traffic instead of a benchmark"},
        {"trace", "FILE", "replay a recorded access trace instead"},
        {"warmup-ms"},
        {"measure-ms"},
        {"bits"},
        {"segments"},
        {"no-auto"},
        {"seed"},
        {"scheme", "NAME", "row-rank-bank|row-bank-rank|rank-bank-row",
         "row-rank-bank"},
        {"stats-out", "FILE", "full statistics tree"},
        {"stats-json", "FILE", "statistics as JSON"},
        {"stats-interval-ms", "N", "interval series period, 0: off", "0"},
        {"stats-interval-out", "FILE", "interval CSV", "stats_intervals.csv"},
        {"interval-cols", "LIST", "more interval columns, dotted stat paths"},
        {"heatmap-out", "FILE", "refresh heatmap JSON (+ .csv sibling)"},
        {"audit-out", "FILE", "binary refresh decision audit trail"},
        {"audit-json", "FILE", "NDJSON refresh decision audit trail"},
        {"ledger-out", "FILE", "energy attribution ledger JSON"},
        {"ledger-csv", "FILE", "per-interval ledger CSV"},
        {"ledger-check", "FILE", "conservation check for statdiff --subset"},
        {"check-conservation", "", "verify the energy-ledger invariant"},
        {"trace-out", "FILE", "Chrome trace_event JSON timeline"},
        {"trace-csv", "FILE", "compact CSV timeline"},
        {"trace-categories", "LIST", "e.g. refresh,counter", "all"},
        {"log-level"},
        {"verbose"},
        {"list", "", "list benchmark profiles and exit"},
    }};

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

/**
 * The files the output flags name, keyed by flag ("heatmap-csv" for the
 * heatmap's CSV sibling), each opened before the run starts.
 */
using Outputs = std::map<std::string, OutputFile>;

Outputs
openOutputs(const CliArgs &args)
{
    static const std::pair<const char *, const char *> kFiles[] = {
        {"stats-out", "stats text"},
        {"stats-json", "stats JSON"},
        {"heatmap-out", "heatmap JSON"},
        {"ledger-out", "ledger JSON"},
        {"ledger-csv", "ledger CSV"},
        {"ledger-check", "conservation check JSON"},
        {"audit-out", "audit file"},
        {"audit-json", "audit NDJSON"},
    };
    Outputs files;
    for (const auto &[flag, what] : kFiles) {
        if (args.has(flag))
            files.try_emplace(flag, args.getString(flag), what);
    }
    // The interval CSV path has a default; only a period asks for it.
    if (args.getU64("stats-interval-ms") != 0) {
        files.try_emplace("stats-interval-out",
                          args.getString("stats-interval-out"),
                          "interval CSV");
    }
    if (args.has("heatmap-out")) {
        std::filesystem::path csv(args.getString("heatmap-out"));
        csv.replace_extension(".csv");
        files.try_emplace("heatmap-csv", csv.string(), "heatmap CSV");
    }
    return files;
}

/** The open file of output `key`, or null when it was not asked for. */
OutputFile *
outputFor(Outputs &files, const std::string &key)
{
    const auto it = files.find(key);
    return it == files.end() ? nullptr : &it->second;
}

/** --stats-out: the full statistics tree as text. */
void
writeStatsText(Outputs &files, const StatGroup &root)
{
    OutputFile *file = outputFor(files, "stats-out");
    if (!file)
        return;
    root.dumpStats(file->stream());
    file->close();
    std::cout << "full statistics written to " << file->path() << "\n";
}

/** Attach the sinks and category filter requested on the command line. */
void
configureTracer(const CliArgs &args)
{
    Tracer &tracer = globalTracer();
    tracer.setCategories(
        parseTraceCategories(args.getString("trace-categories")));
    if (args.has("trace-out"))
        tracer.addSink(
            std::make_unique<ChromeTraceSink>(args.getString("trace-out")));
    if (args.has("trace-csv"))
        tracer.addSink(
            std::make_unique<CsvTraceSink>(args.getString("trace-csv")));
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
    const std::uint64_t ms = args.getU64("stats-interval-ms");
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
    for (const std::string &path : splitList(cols)) {
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
finishLedgerAudit(const CliArgs &args, Outputs &files,
                  const DramModule *dram, double overheadJoules,
                  const RefreshAudit *audit, EnergyLedger *ledger,
                  const std::string &configHash)
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
        if (OutputFile *file = outputFor(files, "ledger-out")) {
            ledger->writeJson(file->stream(), metaJson(meta));
            file->close();
            std::cout << "energy ledger written to " << file->path()
                      << "\n";
        }
        if (OutputFile *file = outputFor(files, "ledger-csv")) {
            ledger->writeCsv(file->stream());
            file->close();
            std::cout << "energy ledger CSV written to " << file->path()
                      << "\n";
        }
        if (OutputFile *file = outputFor(files, "ledger-check")) {
            SMARTREF_ASSERT(dram,
                            "--ledger-check needs a single-module run");
            RunMeta checkMeta;
            checkMeta.schema = "smartref-stats-v1";
            checkMeta.configHash = configHash;
            ledger->writeConservationCheckJson(
                file->stream(), dram->power().fullStatName(),
                metaJson(checkMeta));
            file->close();
            std::cout << "conservation check written to " << file->path()
                      << "\n";
        }
    }
    if (audit) {
        if (OutputFile *file = outputFor(files, "audit-out")) {
            audit->writeBinary(file->stream());
            file->close();
            std::cout << "audit trail (" << audit->total()
                      << " records) written to " << file->path() << "\n";
        }
        if (OutputFile *file = outputFor(files, "audit-json")) {
            audit->writeNdjson(file->stream());
            file->close();
            std::cout << "audit NDJSON (" << audit->total()
                      << " records) written to " << file->path() << "\n";
        }
    }
}

/** End-of-run observability output: interval CSV, JSON stats, heatmap,
 *  flush. `configHash` ties every artifact to the same run provenance. */
void
finishObservability(Outputs &files, const StatGroup &root,
                    IntervalStats *sampler, const std::string &configHash,
                    const RefreshHeatmap *heatmap)
{
    if (sampler) {
        sampler->finish();
        OutputFile &file = files.at("stats-interval-out");
        sampler->writeCsv(file.stream());
        file.close();
        std::cout << "interval statistics written to " << file.path()
                  << "\n";
    }
    if (OutputFile *file = outputFor(files, "stats-json")) {
        RunMeta meta;
        meta.schema = "smartref-stats-v1";
        meta.configHash = configHash;
        writeStatsJson(root, file->stream(), metaJson(meta));
        file->close();
        std::cout << "JSON statistics written to " << file->path() << "\n";
    }
    if (heatmap) {
        OutputFile &json = files.at("heatmap-out");
        RunMeta meta;
        meta.schema = "smartref-heatmap-v1";
        meta.configHash = configHash;
        json.stream() << "{\"schema\":\"smartref-heatmap-v1\",\"meta\":"
                      << metaJson(meta) << ",\"heatmap\":";
        heatmap->writeJson(json.stream());
        json.stream() << "}\n";
        json.close();
        OutputFile &csv = files.at("heatmap-csv");
        heatmap->writeCsv(csv.stream());
        csv.close();
        std::cout << "heatmap written to " << json.path() << " and "
                  << csv.path() << "\n";
    }
    globalTracer().flush();
}

int
run(const CliArgs &args)
{
    if (args.has("list")) {
        listProfiles();
        return 0;
    }

    const ExperimentOptions opts = args.experimentOptions();
    setLogLevel(opts.logLevel);
    const std::string configName = args.getString("config");
    DramConfig dram = dramConfigByName(configName);
    if (args.has("parallelism"))
        dram.parallelism =
            parallelismFromString(args.getString("parallelism"));
    const PolicyKind policy = policyFromString(args.getString("policy"));
    // Flags an assembly cannot honour yet are fatal, not ignored: the 3D
    // cache takes a benchmark workload only, and a multi-channel run has
    // no single-channel observers.
    const bool threed = isThreeDConfigName(configName);
    static const std::vector<std::string> threeDFlags = {
        "classes", "idle", "light", "trace", "scheme"};
    static const std::vector<std::string> multiChannelFlags = {
        "trace", "trace-out", "trace-csv", "stats-out", "stats-json",
        "stats-interval-ms", "stats-interval-out", "interval-cols",
        "ledger-check", "classes"};
    for (const std::string &flag :
         threed ? threeDFlags
                : dram.channels > 1 ? multiChannelFlags
                                    : std::vector<std::string>{}) {
        if (args.has(flag))
            SMARTREF_FATAL("--", flag, " is not yet supported with ",
                           threed ? "a 3D config" : "channels > 1",
                           " (config '", dram.name, "')");
    }
    configureTracer(args);
    Outputs files = openOutputs(args);
    const std::string tracePath = args.getString("trace");

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
           << (tracePath.empty() ? args.getString("benchmark")
                                 : "trace:" + tracePath);
    const std::string configHash = hex64(fnv1a64(cfgKey.str()));

    std::unique_ptr<RefreshAudit> audit;
    if (args.has("audit-out") || args.has("audit-json")) {
        audit = std::make_unique<RefreshAudit>(RefreshAudit::Shape{
            dram.org.ranks, dram.org.banks, dram.org.rows});
    }
    std::unique_ptr<EnergyLedger> ledger;
    if (args.has("check-conservation") || args.has("ledger-out") ||
        args.has("ledger-csv") || args.has("ledger-check")) {
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
        if (args.has("heatmap-out")) {
            heatmap = std::make_unique<RefreshHeatmap>(
                dram.org.ranks, dram.org.banks, opts.segments,
                (1u << opts.counterBits) - 1);
            cfg.heatmap = heatmap.get();
        }
        cfg.audit = audit.get();
        cfg.ledger = ledger.get();
        ThreeDSystem sys(cfg);
        const std::string benchName = args.getString("benchmark");
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
        writeStatsText(files, sys);
        finishLedgerAudit(args, files, &sys.threeDDram(),
                          sys.threeDPolicy().overheadEnergy(),
                          audit.get(), ledger.get(), configHash);
        finishObservability(files, sys, sampler.get(), configHash,
                            cfg.heatmap);
    } else {
        // Every conventional config runs on the per-channel sharded
        // engine (harness/sharded.hh): one event queue per channel,
        // advanced in epoch lock-step on up to -j N workers with
        // deterministic merges, so every artifact below is
        // byte-identical for any -j value. A lone channel advances in
        // one slice per window, exactly like a plain System.
        const bool multi = dram.channels > 1;

        SystemConfig cfg;
        cfg.dram = dram;
        cfg.policy = policy;
        cfg.smart = smart;
        cfg.ctrl.scheme = schemeByName(args.getString("scheme"));
        if (args.has("classes")) {
            // RAPID-style retention classes (see DESIGN.md section 9).
            RetentionClassParams cp;
            cp.seed = opts.seed;
            cfg.retentionClasses = std::make_shared<RetentionClassMap>(
                dram.org.totalRows(), cp);
        }
        std::unique_ptr<RefreshHeatmap> heatmap;
        if (args.has("heatmap-out")) {
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
                    label = args.getString("benchmark");
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
        writeStatsText(files, ch0);
        double overhead = 0.0;
        for (std::uint32_t c = 0; c < dram.channels; ++c)
            overhead += sys.channel(c).refreshPolicy().overheadEnergy();
        sys.mergeObservers();
        finishLedgerAudit(args, files, multi ? nullptr : &ch0.dram(),
                          overhead, audit.get(), ledger.get(), configHash);
        finishObservability(files, ch0, sampler.get(), configHash,
                            cfg.heatmap);
    }

    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
