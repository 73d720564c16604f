/**
 * @file
 * smartref_inspect — query refresh-audit trails and energy ledgers.
 *
 * Takes the artifacts the simulator emits (`--audit-out` binary audit
 * trails, `--ledger-out` ledger JSON, sweep result-cache entry blobs
 * and `--metrics-out` snapshots) and answers the
 * questions a debugging session actually asks: which outcomes
 * dominate, which rows are hot, what happened in this time window, and
 * how do two runs differ. File types are auto-detected (binary
 * "SRAUDIT" magic vs JSON schema), so there are no subcommands.
 *
 * Usage: smartref_inspect FILE [FILE_B] [flags]; see --help.
 *
 * With two files of the same kind the tool diffs them: per-outcome
 * counts for audits, component totals for ledgers, counter deltas and
 * rates for metrics snapshots.
 *
 * Exit codes: 0 = done (diff: equal), 1 = diff found differences,
 *             2 = usage or I/O error.
 */

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ctrl/refresh_audit.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/logging.hh"
#include "sim/mini_json.hh"
#include "sim/suggest.hh"
#include "sim/types.hh"

using namespace smartref;

namespace {

const CliSpec kSpec = {
    "smartref_inspect",
    {"FILE", "[FILE_B]"},
    {
        {"outcome", "NAME", "keep one decision outcome"},
        {"channel", "N", "keep one memory channel"},
        {"rank", "N", "keep one rank"},
        {"bank", "N", "keep one bank"},
        {"from-ms", "X", "simulated-time window start"},
        {"to-ms", "X", "simulated-time window end"},
        {"top", "N", "top rows (audit) / cells (ledger)", "10"},
        {"histogram", "", "decision histogram only"},
        {"records", "N", "dump N matching records (NDJSON)", "0"},
    }};

/** Record filters shared by the audit and ledger views. */
struct Filters
{
    bool hasOutcome = false;
    AuditOutcome outcome = AuditOutcome::Issued;
    long channel = -1;  ///< -1 = any
    long rank = -1;     ///< -1 = any
    long bank = -1;     ///< -1 = any
    double fromMs = -1; ///< <0 = open
    double toMs = -1;   ///< <0 = open

    bool
    any() const
    {
        return hasOutcome || channel >= 0 || rank >= 0 || bank >= 0 ||
               fromMs >= 0 || toMs >= 0;
    }

    bool
    inWindow(double ms) const
    {
        if (fromMs >= 0 && ms < fromMs)
            return false;
        if (toMs >= 0 && ms >= toMs)
            return false;
        return true;
    }

    bool
    matches(const AuditRecord &r) const
    {
        if (hasOutcome && r.outcome != static_cast<std::uint8_t>(outcome))
            return false;
        if (channel >= 0 && r.channel != channel)
            return false;
        if (rank >= 0 && r.rank != rank)
            return false;
        if (bank >= 0 && r.bank != bank)
            return false;
        return inWindow(static_cast<double>(r.tick) /
                        static_cast<double>(kMillisecond));
    }
};

struct AuditData
{
    AuditFileHeader header{};
    std::vector<AuditRecord> records;
};

AuditData
loadAudit(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SMARTREF_FATAL("cannot read '", path, "'");
    AuditData data;
    in.read(reinterpret_cast<char *>(&data.header),
            sizeof(data.header));
    if (!in ||
        std::memcmp(data.header.magic, kAuditMagic,
                    sizeof(kAuditMagic)) != 0)
        SMARTREF_FATAL("'", path, "' is not an audit trail");
    if (data.header.version != kAuditVersion) {
        SMARTREF_FATAL("'", path, "': unsupported audit version ",
                       data.header.version, " (this build reads version ",
                       kAuditVersion,
                       "; re-run the simulator to regenerate the trail)");
    }
    if (data.header.recordBytes != sizeof(AuditRecord))
        SMARTREF_FATAL("'", path, "': record size mismatch");
    in.seekg(0, std::ios::end);
    const std::streamoff bytes =
        in.tellg() - std::streamoff(sizeof(data.header));
    if (bytes < 0 ||
        bytes % std::streamoff(sizeof(AuditRecord)) != 0)
        SMARTREF_FATAL("'", path, "': truncated audit trail");
    data.records.resize(static_cast<std::size_t>(bytes) /
                        sizeof(AuditRecord));
    in.seekg(sizeof(data.header));
    in.read(reinterpret_cast<char *>(data.records.data()), bytes);
    if (!in)
        SMARTREF_FATAL("'", path, "': short read");
    return data;
}

bool
isAuditFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SMARTREF_FATAL("cannot read '", path, "'");
    char magic[sizeof(kAuditMagic)] = {};
    in.read(magic, sizeof(magic));
    return in && std::memcmp(magic, kAuditMagic, sizeof(magic)) == 0;
}

std::string
fmtJoules(double j)
{
    return fmtDouble(j * 1e3, 6) + " mJ";
}

minijson::Value
loadJsonFile(const std::string &path)
{
    const auto text = minijson::readFile(path);
    if (!text)
        SMARTREF_FATAL("cannot read '", path, "'");
    return minijson::parse(*text);
}

bool
isCacheEntry(const minijson::Value &root)
{
    return root.has("schema") &&
           root.at("schema").str == "smartref-result-cache-v1";
}

bool
isMetricsSnapshot(const minijson::Value &root)
{
    return root.has("schema") &&
           root.at("schema").str == "smartref-metrics-v1";
}

/** Validates that @p root is a ledger, with a pointed error if not. */
const minijson::Value &
asLedger(const minijson::Value &root, const std::string &path)
{
    if (isCacheEntry(root))
        SMARTREF_FATAL("'", path,
                       "' is a sweep result-cache entry; diff entries "
                       "with smartref_statdiff instead");
    if (!root.has("schema") ||
        root.at("schema").str != "smartref-ledger-v1") {
        SMARTREF_FATAL("'", path,
                       "' is neither an audit trail nor a ledger "
                       "(expected schema smartref-ledger-v1)");
    }
    return root;
}

/**
 * One content-addressed sweep result-cache entry: the key, the grid
 * point it memoizes, and every RunResult field, baseline beside smart.
 * The whole entry is read before anything is printed: what the sweep's
 * cache counts as corrupt is fatal here, naming the file, the object
 * and the member.
 */
void
inspectCacheEntry(const minijson::Value &root, const std::string &path)
{
    std::ostringstream head;
    ComparisonResult c;
    const char *part = "entry";
    try {
        const minijson::Value &p = root.at("point");
        const minijson::Value &cmp = root.at("comparison");
        head << "result-cache entry: key " << root.stringAt("key") << "\n";
        part = "point";
        head << "point: config=" << p.stringAt("config")
             << " benchmark=" << p.stringAt("benchmark")
             << " policy=" << p.stringAt("policy")
             << " counterBits=" << p.countAt("counterBits")
             << " retentionMs=" << p.countAt("retentionMs")
             << " parallelism=" << p.stringAt("parallelism") << "\n";
        part = "entry";
        head << "seed: " << root.stringAt("seed") << "\n"
             << "canonical: " << root.stringAt("canonical") << "\n";
        part = "comparison";
        c.benchmark = cmp.stringAt("benchmark");
        c.suite = cmp.stringAt("suite");
        part = "baseline";
        c.baseline = runResultFromJson(cmp.at("baseline"));
        part = "smart";
        c.smart = runResultFromJson(cmp.at("smart"));
    } catch (const std::runtime_error &e) {
        SMARTREF_FATAL("'", path, "': ", part, ": ", e.what());
    }
    std::cout << head.str();

    ReportTable table({"field", "baseline", "smart"});
    forEachRunField(
        [&](const char *name, bool, const auto &base, const auto &smart) {
            table.addRow({name, runFieldText(base), runFieldText(smart)});
        },
        c.baseline, c.smart);
    std::cout << "\n=== memoized comparison ===\n";
    table.print(std::cout);
    if (c.baseline.refreshesPerSec > 0.0)
        std::cout << "refresh reduction: "
                  << fmtPercent(c.refreshReduction()) << "\n";
}

/** Outcome (and source) histogram of the matching records. */
void
printAuditHistogram(const AuditData &a, const Filters &f)
{
    // Multi-channel trails (header v2 with channels > 1) get one
    // histogram bucket per (channel, outcome), labelled "chN/Outcome";
    // single-channel trails keep the historical unlabelled buckets.
    const bool multi = a.header.channels > 1 && f.channel < 0;
    std::map<std::pair<std::uint8_t, std::uint8_t>, std::uint64_t>
        byOutcome; // (channel, outcome code) -> count
    std::array<std::uint64_t, kAuditSourceCount> bySource{};
    // Trails written by a newer binary can carry codes this build does
    // not know; surface them as unknown(N) rows rather than dropping
    // them silently (the shares must still sum to 100%).
    std::map<std::uint8_t, std::uint64_t> unknownSources;
    std::uint64_t total = 0;
    for (const AuditRecord &r : a.records) {
        if (!f.matches(r))
            continue;
        ++total;
        ++byOutcome[{multi ? r.channel : std::uint8_t(0), r.outcome}];
        if (r.source < kAuditSourceCount)
            ++bySource[r.source];
        else
            ++unknownSources[r.source];
    }
    if (!multi) {
        // Keep the zero rows of known outcomes visible.
        for (std::size_t i = 0; i < kAuditOutcomeCount; ++i)
            byOutcome.insert({{0, static_cast<std::uint8_t>(i)}, 0});
    }
    ReportTable outcomes({"outcome", "count", "share"});
    const auto share = [total](std::uint64_t n) {
        return fmtPercent(total ? static_cast<double>(n) /
                                      static_cast<double>(total)
                                : 0.0);
    };
    for (const auto &[key, count] : byOutcome) {
        const auto [ch, code] = key;
        std::string name =
            code < kAuditOutcomeCount
                ? toString(static_cast<AuditOutcome>(code))
                : "unknown(" + std::to_string(code) + ")";
        if (multi)
            name = "ch" + std::to_string(ch) + "/" + name;
        outcomes.addRow({name, std::to_string(count), share(count)});
    }
    std::cout << "\n=== decision histogram (" << total
              << " records) ===\n";
    outcomes.print(std::cout);

    ReportTable sources({"source", "count"});
    for (std::size_t i = 0; i < kAuditSourceCount; ++i) {
        sources.addRow({toString(static_cast<AuditSource>(i)),
                        std::to_string(bySource[i])});
    }
    for (const auto &[code, count] : unknownSources) {
        sources.addRow({"unknown(" + std::to_string(code) + ")",
                        std::to_string(count)});
    }
    std::cout << "\n=== by source ===\n";
    sources.print(std::cout);
}

/** The rows with the most matching records. */
void
printTopRows(const AuditData &a, const Filters &f, std::size_t top)
{
    const bool multi = a.header.channels > 1;
    std::map<std::uint64_t, std::uint64_t> counts; // packed coord -> n
    for (const AuditRecord &r : a.records) {
        if (!f.matches(r))
            continue;
        const std::uint64_t key = (std::uint64_t(r.channel) << 48) |
                                  (std::uint64_t(r.rank) << 40) |
                                  (std::uint64_t(r.bank) << 32) | r.row;
        ++counts[key];
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(
        counts.begin(), counts.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &x, const auto &y) {
                         return x.second > y.second;
                     });
    if (rows.size() > top)
        rows.resize(top);
    std::vector<std::string> headers = {"rank", "bank", "row",
                                        "records"};
    if (multi)
        headers.insert(headers.begin(), "channel");
    ReportTable table(headers);
    for (const auto &[key, n] : rows) {
        std::vector<std::string> row = {
            std::to_string((key >> 40) & 0xff),
            std::to_string((key >> 32) & 0xff),
            std::to_string(key & 0xffffffffu), std::to_string(n)};
        if (multi)
            row.insert(row.begin(), std::to_string((key >> 48) & 0xff));
        table.addRow(row);
    }
    std::cout << "\n=== top " << rows.size() << " rows ===\n";
    table.print(std::cout);
}

/** Dump up to @p limit matching records as NDJSON (writeNdjson shape). */
void
printRecords(const AuditData &a, const Filters &f, std::uint64_t limit)
{
    const bool multi = a.header.channels > 1;
    std::uint64_t emitted = 0;
    for (const AuditRecord &r : a.records) {
        if (emitted >= limit)
            break;
        if (!f.matches(r))
            continue;
        std::cout << "{\"t\":" << r.tick;
        if (multi)
            std::cout << ",\"channel\":" << unsigned(r.channel);
        std::cout << ",\"rank\":" << unsigned(r.rank)
                  << ",\"bank\":" << unsigned(r.bank)
                  << ",\"row\":" << r.row << ",\"outcome\":\""
                  << toString(static_cast<AuditOutcome>(r.outcome))
                  << "\",\"source\":\""
                  << toString(static_cast<AuditSource>(r.source))
                  << "\"}\n";
        ++emitted;
    }
}

void
inspectAudit(const AuditData &a, const Filters &f, std::size_t top,
             std::uint64_t records, bool histogramOnly)
{
    if (!histogramOnly) {
        const auto &h = a.header;
        std::cout << "audit trail: " << a.records.size() << " records, ";
        if (h.channels > 1)
            std::cout << h.channels << " channel(s) x ";
        std::cout << h.ranks << " rank(s) x " << h.banks << " bank(s) x "
                  << h.rows << " row(s)\n";
        if (!a.records.empty()) {
            std::cout << "time span: "
                      << static_cast<double>(a.records.front().tick) /
                             static_cast<double>(kMillisecond)
                      << " .. "
                      << static_cast<double>(a.records.back().tick) /
                             static_cast<double>(kMillisecond)
                      << " ms\n";
        }
    }
    printAuditHistogram(a, f);
    if (!histogramOnly && top > 0)
        printTopRows(a, f, top);
    if (records > 0)
        printRecords(a, f, records);
}

int
diffAudits(const AuditData &a, const AuditData &b, const Filters &f)
{
    // Keyed rather than fixed-size so codes beyond this build's
    // kAuditOutcomeCount still participate in the diff (as unknown(N))
    // instead of being silently equal-by-omission.
    std::map<std::uint8_t, std::uint64_t> ca, cb;
    for (const AuditRecord &r : a.records)
        if (f.matches(r))
            ++ca[r.outcome];
    for (const AuditRecord &r : b.records)
        if (f.matches(r))
            ++cb[r.outcome];
    std::map<std::uint8_t, std::uint64_t> merged = ca;
    for (const auto &[code, count] : cb)
        merged.emplace(code, 0);
    for (std::size_t i = 0; i < kAuditOutcomeCount; ++i)
        merged.emplace(static_cast<std::uint8_t>(i), 0);
    bool differ = false;
    ReportTable table({"outcome", "A", "B", "delta"});
    for (const auto &[code, unused] : merged) {
        (void)unused;
        const std::uint64_t na = ca.count(code) ? ca[code] : 0;
        const std::uint64_t nb = cb.count(code) ? cb[code] : 0;
        const auto d = static_cast<std::int64_t>(nb) -
                       static_cast<std::int64_t>(na);
        differ = differ || d != 0;
        const std::string name =
            code < kAuditOutcomeCount
                ? toString(static_cast<AuditOutcome>(code))
                : "unknown(" + std::to_string(code) + ")";
        table.addRow({name, std::to_string(na), std::to_string(nb),
                      std::to_string(d)});
    }
    std::cout << "\n=== audit diff (per-outcome counts) ===\n";
    table.print(std::cout);
    std::cout << (differ ? "trails differ\n" : "trails agree\n");
    return differ ? 1 : 0;
}

/** Component energies of one rollup bucket. */
struct Rollup
{
    double act = 0, read = 0, write = 0, refresh = 0, background = 0;

    double
    total() const
    {
        return act + read + write + refresh + background;
    }
};

/**
 * Per-rank and top-cell rollups of one ledger, honouring the rank/bank/
 * time-window filters. Background energy is rank-level (there is no
 * per-bank attribution for standby power), so it only joins the rank
 * rollup.
 */
void
inspectLedger(const minijson::Value &root, const Filters &f,
              std::size_t top)
{
    // Multi-channel ledgers label cells with (channel, per-channel
    // rank); single-channel ledgers keep the bare global rank. A
    // channel of -1 below means "the file has no channel labels".
    std::map<std::pair<long, long>, Rollup> perRank; // (ch, rank)
    std::map<std::tuple<long, long, long>, Rollup> perCell;
    const auto channelOf = [](const minijson::Value &v) {
        return v.has("channel")
                   ? static_cast<long>(v.at("channel").number)
                   : -1;
    };
    for (const minijson::Value &iv : root.at("intervals").array) {
        const double t0 = iv.at("t0_ps").number /
                          static_cast<double>(kMillisecond);
        if (!f.inWindow(t0))
            continue;
        for (const minijson::Value &cell : iv.at("cells").array) {
            const long ch = channelOf(cell);
            const long rank = static_cast<long>(cell.at("rank").number);
            const long bank = static_cast<long>(cell.at("bank").number);
            if ((f.channel >= 0 && ch != f.channel) ||
                (f.rank >= 0 && rank != f.rank) ||
                (f.bank >= 0 && bank != f.bank))
                continue;
            const minijson::Value &e = cell.at("energy");
            Rollup &r = perRank[{ch, rank}];
            Rollup &c = perCell[{ch, rank, bank}];
            for (Rollup *dst : {&r, &c}) {
                dst->act += e.at("act").number;
                dst->read += e.at("read").number;
                dst->write += e.at("write").number;
                dst->refresh += e.at("refresh").number;
            }
        }
        for (const minijson::Value &bg : iv.at("background").array) {
            const long ch = channelOf(bg);
            const long rank = static_cast<long>(bg.at("rank").number);
            if ((f.channel >= 0 && ch != f.channel) ||
                (f.rank >= 0 && rank != f.rank))
                continue;
            perRank[{ch, rank}].background += bg.at("energy").number;
        }
    }
    const auto rankLabel = [](long ch, long rank) {
        return ch >= 0 ? "ch" + std::to_string(ch) + "/" +
                             std::to_string(rank)
                       : std::to_string(rank);
    };

    if (root.has("totals") && !f.any()) {
        const minijson::Value &t = root.at("totals");
        ReportTable totals({"component", "energy"});
        for (const auto &[name, v] : t.object)
            totals.addRow({name, fmtJoules(v.number)});
        std::cout << "\n=== ledger totals ===\n";
        totals.print(std::cout);
    }

    ReportTable ranks(
        {"rank", "act", "read", "write", "refresh", "background",
         "total"});
    for (const auto &[coord, r] : perRank) {
        ranks.addRow({rankLabel(coord.first, coord.second),
                      fmtJoules(r.act), fmtJoules(r.read),
                      fmtJoules(r.write), fmtJoules(r.refresh),
                      fmtJoules(r.background), fmtJoules(r.total())});
    }
    std::cout << "\n=== per-rank rollup ===\n";
    ranks.print(std::cout);

    if (top > 0) {
        std::vector<std::pair<std::tuple<long, long, long>, Rollup>>
            cells(perCell.begin(), perCell.end());
        std::stable_sort(cells.begin(), cells.end(),
                         [](const auto &x, const auto &y) {
                             return x.second.total() > y.second.total();
                         });
        if (cells.size() > top)
            cells.resize(top);
        ReportTable table(
            {"rank", "bank", "act", "read", "write", "refresh",
             "total"});
        for (const auto &[coord, r] : cells) {
            const auto [ch, rank, bank] = coord;
            table.addRow({rankLabel(ch, rank), std::to_string(bank),
                          fmtJoules(r.act), fmtJoules(r.read),
                          fmtJoules(r.write), fmtJoules(r.refresh),
                          fmtJoules(r.total())});
        }
        std::cout << "\n=== top " << cells.size()
                  << " cells by energy ===\n";
        table.print(std::cout);
    }
}

int
diffLedgers(const minijson::Value &a, const minijson::Value &b)
{
    const minijson::Value &ta = a.at("totals");
    const minijson::Value &tb = b.at("totals");
    bool differ = false;
    ReportTable table({"component", "A", "B", "abs diff"});
    for (const auto &[name, va] : ta.object) {
        const double x = va.number;
        const double y = tb.has(name) ? tb.at(name).number : 0.0;
        differ = differ || x != y;
        table.addRow({name, fmtJoules(x), fmtJoules(y),
                      fmtJoules(y - x)});
    }
    for (const auto &[name, vb] : tb.object) {
        if (!ta.has(name)) {
            differ = true;
            table.addRow({name, "(absent)", fmtJoules(vb.number), "-"});
        }
    }
    std::cout << "\n=== ledger diff (component totals) ===\n";
    table.print(std::cout);
    std::cout << (differ ? "ledgers differ\n" : "ledgers agree\n");
    return differ ? 1 : 0;
}

/** Counters, gauges, and histogram stats of one metrics snapshot. */
void
inspectMetrics(const minijson::Value &m)
{
    std::cout << "metrics snapshot: uptime "
              << fmtDouble(m.at("uptimeSeconds").number, 2) << " s\n";

    const minijson::Value &counters = m.at("counters");
    if (!counters.object.empty()) {
        ReportTable table({"counter", "value"});
        for (const auto &[name, v] : counters.object) {
            table.addRow({name,
                          std::to_string(static_cast<std::uint64_t>(
                              v.number))});
        }
        std::cout << "\n=== counters ===\n";
        table.print(std::cout);
    }

    const minijson::Value &gauges = m.at("gauges");
    if (!gauges.object.empty()) {
        ReportTable table({"gauge", "value"});
        for (const auto &[name, v] : gauges.object)
            table.addRow({name, fmtDouble(v.number, 3)});
        std::cout << "\n=== gauges ===\n";
        table.print(std::cout);
    }

    const minijson::Value &hists = m.at("histograms");
    if (!hists.object.empty()) {
        ReportTable table({"histogram", "count", "sum", "min", "max",
                           "p50", "p95", "p99"});
        for (const auto &[name, h] : hists.object) {
            table.addRow(
                {name,
                 std::to_string(
                     static_cast<std::uint64_t>(h.at("count").number)),
                 fmtDouble(h.at("sum").number, 0),
                 fmtDouble(h.at("min").number, 0),
                 fmtDouble(h.at("max").number, 0),
                 fmtDouble(h.at("p50").number, 0),
                 fmtDouble(h.at("p95").number, 0),
                 fmtDouble(h.at("p99").number, 0)});
        }
        std::cout << "\n=== histograms ===\n";
        table.print(std::cout);
    }
}

/**
 * Counter deltas between two snapshots, with per-second rates when the
 * uptimes let us infer the elapsed wall (same process, B after A).
 */
int
diffMetrics(const minijson::Value &a, const minijson::Value &b)
{
    const double dt =
        b.at("uptimeSeconds").number - a.at("uptimeSeconds").number;
    const minijson::Value &ca = a.at("counters");
    const minijson::Value &cb = b.at("counters");
    std::map<std::string, bool> names;
    for (const auto &[name, v] : ca.object) {
        (void)v;
        names.emplace(name, true);
    }
    for (const auto &[name, v] : cb.object) {
        (void)v;
        names.emplace(name, true);
    }
    bool differ = false;
    ReportTable table({"counter", "A", "B", "delta", "rate/s"});
    for (const auto &[name, unused] : names) {
        (void)unused;
        const auto va = static_cast<std::int64_t>(
            ca.has(name) ? ca.at(name).number : 0.0);
        const auto vb = static_cast<std::int64_t>(
            cb.has(name) ? cb.at(name).number : 0.0);
        const std::int64_t d = vb - va;
        differ = differ || d != 0;
        table.addRow({name, std::to_string(va), std::to_string(vb),
                      std::to_string(d),
                      dt > 0.0 ? fmtDouble(static_cast<double>(d) / dt,
                                           2)
                               : "-"});
    }
    std::cout << "\n=== metrics diff (counter deltas";
    if (dt > 0.0)
        std::cout << ", " << fmtDouble(dt, 2) << " s apart";
    std::cout << ") ===\n";
    table.print(std::cout);
    std::cout << (differ ? "snapshots differ\n" : "snapshots agree\n");
    return differ ? 1 : 0;
}

int
run(const CliArgs &args)
{
    const std::vector<std::string> &files = args.operands();
    Filters filters;
    if (args.has("outcome")) {
        const std::string name = args.getString("outcome");
        filters.hasOutcome = true;
        if (!parseAuditOutcome(name, filters.outcome))
            SMARTREF_FATAL("unknown outcome '", name, "'",
                           didYouMean(name, auditOutcomeNames()));
    }
    // An absent coordinate matches any; an absent time leaves the window
    // open. Numbers parse whole.
    const auto coordinate = [&](const std::string &name) {
        return args.has(name) ? static_cast<long>(parseWhole(
                                    "--" + name, args.getString(name), 0,
                                    LONG_MAX))
                              : -1L;
    };
    const auto milliseconds = [&](const std::string &name) {
        const std::string v = args.has(name) ? args.getString(name) : "-1";
        char *end = nullptr;
        const double ms = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || !std::isfinite(ms))
            SMARTREF_FATAL("--", name, " needs a number, got '", v, "'");
        return ms;
    };
    filters.channel = coordinate("channel");
    filters.rank = coordinate("rank");
    filters.bank = coordinate("bank");
    filters.fromMs = milliseconds("from-ms");
    filters.toMs = milliseconds("to-ms");
    const auto top = static_cast<std::size_t>(args.getU64("top"));
    const std::uint64_t records = args.getU64("records");

    const bool auditA = isAuditFile(files[0]);
    if (files.size() == 2) {
        if (auditA != isAuditFile(files[1]))
            SMARTREF_FATAL("cannot diff an audit trail against a "
                           "ledger");
        if (auditA)
            return diffAudits(loadAudit(files[0]),
                              loadAudit(files[1]), filters);
        const minijson::Value ja = loadJsonFile(files[0]);
        const minijson::Value jb = loadJsonFile(files[1]);
        const bool metricsA = isMetricsSnapshot(ja);
        if (metricsA != isMetricsSnapshot(jb))
            SMARTREF_FATAL("cannot diff a metrics snapshot against "
                           "a ledger");
        if (metricsA)
            return diffMetrics(ja, jb);
        return diffLedgers(asLedger(ja, files[0]),
                           asLedger(jb, files[1]));
    }
    if (auditA) {
        inspectAudit(loadAudit(files[0]), filters, top, records,
                     args.has("histogram"));
        return 0;
    }
    const minijson::Value root = loadJsonFile(files[0]);
    if (isCacheEntry(root)) {
        inspectCacheEntry(root, files[0]);
        return 0;
    }
    if (isMetricsSnapshot(root)) {
        inspectMetrics(root);
        return 0;
    }
    if (!root.has("schema") ||
        root.at("schema").str != "smartref-ledger-v1")
        SMARTREF_FATAL("'", files[0],
                       "' is neither an audit trail, a ledger, a "
                       "result-cache entry, nor a metrics "
                       "snapshot");
    inspectLedger(root, filters, top);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCli(kSpec, argc, argv, run);
}
