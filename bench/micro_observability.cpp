/**
 * @file
 * Microbenchmark for the observability layer: quantifies what the audit
 * trail and energy ledger cost when attached, and what the unattached
 * record sites cost on the hot path.
 *
 * Measured shapes:
 *
 *  - audit_append: RefreshAudit::record throughput across multiple slab
 *    boundaries (the attached-sink steady state; pointer-bump appends),
 *  - audit_null_site: SMARTREF_AUDIT_RECORD through a null pointer (the
 *    default: one branch per refresh opportunity),
 *  - ledger_hooks: EnergyLedger onActivate/onRead/onRefresh mix at the
 *    ratio a memory-bound run produces,
 *  - end_to_end: a short conventional mummer/smart experiment with and
 *    without audit+ledger attached; the overhead ratio is the headline.
 *
 * Plain chrono timing, one machine-readable JSON file:
 *
 *     micro_observability [BENCH_observability.json]
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "ctrl/refresh_audit.hh"
#include "dram/energy_ledger.hh"
#include "harness/experiment.hh"

using namespace smartref;

namespace {

volatile std::uint64_t g_sink = 0;

double
auditAppendPerSec(std::uint64_t records)
{
    RefreshAudit audit(RefreshAudit::Shape{2, 8, 32768});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < records; ++i) {
        audit.record(Tick(i), static_cast<std::uint32_t>(i & 1),
                     static_cast<std::uint32_t>(i & 7),
                     static_cast<std::uint32_t>(i & 32767),
                     static_cast<AuditOutcome>(i % kAuditOutcomeCount),
                     AuditSource::SmartWalk);
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + audit.total();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(records) / secs;
}

double
auditNullSitePerSec(std::uint64_t ops)
{
    RefreshAudit *audit = nullptr;
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        SMARTREF_AUDIT_RECORD(audit, Tick(i), 0u, 0u,
                              static_cast<std::uint32_t>(i),
                              AuditOutcome::SkippedCounterReset,
                              AuditSource::SmartWalk);
        // Keep the loop body observable so the null branch can't fold
        // into nothing alongside an empty loop.
        acc += i & 1;
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + acc;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / secs;
}

double
ledgerHooksPerSec(std::uint64_t ops)
{
    EnergyLedger ledger(EnergyLedger::Shape{2, 8});
    const auto t0 = std::chrono::steady_clock::now();
    // Roughly the hook mix of a memory-bound run: reads dominate, one
    // activate per few column accesses, refreshes rare.
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint32_t rank = i & 1;
        const std::uint32_t bank = (i >> 1) & 7;
        const Tick t = Tick(i) * 45 * kNanosecond;
        if ((i & 7) == 0)
            ledger.onActivate(t, rank, bank, 2.5e-9);
        if ((i & 1023) == 0)
            ledger.onRefresh(t, rank, bank, /*bankWasOpen=*/false,
                             7.1e-9, 0.0);
        ledger.onRead(t, rank, bank, 1.6e-9);
    }
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + ledger.cellTotals().reads;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(ops) / secs;
}

/** Wall seconds for one short conventional experiment. */
double
experimentWallSecs(bool observed)
{
    const DramConfig dram = dramConfigByName("2gb");
    ExperimentOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 8 * kMillisecond;

    RefreshAudit audit(
        RefreshAudit::Shape{dram.org.ranks, dram.org.banks, dram.org.rows});
    EnergyLedger ledger(
        EnergyLedger::Shape{dram.org.ranks, dram.org.banks});
    if (observed) {
        opts.audit = &audit;
        opts.ledger = &ledger;
        opts.checkConservation = true;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runConventional(findProfile("mummer"), dram,
                                        policyFromString("smart"), opts);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = g_sink + static_cast<std::uint64_t>(observed ? audit.total()
                                                          : 1);
    (void)result;
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best of three, so one scheduler hiccup can't skew a CI gate. */
double
bestOf3(const std::function<double()> &f)
{
    double best = 0.0;
    for (int i = 0; i < 3; ++i)
        best = std::max(best, f());
    return best;
}

/** Best (lowest) of three for wall times. */
double
minOf3(const std::function<double()> &f)
{
    double best = 1e300;
    for (int i = 0; i < 3; ++i)
        best = std::min(best, f());
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out =
        argc > 1 ? argv[1] : "BENCH_observability.json";

    constexpr std::uint64_t kAuditRecords = 4000000; // ~61 slabs
    constexpr std::uint64_t kNullOps = 50000000;
    constexpr std::uint64_t kLedgerOps = 8000000;

    const double auditAppend =
        bestOf3([] { return auditAppendPerSec(kAuditRecords); });
    const double nullSite =
        bestOf3([] { return auditNullSitePerSec(kNullOps); });
    const double ledgerHooks =
        bestOf3([] { return ledgerHooksPerSec(kLedgerOps); });

    const double plainWall =
        minOf3([] { return experimentWallSecs(false); });
    const double observedWall =
        minOf3([] { return experimentWallSecs(true); });
    const double overheadRatio = observedWall / plainWall;

    std::ofstream os(out);
    os.precision(6);
    os << "{\n"
       << "  \"bench\": \"observability\",\n"
       << "  \"meta\": " << bench::benchMetaJson("observability") << ",\n"
       << "  \"audit\": {\n"
       << "    \"append_per_sec\": " << auditAppend << ",\n"
       << "    \"null_site_per_sec\": " << nullSite << "\n"
       << "  },\n"
       << "  \"ledger\": {\n"
       << "    \"hooks_per_sec\": " << ledgerHooks << "\n"
       << "  },\n"
       << "  \"end_to_end\": {\n"
       << "    \"plain_wall_s\": " << plainWall << ",\n"
       << "    \"observed_wall_s\": " << observedWall << ",\n"
       << "    \"overhead_ratio\": " << overheadRatio << "\n"
       << "  }\n"
       << "}\n";

    std::cout << "audit append/sec " << auditAppend << "\n"
              << "audit null-site ops/sec " << nullSite << "\n"
              << "ledger hooks/sec " << ledgerHooks << "\n"
              << "end-to-end wall plain " << plainWall << " s  observed "
              << observedWall << " s  ratio " << overheadRatio << "\n"
              << "wrote " << out << "\n";
    return 0;
}
