/**
 * @file
 * Refresh-path fence. Two Smart runs through runConventional(), each
 * at -j1 and -j4: a 2 GB mummer run (16 + 32 ms) and a 128 GB
 * sparse-counter mummer run (2 + 4 ms). Each must reproduce fixed
 * fnv1a64 digests of its audit trail (binary file), heatmap JSON and
 * ledger JSON (no provenance meta), and a fixed executed-event count.
 * The constants were recorded before the refresh path was reworked
 * (emit trains, in-place engine start, interleaved retention shadow),
 * so a change that moves any refresh decision, command or event fails
 * here. The per-kind counts published to sim.events.<kind> must add up
 * to the run's executed events, with no untagged event.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ctrl/refresh_audit.hh"
#include "ctrl/refresh_heatmap.hh"
#include "dram/energy_ledger.hh"
#include "harness/experiment.hh"
#include "sim/metrics.hh"
#include "sim/provenance.hh"
#include "trace/benchmark_profiles.hh"

using namespace smartref;

namespace {

struct FenceCase
{
    const char *preset;
    bool sparse;
    Tick warmup;
    Tick measure;
    std::uint64_t auditDigest;
    std::uint64_t heatmapDigest;
    std::uint64_t ledgerDigest;
    std::uint64_t events;
};

const FenceCase kSmall{"2gb", false, 16 * kMillisecond, 32 * kMillisecond,
                       0x2a9dbb891fdefd09ull, 0x3d21a053d53fc13aull,
                       0xe10931e61a6d9ab1ull, 785090ull};
const FenceCase kServer{"128gb", true, 2 * kMillisecond, 4 * kMillisecond,
                        0x8520bf2a4d99a426ull, 0x0d574dec74cf1132ull,
                        0xd9ad693ac6268d57ull, 2128998ull};

struct FenceResult
{
    std::uint64_t auditDigest = 0;
    std::uint64_t heatmapDigest = 0;
    std::uint64_t ledgerDigest = 0;
    std::uint64_t events = 0;
    /** sim.events.<kind> metric deltas over the run. */
    EventCounts published{};
};

EventCounts
publishedEvents()
{
    EventCounts c{};
    for (std::size_t k = 0; k < kEventKinds; ++k) {
        c[k] = globalMetrics()
                   .counter(std::string("sim.events.") +
                            toString(static_cast<EventKind>(k)))
                   .value();
    }
    return c;
}

FenceResult
runFence(const FenceCase &fc, unsigned jobs)
{
    const DramConfig dram = dramConfigByName(fc.preset);
    const DramOrganization &org = dram.org;
    RefreshHeatmap heatmap(org.ranks, org.banks, 8, (1u << 3) - 1);
    RefreshAudit audit(RefreshAudit::Shape{org.ranks, org.banks, org.rows});
    EnergyLedger ledger(
        EnergyLedger::Shape{dram.channels * org.ranks, org.banks});
    ExperimentOptions opts;
    opts.warmup = fc.warmup;
    opts.measure = fc.measure;
    opts.shardJobs = jobs;
    opts.sparseCounters = fc.sparse;
    opts.heatmap = &heatmap;
    opts.audit = &audit;
    opts.ledger = &ledger;

    const EventCounts before = publishedEvents();
    const RunResult r = runConventional(findProfile("mummer"), dram,
                                        PolicyKind::Smart, opts);
    const EventCounts after = publishedEvents();

    FenceResult out;
    out.events = r.eventsExecuted;
    for (std::size_t k = 0; k < kEventKinds; ++k)
        out.published[k] = after[k] - before[k];

    std::ostringstream bin;
    audit.writeBinary(bin);
    out.auditDigest = fnv1a64(bin.str());
    std::ostringstream hm;
    heatmap.writeJson(hm);
    out.heatmapDigest = fnv1a64(hm.str());
    std::ostringstream lj;
    ledger.writeJson(lj, "{}");
    out.ledgerDigest = fnv1a64(lj.str());
    return out;
}

void
expectFence(const FenceCase &fc, unsigned jobs)
{
    SCOPED_TRACE(std::string(fc.preset) + " -j" + std::to_string(jobs));
    const FenceResult r = runFence(fc, jobs);
    EXPECT_EQ(r.auditDigest, fc.auditDigest);
    EXPECT_EQ(r.heatmapDigest, fc.heatmapDigest);
    EXPECT_EQ(r.ledgerDigest, fc.ledgerDigest);
    EXPECT_EQ(r.events, fc.events);

    std::uint64_t sum = 0;
    for (std::uint64_t n : r.published)
        sum += n;
    EXPECT_EQ(sum, r.events);
    EXPECT_EQ(r.published[static_cast<std::size_t>(EventKind::Other)], 0u);
    for (EventKind k : {EventKind::Walk, EventKind::Emit,
                        EventKind::IssueRetry, EventKind::IdleTimer,
                        EventKind::Workload})
        EXPECT_GT(r.published[static_cast<std::size_t>(k)], 0u)
            << toString(k);
}

} // namespace

TEST(RefreshFence, TwoGigabyteSmartSerial) { expectFence(kSmall, 1); }

TEST(RefreshFence, TwoGigabyteSmartParallel) { expectFence(kSmall, 4); }

TEST(RefreshFence, ServerSparseSmartSerial) { expectFence(kServer, 1); }

TEST(RefreshFence, ServerSparseSmartParallel) { expectFence(kServer, 4); }
