/**
 * @file
 * RefreshAudit tests: outcome naming, slab-buffered append order,
 * binary/NDJSON drains, the null-target record macro, and the
 * end-to-end wiring — each policy records the outcomes its decision
 * path actually takes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>

#include "ctrl/refresh_audit.hh"
#include "harness/experiment.hh"
#include "sim/mini_json.hh"

using namespace smartref;

namespace {

RefreshAudit::Shape
smallShape()
{
    return {2, 4, 64};
}

} // namespace

TEST(RefreshAudit, OutcomeNamesRoundTrip)
{
    const auto names = auditOutcomeNames();
    ASSERT_EQ(names.size(), kAuditOutcomeCount);
    for (std::size_t i = 0; i < kAuditOutcomeCount; ++i) {
        const auto outcome = static_cast<AuditOutcome>(i);
        EXPECT_EQ(names[i], toString(outcome));
        AuditOutcome parsed;
        ASSERT_TRUE(parseAuditOutcome(names[i], parsed));
        EXPECT_EQ(parsed, outcome);
    }
    AuditOutcome ignored;
    EXPECT_FALSE(parseAuditOutcome("bogus", ignored));
    EXPECT_STREQ(toString(AuditOutcome::SkippedCounterReset),
                 "skipped-counter-reset");
    EXPECT_STREQ(toString(AuditSource::SmartWalk), "smart-walk");
}

TEST(RefreshAudit, RecordMaintainsCountsAndAppendOrder)
{
    RefreshAudit audit(smallShape());
    EXPECT_EQ(audit.total(), 0u);
    audit.record(10, 0, 1, 2, AuditOutcome::Issued,
                 AuditSource::Controller);
    audit.record(20, 1, 3, 63, AuditOutcome::Deferred,
                 AuditSource::SmartSchedule);
    audit.record(30, 0, 0, 0, AuditOutcome::Deferred,
                 AuditSource::SmartSchedule);
    EXPECT_EQ(audit.total(), 3u);
    EXPECT_EQ(audit.count(AuditOutcome::Issued), 1u);
    EXPECT_EQ(audit.count(AuditOutcome::Deferred), 2u);
    EXPECT_EQ(audit.count(AuditOutcome::ForcedDeadline), 0u);

    const auto records = audit.collect();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].tick, 10u);
    EXPECT_EQ(records[0].row, 2u);
    EXPECT_EQ(records[1].rank, 1);
    EXPECT_EQ(records[1].bank, 3);
    EXPECT_EQ(records[2].tick, 30u);
}

TEST(RefreshAudit, SlabBoundariesPreserveEveryRecord)
{
    RefreshAudit audit(smallShape());
    const std::uint64_t n = 2 * RefreshAudit::kSlabRecords + 3;
    for (std::uint64_t i = 0; i < n; ++i) {
        audit.record(i, 0, 0, static_cast<std::uint32_t>(i % 64),
                     AuditOutcome::SkippedCounterReset,
                     AuditSource::SmartWalk);
    }
    EXPECT_EQ(audit.total(), n);
    std::uint64_t seen = 0;
    audit.forEach([&seen](const AuditRecord &r) {
        EXPECT_EQ(r.tick, seen);
        ++seen;
    });
    EXPECT_EQ(seen, n);
}

TEST(RefreshAudit, BinaryRoundTripPreservesHeaderAndRecords)
{
    RefreshAudit audit(smallShape());
    audit.record(42, 1, 2, 33, AuditOutcome::ForcedDeadline,
                 AuditSource::Controller);
    audit.record(43, 0, 3, 7, AuditOutcome::SkippedRecentAccess,
                 AuditSource::RetentionAware);
    std::stringstream in;
    audit.writeBinary(in);

    AuditFileHeader header{};
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    EXPECT_EQ(std::memcmp(header.magic, kAuditMagic, sizeof(kAuditMagic)),
              0);
    EXPECT_EQ(header.version, kAuditVersion);
    EXPECT_EQ(header.recordBytes, sizeof(AuditRecord));
    EXPECT_EQ(header.ranks, 2u);
    EXPECT_EQ(header.banks, 4u);
    EXPECT_EQ(header.rows, 64u);

    std::vector<AuditRecord> records(2);
    in.read(reinterpret_cast<char *>(records.data()),
            static_cast<std::streamsize>(2 * sizeof(AuditRecord)));
    ASSERT_TRUE(in);
    EXPECT_EQ(records[0].tick, 42u);
    EXPECT_EQ(records[0].outcome,
              static_cast<std::uint8_t>(AuditOutcome::ForcedDeadline));
    EXPECT_EQ(records[1].row, 7u);
    EXPECT_EQ(records[1].source,
              static_cast<std::uint8_t>(AuditSource::RetentionAware));
}

TEST(RefreshAudit, NdjsonLinesParseIndividually)
{
    RefreshAudit audit(smallShape());
    audit.record(100, 0, 1, 5, AuditOutcome::Deferred,
                 AuditSource::SmartSchedule);
    audit.record(200, 1, 0, 6, AuditOutcome::Issued,
                 AuditSource::Controller);
    std::stringstream in;
    audit.writeNdjson(in);

    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const minijson::Value v = minijson::parse(line);
        EXPECT_TRUE(v.isObject()) << line;
        EXPECT_TRUE(v.has("t")) << line;
        EXPECT_TRUE(v.has("outcome")) << line;
        ++lines;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(RefreshAudit, RecordMacroIgnoresNullTarget)
{
    RefreshAudit *none = nullptr;
    SMARTREF_AUDIT_RECORD(none, Tick(0), 0u, 0u, 0u,
                          AuditOutcome::Issued, AuditSource::Controller);
    SUCCEED();
}

namespace {

/** Run one short experiment with an audit trail attached. */
RefreshAudit
auditedRun(const char *policy)
{
    const DramConfig dram = dramConfigByName("2gb");
    RefreshAudit audit(RefreshAudit::Shape{dram.org.ranks, dram.org.banks,
                                           dram.org.rows});
    ExperimentOptions opts;
    opts.warmup = 2 * kMillisecond;
    opts.measure = 4 * kMillisecond;
    opts.audit = &audit;
    runConventional(findProfile("mummer"), dram, policyFromString(policy),
                    opts);
    return audit;
}

} // namespace

TEST(RefreshAuditWiring, CbrRecordsOnlyForcedDeadlines)
{
    const RefreshAudit audit = auditedRun("cbr");
    EXPECT_GT(audit.count(AuditOutcome::ForcedDeadline), 0u);
    EXPECT_EQ(audit.count(AuditOutcome::Issued), 0u);
    EXPECT_EQ(audit.count(AuditOutcome::SkippedCounterReset), 0u);
    EXPECT_EQ(audit.count(AuditOutcome::SkippedRecentAccess), 0u);
}

TEST(RefreshAuditWiring, SmartRecordsWalkSkipsDeferralsAndIssues)
{
    const RefreshAudit audit = auditedRun("smart");
    EXPECT_GT(audit.count(AuditOutcome::SkippedCounterReset), 0u);
    EXPECT_GT(audit.count(AuditOutcome::Deferred), 0u);
    EXPECT_GT(audit.count(AuditOutcome::Issued), 0u);
    EXPECT_EQ(audit.count(AuditOutcome::SkippedRecentAccess), 0u);
}

TEST(RefreshAuditWiring, RetentionAwareRecordsRecentAccessSkips)
{
    // The retention-aware policy needs a class map, which
    // runConventional does not build — assemble the system directly.
    const DramConfig dram = dramConfigByName("2gb");
    RefreshAudit audit(RefreshAudit::Shape{dram.org.ranks, dram.org.banks,
                                           dram.org.rows});
    RetentionClassParams params;
    params.seed = 7;
    SystemConfig cfg;
    cfg.dram = dram;
    cfg.policy = PolicyKind::RetentionAware;
    cfg.retentionClasses = std::make_shared<RetentionClassMap>(
        dram.org.totalRows(), params);
    cfg.audit = &audit;
    System sys(cfg);
    // By the second base-period walk, strong rows refreshed in the
    // first pass are still within their class deadline — skipped.
    sys.run(5 * dram.timing.retention / 2);
    EXPECT_GT(audit.count(AuditOutcome::SkippedRecentAccess), 0u);
    EXPECT_GT(audit.count(AuditOutcome::Issued), 0u);
}

TEST(RefreshAuditWiring, CoordinatesStayInsideTheModuleShape)
{
    const RefreshAudit audit = auditedRun("smart");
    const auto shape = audit.shape();
    ASSERT_GT(audit.total(), 0u);
    Tick last = 0;
    audit.forEach([&](const AuditRecord &r) {
        EXPECT_LT(r.rank, shape.ranks);
        EXPECT_LT(r.bank, shape.banks);
        EXPECT_LT(r.row, shape.rows);
        EXPECT_GE(r.tick, last); // simulated time never goes backwards
        last = r.tick;
    });
}
