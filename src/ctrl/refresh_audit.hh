/**
 * @file
 * Refresh decision audit trail: every refresh opportunity, in every
 * policy, records a compact POD outcome with row coordinates and
 * simulated time.
 *
 * Outcomes (one per opportunity):
 *  - `Issued`             — an addressed (RAS-only) refresh reached the
 *                           DRAM; recorded at completion with resolved
 *                           coordinates.
 *  - `ForcedDeadline`     — a CBR refresh the policy could not avoid
 *                           (plain CBR/burst cadence, or Smart Refresh
 *                           falling back to CBR mode).
 *  - `SkippedCounterReset`— Smart Refresh's walk found the row counter
 *                           non-zero: an intervening access or refresh
 *                           reset it, so the visit issues nothing.
 *  - `SkippedRecentAccess`— the retention-aware policy visited a row
 *                           whose last restore is recent enough (its
 *                           class deadline has not expired).
 *  - `Deferred`           — Smart Refresh found an expired counter but
 *                           delayed the refresh to its stagger slot.
 *  - `DarpDeferred`       — DARP held a refresh back because its bank
 *                           had demand in flight (or predicted
 *                           imminent).
 *  - `DarpIdleIssued`     — DARP dispatched a held refresh into a
 *                           demand-idle bank.
 *  - `DarpPiggybacked`    — DARP dispatched a held refresh right after
 *                           a write drain in the same bank.
 *  - `DarpForced`         — a held refresh hit its defer window and was
 *                           force-dispatched ahead of demand.
 *  - `DarpCancelled`      — the policy answered that a held refresh is
 *                           no longer needed (row currently open), so
 *                           it was dropped instead of issued.
 *  - `SarpParallel`       — a subarray refresh completed while its bank
 *                           kept serving demand in other subarrays.
 *
 * Records are buffered allocation-free in fixed slabs (pointer-bump
 * appends; a new slab every 64 Ki records) and drained to a binary
 * sink (32-byte "SRAUDIT" header + raw 24-byte records, native
 * endianness) and/or an NDJSON sink. Per-outcome summary counters are
 * always maintained, so the histogram is O(1) to read.
 *
 * Multi-channel runs (DramConfig::channels > 1) give each channel its
 * own trail stamped with setChannel(); the sharded runner merges them
 * by (tick, channel) into one trail whose header carries the channel
 * count (format version 2).
 *
 * With no sink attached (the default), each record site costs one
 * null-pointer branch.
 */

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace smartref {

/** What happened to one refresh opportunity. */
enum class AuditOutcome : std::uint8_t {
    Issued = 0,
    SkippedRecentAccess = 1,
    SkippedCounterReset = 2,
    ForcedDeadline = 3,
    Deferred = 4,
    DarpDeferred = 5,
    DarpIdleIssued = 6,
    DarpPiggybacked = 7,
    DarpForced = 8,
    DarpCancelled = 9,
    SarpParallel = 10,
};
constexpr std::size_t kAuditOutcomeCount = 11;

/** Which component recorded the outcome. */
enum class AuditSource : std::uint8_t {
    Controller = 0,     ///< refresh completion in the memory controller
    SmartWalk = 1,      ///< Smart Refresh counter walk
    SmartSchedule = 2,  ///< Smart Refresh stagger-slot scheduling
    RetentionAware = 3, ///< retention-aware row visit
    Darp = 4,           ///< DARP hold/dispatch decisions
};
constexpr std::size_t kAuditSourceCount = 5;

const char *toString(AuditOutcome outcome);
const char *toString(AuditSource source);

/** Parse a kebab-case outcome name ("skipped-counter-reset"). */
bool parseAuditOutcome(const std::string &name, AuditOutcome &out);

/** All outcome names, for CLI validation / did-you-mean. */
std::vector<std::string> auditOutcomeNames();

/** One refresh opportunity. 24 bytes, trivially copyable. The
 *  explicit padding keeps the on-disk bytes fully determined. */
struct AuditRecord
{
    Tick tick;          ///< simulated time (ps)
    std::uint32_t row;
    std::uint8_t rank;
    std::uint8_t bank;
    std::uint8_t outcome;   ///< AuditOutcome
    std::uint8_t source;    ///< AuditSource
    std::uint8_t channel;   ///< memory channel (0 in single-channel runs)
    std::uint8_t reserved[7]; ///< zero
};
static_assert(sizeof(AuditRecord) == 24, "audit record must stay compact");
static_assert(std::is_trivially_copyable_v<AuditRecord>);

/** Binary sink header; followed by raw AuditRecords. */
struct AuditFileHeader
{
    char magic[8];              ///< "SRAUDIT\0"
    std::uint32_t version;      ///< 2
    std::uint32_t recordBytes;  ///< sizeof(AuditRecord)
    std::uint32_t ranks;        ///< per channel
    std::uint32_t banks;
    std::uint32_t rows;
    std::uint32_t channels;     ///< 1 for single-channel trails
};
static_assert(sizeof(AuditFileHeader) == 32);

constexpr char kAuditMagic[8] = {'S', 'R', 'A', 'U', 'D', 'I', 'T', '\0'};
constexpr std::uint32_t kAuditVersion = 2;

/** Slab-buffered audit trail for one module's refresh domain. */
class RefreshAudit
{
  public:
    struct Shape
    {
        std::uint32_t ranks = 0;
        std::uint32_t banks = 0;
        std::uint32_t rows = 0;
    };

    static constexpr std::size_t kSlabRecords = std::size_t(1) << 16;

    explicit RefreshAudit(Shape shape);

    /** Append one record; allocation-free except at slab boundaries. */
    void
    record(Tick tick, std::uint32_t rank, std::uint32_t bank,
           std::uint32_t row, AuditOutcome outcome, AuditSource source)
    {
        ++counts_[static_cast<std::size_t>(outcome)];
        if (freeInSlab_ == 0)
            addSlab();
        Slab &s = *slabs_.back();
        s.records[s.used++] = AuditRecord{
            tick, row, static_cast<std::uint8_t>(rank),
            static_cast<std::uint8_t>(bank),
            static_cast<std::uint8_t>(outcome),
            static_cast<std::uint8_t>(source), channel_, {}};
        --freeInSlab_;
    }

    /** Append an already-built record (sharded-run merging). */
    void
    append(const AuditRecord &r)
    {
        ++counts_[static_cast<std::size_t>(r.outcome)];
        if (freeInSlab_ == 0)
            addSlab();
        Slab &s = *slabs_.back();
        s.records[s.used++] = r;
        --freeInSlab_;
    }

    /**
     * Channel id stamped into every subsequent record (per-channel
     * trails in a sharded run; 0 for single-channel runs).
     */
    void
    setChannel(std::uint32_t channel)
    {
        SMARTREF_ASSERT(channel <= 255,
                        "audit records store the channel in one byte");
        channel_ = static_cast<std::uint8_t>(channel);
    }

    /** Channel count written to the binary header (merged trails). */
    void setChannels(std::uint32_t channels) { channels_ = channels; }
    std::uint32_t channels() const { return channels_; }

    Shape shape() const { return shape_; }
    std::uint64_t total() const;

    std::uint64_t
    count(AuditOutcome outcome) const
    {
        return counts_[static_cast<std::size_t>(outcome)];
    }

    /** Visit every record in append order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &slab : slabs_) {
            for (std::size_t i = 0; i < slab->used; ++i)
                fn(slab->records[i]);
        }
    }

    /** All records in one vector (tests, small runs). */
    std::vector<AuditRecord> collect() const;

    /** Drain to the binary format described above. */
    void writeBinary(std::ostream &out) const;

    /** Drain to NDJSON, one record object per line. */
    void writeNdjson(std::ostream &out) const;

  private:
    struct Slab
    {
        std::array<AuditRecord, kSlabRecords> records;
        std::size_t used = 0;
    };

    void addSlab();

    Shape shape_;
    std::vector<std::unique_ptr<Slab>> slabs_;
    std::size_t freeInSlab_ = 0;
    std::array<std::uint64_t, kAuditOutcomeCount> counts_{};
    std::uint8_t channel_ = 0;
    std::uint32_t channels_ = 1;
};

/** Record an audit outcome through a possibly-null RefreshAudit*. */
#define SMARTREF_AUDIT_RECORD(audit, ...)                                  \
    do {                                                                   \
        if (audit)                                                         \
            (audit)->record(__VA_ARGS__);                                  \
    } while (0)

} // namespace smartref
