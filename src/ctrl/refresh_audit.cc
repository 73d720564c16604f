#include "ctrl/refresh_audit.hh"

#include <cstring>
#include <ostream>

#include "sim/logging.hh"

namespace smartref {

const char *
toString(AuditOutcome outcome)
{
    switch (outcome) {
      case AuditOutcome::Issued: return "issued";
      case AuditOutcome::SkippedRecentAccess:
        return "skipped-recent-access";
      case AuditOutcome::SkippedCounterReset:
        return "skipped-counter-reset";
      case AuditOutcome::ForcedDeadline: return "forced-deadline";
      case AuditOutcome::Deferred: return "deferred";
      case AuditOutcome::DarpDeferred: return "darp-deferred";
      case AuditOutcome::DarpIdleIssued: return "darp-idle-issued";
      case AuditOutcome::DarpPiggybacked: return "darp-piggybacked";
      case AuditOutcome::DarpForced: return "darp-forced";
      case AuditOutcome::DarpCancelled: return "darp-cancelled";
      case AuditOutcome::SarpParallel: return "sarp-parallel";
    }
    return "?";
}

const char *
toString(AuditSource source)
{
    switch (source) {
      case AuditSource::Controller: return "controller";
      case AuditSource::SmartWalk: return "smart-walk";
      case AuditSource::SmartSchedule: return "smart-schedule";
      case AuditSource::RetentionAware: return "retention-aware";
      case AuditSource::Darp: return "darp";
    }
    return "?";
}

bool
parseAuditOutcome(const std::string &name, AuditOutcome &out)
{
    for (std::size_t i = 0; i < kAuditOutcomeCount; ++i) {
        const auto o = static_cast<AuditOutcome>(i);
        if (name == toString(o)) {
            out = o;
            return true;
        }
    }
    return false;
}

std::vector<std::string>
auditOutcomeNames()
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < kAuditOutcomeCount; ++i)
        names.push_back(toString(static_cast<AuditOutcome>(i)));
    return names;
}

RefreshAudit::RefreshAudit(Shape shape) : shape_(shape)
{
    SMARTREF_ASSERT(shape_.ranks > 0 && shape_.banks > 0 &&
                        shape_.rows > 0,
                    "audit shape must be non-empty");
    SMARTREF_ASSERT(shape_.ranks <= 256 && shape_.banks <= 256,
                    "audit records store rank/bank in one byte");
    addSlab();
}

void
RefreshAudit::addSlab()
{
    slabs_.push_back(std::make_unique<Slab>());
    freeInSlab_ = kSlabRecords;
}

std::uint64_t
RefreshAudit::total() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : counts_)
        n += c;
    return n;
}

std::vector<AuditRecord>
RefreshAudit::collect() const
{
    std::vector<AuditRecord> out;
    out.reserve(total());
    forEach([&out](const AuditRecord &r) { out.push_back(r); });
    return out;
}

void
RefreshAudit::writeBinary(std::ostream &out) const
{
    AuditFileHeader header{};
    std::memcpy(header.magic, kAuditMagic, sizeof(header.magic));
    header.version = kAuditVersion;
    header.recordBytes = sizeof(AuditRecord);
    header.ranks = shape_.ranks;
    header.banks = shape_.banks;
    header.rows = shape_.rows;
    header.channels = channels_;
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    for (const auto &slab : slabs_) {
        out.write(reinterpret_cast<const char *>(slab->records.data()),
                  static_cast<std::streamsize>(slab->used *
                                               sizeof(AuditRecord)));
    }
}

void
RefreshAudit::writeNdjson(std::ostream &out) const
{
    const bool multi = channels_ > 1;
    forEach([&out, multi](const AuditRecord &r) {
        out << "{\"t\":" << r.tick;
        if (multi)
            out << ",\"channel\":" << unsigned(r.channel);
        out << ",\"rank\":" << unsigned(r.rank)
            << ",\"bank\":" << unsigned(r.bank) << ",\"row\":" << r.row
            << ",\"outcome\":\""
            << toString(static_cast<AuditOutcome>(r.outcome))
            << "\",\"source\":\""
            << toString(static_cast<AuditSource>(r.source)) << "\"}\n";
    });
}

} // namespace smartref
