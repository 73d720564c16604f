#include "dram/retention_tracker.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace smartref {

RetentionTracker::RetentionTracker(std::uint32_t ranks, std::uint32_t banks,
                                   std::uint32_t rows, Tick retention,
                                   Tick slack, StatGroup *parent)
    : StatGroup("retention", parent),
      rows_(rows),
      bankShift_(static_cast<std::uint32_t>(std::countr_zero(banks))),
      rowShift_(static_cast<std::uint32_t>(std::countr_zero(ranks)) +
                bankShift_),
      retention_(retention), slack_(slack),
      lastRestore_(std::uint64_t(ranks) * banks * rows, 0),
      violationCount_(this, "violations",
                      "charge-age checks that exceeded the retention limit"),
      checksPerformed_(this, "checks", "charge-age checks performed")
{
    SMARTREF_ASSERT(retention_ > 0, "zero retention limit");
    SMARTREF_ASSERT(std::has_single_bit(ranks) && std::has_single_bit(banks),
                    "ranks and banks must be powers of two");
    checkLimitFits(retention_);
}

void
RetentionTracker::checkLimitFits(Tick limit) const
{
    constexpr Tick kStep = Tick(kRebaseUnits) << kUnitShift;
    if (limit >= kStep || slack_ >= kStep - limit) {
        SMARTREF_FATAL("retention limit ", limit, " + slack ", slack_,
                       " ticks reaches the stamp rebase step of ", kStep,
                       " ticks");
    }
}

void
RetentionTracker::applyClassMultipliers(
    const std::vector<std::uint8_t> &m)
{
    SMARTREF_ASSERT(m.size() == lastRestore_.size(),
                    "class map covers ", m.size(), " rows, module has ",
                    lastRestore_.size());
    std::uint8_t maxMultiplier = 0;
    for (std::uint8_t x : m)
        maxMultiplier = std::max(maxMultiplier, x);
    checkLimitFits(retention_ * maxMultiplier);
    multipliers_.resize(m.size());
    const std::uint32_t banks = 1u << bankShift_;
    const std::uint32_t ranks = 1u << (rowShift_ - bankShift_);
    std::uint64_t flat = 0;
    for (std::uint32_t r = 0; r < ranks; ++r)
        for (std::uint32_t b = 0; b < banks; ++b)
            for (std::uint32_t row = 0; row < rows_; ++row)
                multipliers_[index(r, b, row)] = m[flat++];
}

void
RetentionTracker::check(std::uint64_t idx, Tick now, bool isRefresh)
{
    const Tick age = now - restoredAt(idx);
    ++checksPerformed_;
    if (age > maxAge_)
        maxAge_ = age;
    if (isRefresh) {
        if (!anyRefresh_ || age < minRefreshAge_)
            minRefreshAge_ = age;
        anyRefresh_ = true;
        refreshAgeSum_ += static_cast<double>(age);
        ++refreshAgeCount_;
    }
    if (age > limitOf(idx) + slack_)
        ++violationCount_;
}

void
RetentionTracker::onActivate(std::uint32_t rank, std::uint32_t bank,
                             std::uint32_t row, Tick now)
{
    check(index(rank, bank, row), now, false);
}

void
RetentionTracker::onRestore(std::uint32_t rank, std::uint32_t bank,
                            std::uint32_t row, Tick now)
{
    stamp(index(rank, bank, row), now);
}

void
RetentionTracker::onRefresh(std::uint32_t rank, std::uint32_t bank,
                            std::uint32_t row, Tick now)
{
    const std::uint64_t idx = index(rank, bank, row);
    check(idx, now, true);
    stamp(idx, now);
}

std::uint64_t
RetentionTracker::rebase(Tick t)
{
    SMARTREF_ASSERT(t >= base_, "restore at ", t, " before stamp base ",
                    base_);
    const std::uint64_t units = (t - base_) >> kUnitShift;
    // Fewest whole steps that bring `units` below 2^32; afterwards it
    // is at least 2^31, so a saturated row reads at least that old.
    const std::uint64_t shift =
        (units - UINT32_MAX + kRebaseUnits - 1) / kRebaseUnits *
        kRebaseUnits;
    base_ += shift << kUnitShift;
    for (std::uint32_t &s : lastRestore_)
        s = s > shift ? static_cast<std::uint32_t>(s - shift) : 0;
    return units - shift;
}

std::uint64_t
RetentionTracker::finalCheck(Tick now)
{
    std::uint64_t stale = 0;
    for (std::uint64_t idx = 0; idx < lastRestore_.size(); ++idx) {
        // Restores are recorded at operation *completion* ticks, which
        // may land just past the simulation horizon; those rows are
        // fresh by construction.
        const Tick t = restoredAt(idx);
        const Tick age = t >= now ? 0 : now - t;
        if (age > maxAge_)
            maxAge_ = age;
        if (age > limitOf(idx) + slack_)
            ++stale;
    }
    violationCount_ += static_cast<double>(stale);
    return stale;
}

std::uint64_t
RetentionTracker::violations() const
{
    return static_cast<std::uint64_t>(violationCount_.value());
}

double
RetentionTracker::meanRefreshAge() const
{
    return refreshAgeCount_
               ? refreshAgeSum_ / static_cast<double>(refreshAgeCount_)
               : 0.0;
}

double
RetentionTracker::measuredOptimality() const
{
    return meanRefreshAge() / static_cast<double>(retention_);
}

} // namespace smartref
