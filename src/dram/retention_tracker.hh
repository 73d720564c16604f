/**
 * @file
 * Shadow model of DRAM cell charge age, used to *prove* refresh-policy
 * correctness (paper Section 4.3) rather than assume it.
 *
 * Semantics follow the physical device:
 *  - An ACTIVATE destructively reads a row into the sense amplifiers; the
 *    data is only valid if the charge age at that instant is within the
 *    retention limit. While the row is open, the amplifiers (static) hold
 *    the data, so age does not advance for data-validity purposes.
 *  - A PRECHARGE writes the open row back, restoring full charge.
 *  - A REFRESH is an activate-restore of one row: it both checks the age
 *    and restores the charge.
 *
 * A small configurable slack absorbs the bounded dispatch latency of the
 * pending-refresh queue (at most queue-depth row-refresh times plus one
 * in-flight data burst, i.e. well under the default 20 us).
 *
 * Rows are stored bank-interleaved, entry row*ranks*banks + rank*banks
 * + bank, so the refresh walks — CBR's banks-first counter and the
 * staggered Smart walk, which emits one row per bank in turn — touch
 * adjacent entries instead of one cache line per bank.
 *
 * Each row's last restore is a 32-bit stamp: whole 1.024 ns units
 * (1024 ticks) since a tracker base, rounded down. A reported age is
 * therefore never below the exact age and exceeds it by less than one
 * unit. A restore whose stamp would not fit moves the base forward in
 * steps of 2^31 units (about 2.2 s) and subtracts that from every
 * stamp, saturating at 0, so a row left unrestored that long still
 * reads at least 2^31 units old. Every limit plus slack must stay
 * below 2^31 units (checked fatally), so the rounding and the
 * saturation move no violation count, whatever the run length.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace smartref {

/** Tracks last-restore time of every (rank, bank, row) in a module. */
class RetentionTracker : public StatGroup
{
  public:
    /**
     * @param ranks/banks/rows module organization
     * @param retention       the retention deadline in ticks
     * @param slack           dispatch-latency allowance added to the limit
     * @param parent          stat group parent (may be null)
     */
    RetentionTracker(std::uint32_t ranks, std::uint32_t banks,
                     std::uint32_t rows, Tick retention,
                     Tick slack = 20 * kMicrosecond,
                     StatGroup *parent = nullptr);

    /** Row is being activated (demand access): validate its charge age. */
    void onActivate(std::uint32_t rank, std::uint32_t bank,
                    std::uint32_t row, Tick now);

    /** Row charge has been fully restored (precharge writeback). */
    void onRestore(std::uint32_t rank, std::uint32_t bank,
                   std::uint32_t row, Tick now);

    /** Row is refreshed: validate then restore; records refresh age. */
    void onRefresh(std::uint32_t rank, std::uint32_t bank,
                   std::uint32_t row, Tick now);

    /**
     * Validate that every row would still be refreshable at `now`,
     * i.e. no row's age exceeds the limit. Call at end of simulation.
     * @return number of stale rows found (also accumulated in stats)
     */
    std::uint64_t finalCheck(Tick now);

    /**
     * Apply per-row retention multipliers (RAPID-style classes): row
     * `idx`'s deadline becomes multipliers[idx] x the nominal limit.
     * The vector is indexed by flat (rank, bank, row) order and must
     * cover every row; it is stored in the tracker's interleaved order.
     */
    void applyClassMultipliers(const std::vector<std::uint8_t> &m);

    /** The retention limit of one specific row. */
    Tick
    rowLimit(std::uint32_t rank, std::uint32_t bank,
             std::uint32_t row) const
    {
        return limitOf(index(rank, bank, row));
    }

    /** Number of retention violations observed (must stay 0). */
    std::uint64_t violations() const;

    /**
     * @name Age statistics (read by tests only).
     * Ages come from the rounded stamps: each may read up to 1023
     * ticks older than exact, and a row unrestored for longer than
     * 2^31 units reads no less than 2^31 units old.
     */
    ///@{
    /** Largest charge age ever observed at a check (ticks). */
    Tick maxObservedAge() const { return maxAge_; }

    /** Smallest age observed at a *refresh* (ticks); 0 if none yet. */
    Tick minRefreshAge() const { return minRefreshAge_; }

    /** Mean age at refresh operations (ticks). */
    double meanRefreshAge() const;

    /**
     * Measured refresh optimality: mean refresh age / retention limit.
     * The paper's analytic bound is 1 - 1/2^bits for the worst case.
     */
    double measuredOptimality() const;
    ///@}

    Tick retentionLimit() const { return retention_; }

  private:
    /** log2 of the stamp unit in ticks (1024 ps = 1.024 ns). */
    static constexpr unsigned kUnitShift = 10;
    /** One rebase step in stamp units (2^31, about 2.2 s). */
    static constexpr std::uint64_t kRebaseUnits = std::uint64_t(1) << 31;

    /** Bank-interleaved entry of a row (ranks, banks powers of two). */
    std::uint64_t
    index(std::uint32_t rank, std::uint32_t bank, std::uint32_t row) const
    {
        return (std::uint64_t(row) << rowShift_) |
               (std::uint64_t(rank) << bankShift_) | bank;
    }

    void check(std::uint64_t idx, Tick now, bool isRefresh);

    /** Record a restore of entry `idx` at `t`, rounded down. */
    void
    stamp(std::uint64_t idx, Tick t)
    {
        std::uint64_t units = (t - base_) >> kUnitShift;
        if (units > UINT32_MAX) [[unlikely]]
            units = rebase(t);
        lastRestore_[idx] = static_cast<std::uint32_t>(units);
    }

    /**
     * Move the base forward by whole rebase steps until a stamp at `t`
     * fits, saturating older stamps at 0. @return the stamp for `t`.
     */
    std::uint64_t rebase(Tick t);

    /** The (rounded-down) tick of entry `idx`'s last restore. */
    Tick
    restoredAt(std::uint64_t idx) const
    {
        return base_ + (Tick(lastRestore_[idx]) << kUnitShift);
    }

    /** Fatal unless `limit` plus the slack is below one rebase step. */
    void checkLimitFits(Tick limit) const;

    Tick
    limitOf(std::uint64_t idx) const
    {
        return multipliers_.empty() ? retention_
                                    : retention_ * multipliers_[idx];
    }

    /** The geometry; ranks and banks are powers of two. */
    std::uint32_t rows_;
    std::uint32_t bankShift_; ///< log2(banks)
    std::uint32_t rowShift_;  ///< log2(ranks * banks)
    Tick retention_;
    Tick slack_;
    Tick base_ = 0; ///< tick of stamp 0; a multiple of the unit
    std::vector<std::uint32_t> lastRestore_; ///< stamps, units past base_
    std::vector<std::uint8_t> multipliers_; ///< empty = uniform 1x

    Tick maxAge_ = 0;
    Tick minRefreshAge_ = 0;
    bool anyRefresh_ = false;
    double refreshAgeSum_ = 0.0;
    std::uint64_t refreshAgeCount_ = 0;

    Scalar violationCount_;
    Scalar checksPerformed_;
};

} // namespace smartref
