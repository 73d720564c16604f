/**
 * @file
 * Per-row retention classes, RAPID-style (Venkatesan et al., HPCA'06,
 * the paper's reference [32]).
 *
 * Real DRAM cells retain charge for wildly different times; only a
 * small fraction need the worst-case 64 ms. RAPID profiles rows and
 * refreshes strong rows less often. The paper's Section 8 claims Smart
 * Refresh is *orthogonal* and can be applied on top — this module makes
 * that claim executable: a RetentionClassMap assigns each (rank, bank,
 * row) a retention multiplier (1x = weak/worst-case, 2x/4x = stronger),
 * consumable both by a RAPID-only baseline policy and by
 * SmartRefreshPolicy's multi-rate counters.
 *
 * The class assignment models a profiling result: pseudo-random per row
 * from a seed, with population fractions following the retention-time
 * distributions RAPID reports (weak rows are rare).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace smartref {

/** Population mix of retention classes. */
struct RetentionClassParams
{
    /**
     * (multiplier, fraction) pairs; fractions must sum to 1 and
     * multipliers must be powers of two in ascending order. Defaults
     * follow RAPID's observation that almost all cells retain far
     * longer than the worst case.
     */
    std::vector<std::pair<std::uint32_t, double>> classes = {
        {1, 0.02}, {2, 0.28}, {4, 0.70}};
    std::uint64_t seed = 7;
};

/** Immutable per-row retention multipliers for one module. */
class RetentionClassMap
{
  public:
    RetentionClassMap(std::uint64_t totalRows,
                      const RetentionClassParams &params = {});

    std::uint64_t totalRows() const { return multipliers_.size(); }

    /** Retention multiplier of one row (by flat counter index). */
    std::uint32_t
    multiplier(std::uint64_t row) const
    {
        return multipliers_[row];
    }

    /** The largest multiplier present. */
    std::uint32_t maxMultiplier() const { return maxMultiplier_; }

    /** Number of rows in the given class. */
    std::uint64_t population(std::uint32_t multiplier) const;

    /**
     * The ideal refresh rate (rows/second) if every row were refreshed
     * exactly at its class deadline — RAPID's best case, from this
     * map's populations.
     */
    double idealRefreshRate(Tick nominalRetention) const;

    const RetentionClassParams &params() const { return params_; }

  private:
    RetentionClassParams params_;
    std::vector<std::uint8_t> multipliers_;
    std::uint32_t maxMultiplier_ = 1;
};

} // namespace smartref
