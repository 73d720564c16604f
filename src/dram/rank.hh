/**
 * @file
 * Per-rank state: the bank array, the CBR internal refresh counter, and
 * the bookkeeping needed to integrate background (standby) power lazily.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "dram/dram_config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace smartref {

/** One rank of a DRAM module. */
class Rank
{
  public:
    explicit Rank(const DramOrganization &org)
        : banks_(org.banks), banksPerRank_(org.banks),
          bankShift_(static_cast<unsigned>(std::countr_zero(org.banks))),
          rowMask_(org.rows - 1)
    {
        SMARTREF_ASSERT(std::has_single_bit(org.banks) &&
                            std::has_single_bit(org.rows),
                        "banks and rows must be powers of two");
        for (Bank &b : banks_)
            b.configureSubarrays(org.subarraysPerBank);
    }

    Bank &bank(std::uint32_t b) { return banks_.at(b); }
    const Bank &bank(std::uint32_t b) const { return banks_.at(b); }
    std::uint32_t numBanks() const { return banksPerRank_; }

    /** True when any bank has an open row. */
    bool
    anyBankOpen() const
    {
        for (const Bank &b : banks_)
            if (b.isOpen())
                return true;
        return false;
    }

    /** Earliest tick an ACTIVATE may issue rank-wide (tRRD). */
    Tick nextActAllowed() const { return nextActAllowed_; }

    void
    noteActivate(Tick now, const DramTiming &t)
    {
        nextActAllowed_ = now + t.tRRD;
        noteBusy(now + t.tRC);
    }

    /** Record the completion tick of the latest operation on this rank. */
    void
    noteBusy(Tick doneAt)
    {
        if (doneAt > lastBusyEnd_)
            lastBusyEnd_ = doneAt;
    }

    /** When the rank last finished doing anything (for power-down). */
    Tick lastBusyEnd() const { return lastBusyEnd_; }

    /**
     * Stall every bank of the rank until `until` — the REFab all-bank
     * refresh semantics where one refresh blocks the whole rank.
     */
    void
    stallAllBanks(Tick until)
    {
        for (Bank &b : banks_)
            b.stallForRefresh(until);
    }

    /** Last tick background power was integrated up to. */
    Tick powerIntegratedTo() const { return powerIntegratedTo_; }
    void setPowerIntegratedTo(Tick t) { powerIntegratedTo_ = t; }

    /**
     * Advance the CBR internal refresh counter and return the
     * (bank, row) it selects. Consecutive refreshes walk banks first so
     * that back-to-back CBR refreshes land in different banks.
     */
    std::pair<std::uint32_t, std::uint32_t>
    nextCbrTarget()
    {
        auto target = peekCbrTarget();
        ++cbrCounter_;
        return target;
    }

    /**
     * The (bank, row) the CBR refresh `lookahead` commands from now would
     * target. lookahead 0 is the next one.
     */
    std::pair<std::uint32_t, std::uint32_t>
    peekCbrTarget(std::uint64_t lookahead = 0) const
    {
        const std::uint64_t idx = cbrCounter_ + lookahead;
        const std::uint32_t bank =
            static_cast<std::uint32_t>(idx & (banksPerRank_ - 1));
        const std::uint32_t row =
            static_cast<std::uint32_t>((idx >> bankShift_) & rowMask_);
        return {bank, row};
    }

    std::uint64_t cbrCounter() const { return cbrCounter_; }

  private:
    std::vector<Bank> banks_;
    std::uint32_t banksPerRank_;
    unsigned bankShift_;    ///< log2(banksPerRank_)
    std::uint64_t rowMask_; ///< rows - 1
    Tick nextActAllowed_ = 0;
    Tick lastBusyEnd_ = 0;
    Tick powerIntegratedTo_ = 0;
    std::uint64_t cbrCounter_ = 0;
};

} // namespace smartref
