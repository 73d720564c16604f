/**
 * @file
 * The DRAM module (device) model: command legality, timing enforcement,
 * energy accounting and retention tracking for one DDR2-style module.
 *
 * The module is the timing *oracle*: the controller calls tryIssue(cmd),
 * which evaluates the command's timing once and either applies it or
 * returns the tick at which to try again. issue() asserts legality, so
 * scheduling bugs in a caller surface as panics rather than silently
 * wrong results.
 */

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "dram/commands.hh"
#include "dram/dram_config.hh"
#include "dram/power_model.hh"
#include "dram/rank.hh"
#include "dram/retention_tracker.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace smartref {

class EnergyLedger;

/** One DRAM module with its ranks, banks, power and retention models. */
class DramModule : public StatGroup
{
  public:
    /**
     * @param cfg    validated module configuration
     * @param eq     event queue providing the time base
     * @param parent stat parent (may be null for standalone use)
     */
    DramModule(const DramConfig &cfg, EventQueue &eq,
               StatGroup *parent = nullptr);

    const DramConfig &config() const { return cfg_; }

    /** Earliest tick at which `cmd` may legally issue. */
    Tick
    earliestIssue(const DramCommand &cmd) const
    {
        checkBank(cmd);
        return earliestLegal(cmd);
    }

    /** What tryIssue() did. */
    struct IssueAttempt
    {
        bool issued;
        /** The completion tick if issued, else the earliest legal tick. */
        Tick tick;
    };

    /**
     * Issue a command at the current tick if its timing allows it now.
     * The command is range-checked and its timing evaluated once; a
     * command that is not yet legal changes nothing.
     * @return issued with the completion tick (data available for
     *         reads; operation fully done for activate/precharge/
     *         refresh), or not issued with earliestIssue()'s tick
     */
    IssueAttempt tryIssue(const DramCommand &cmd);

    /**
     * Issue a command that must be legal at the current tick (a panic
     * otherwise). @return the completion tick, as tryIssue()
     */
    Tick issue(const DramCommand &cmd);

    /** @name Bank state inspection. */
    ///@{
    bool
    isBankOpen(std::uint32_t rank, std::uint32_t bank) const
    {
        return ranks_[rank].bank(bank).isOpen();
    }

    std::uint32_t
    openRow(std::uint32_t rank, std::uint32_t bank) const
    {
        return ranks_[rank].bank(bank).openRow();
    }
    ///@}

    /** Shared data bus availability. */
    Tick dataBusFreeAt() const { return dataBusFreeAt_; }

    /**
     * Tick until which an in-flight refresh blocks a demand access to
     * (rank, bank, row): the bank-level refresh busy window, any
     * all-bank (REFab) rank stall, and — in subarray modes — the
     * target row's subarray busy window. Controllers use this to
     * attribute demand-blocked-by-refresh ticks.
     */
    Tick
    refreshBlockedUntil(std::uint32_t rank, std::uint32_t bank,
                        std::uint32_t row) const
    {
        const Bank &b = ranks_[rank].bank(bank);
        Tick t = std::max(b.busyUntil(), b.refreshStall());
        if (parallelismUsesSubarrays(cfg_.parallelism))
            t = std::max(t, b.subarrayBusyUntil(cfg_.org.subarrayOf(row)));
        return t;
    }

    /**
     * Tick until which the target row's own subarray is busy with a
     * refresh (always 0 outside subarray modes). Used to count
     * subarray conflicts separately from bank-level blocking.
     */
    Tick
    subarrayBlockedUntil(std::uint32_t rank, std::uint32_t bank,
                         std::uint32_t row) const
    {
        if (!parallelismUsesSubarrays(cfg_.parallelism))
            return 0;
        const Bank &b = ranks_[rank].bank(bank);
        return b.subarrayBusyUntil(cfg_.org.subarrayOf(row));
    }

    /**
     * The (bank, row) a rank's CBR counter will select `lookahead`
     * refreshes from now. Controllers use this to route queued CBR
     * refreshes to the right bank before issue.
     */
    std::pair<std::uint32_t, std::uint32_t>
    peekCbrTarget(std::uint32_t rank, std::uint64_t lookahead = 0) const
    {
        return ranks_[rank].peekCbrTarget(lookahead);
    }

    DramPowerModel &power() { return power_; }
    const DramPowerModel &power() const { return power_; }

    RetentionTracker &retention() { return retention_; }
    const RetentionTracker &retention() const { return retention_; }

    /** @name Command counts. */
    ///@{
    std::uint64_t activates() const { return asU64(acts_); }
    std::uint64_t precharges() const { return asU64(pres_); }
    std::uint64_t reads() const { return asU64(reads_); }
    std::uint64_t writes() const { return asU64(writes_); }
    std::uint64_t cbrRefreshes() const { return asU64(cbrRefs_); }
    std::uint64_t rasOnlyRefreshes() const { return asU64(rasRefs_); }
    std::uint64_t
    totalRefreshes() const
    {
        return cbrRefreshes() + rasOnlyRefreshes();
    }
    ///@}

    /**
     * Attach an energy attribution ledger (pure observation; not
     * owned, must outlive the module). The ledger only sees events
     * from the point of attachment, so attach it before any traffic
     * or its conservation check will fail.
     */
    void setLedger(EnergyLedger *ledger) { ledger_ = ledger; }

    const EnergyLedger *ledger() const { return ledger_; }

    /**
     * Check the attached ledger against the power model's statistics
     * (no-op without a ledger). @return true when conserved; fatal
     * instead of returning false when @p fatalOnMismatch.
     */
    bool verifyLedger(bool fatalOnMismatch) const;

    /**
     * Integrate background power up to the current tick. Must be called
     * once at the end of a simulation before reading energies.
     */
    void finalize();

  private:
    static std::uint64_t
    asU64(const Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    /** Fatal unless cmd's rank and bank exist. */
    void checkBank(const DramCommand &cmd) const;
    /** checkBank() plus the row and column. */
    void checkAddress(const DramCommand &cmd) const;
    /** earliestIssue() of a command whose rank and bank exist. */
    Tick earliestLegal(const DramCommand &cmd) const;
    /** Apply a legal command at the current tick; @return completion. */
    Tick execute(const DramCommand &cmd);
    void integrateBackground(Rank &rank, Tick upTo);
    Tick issueRefresh(std::uint32_t rankIdx, std::uint32_t bankIdx,
                      std::uint32_t row, bool ras);
    Tick earliestRefresh(const Rank &rank, std::uint32_t bankIdx,
                         std::uint32_t row) const;

    DramConfig cfg_;
    EventQueue &eq_;
    std::vector<Rank> ranks_;
    Tick dataBusFreeAt_ = 0;
    EnergyLedger *ledger_ = nullptr;

    DramPowerModel power_;
    RetentionTracker retention_;

    Scalar acts_;
    Scalar pres_;
    Scalar reads_;
    Scalar writes_;
    Scalar cbrRefs_;
    Scalar rasRefs_;
    VectorStat refreshesPerBank_;

  public:
    /** Refreshes issued to one (rank, bank). */
    std::uint64_t
    refreshesToBank(std::uint32_t rank, std::uint32_t bank) const
    {
        return static_cast<std::uint64_t>(refreshesPerBank_.at(
            std::size_t(rank) * cfg_.org.banks + bank));
    }
};

} // namespace smartref
