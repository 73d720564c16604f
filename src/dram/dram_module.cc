#include "dram/dram_module.hh"

#include <algorithm>

#include "dram/energy_ledger.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace smartref {

DramModule::DramModule(const DramConfig &cfg, EventQueue &eq,
                       StatGroup *parent)
    : StatGroup("dram." + cfg.name, parent),
      cfg_(cfg),
      eq_(eq),
      power_(cfg, this),
      retention_(cfg.org.ranks, cfg.org.banks, cfg.org.rows,
                 cfg.timing.retention, 20 * kMicrosecond, this),
      acts_(this, "activates", "ACTIVATE commands issued"),
      pres_(this, "precharges", "PRECHARGE commands issued"),
      reads_(this, "reads", "READ bursts issued"),
      writes_(this, "writes", "WRITE bursts issued"),
      cbrRefs_(this, "cbrRefreshes", "CBR refresh commands issued"),
      rasRefs_(this, "rasOnlyRefreshes",
               "RAS-only refresh commands issued"),
      refreshesPerBank_(this, "refreshesPerBank",
                        "refresh commands per (rank, bank)",
                        [&cfg] {
                            std::vector<std::string> labels;
                            for (std::uint32_t r = 0; r < cfg.org.ranks;
                                 ++r) {
                                for (std::uint32_t b = 0;
                                     b < cfg.org.banks; ++b) {
                                    labels.push_back(
                                        "r" + std::to_string(r) + "b" +
                                        std::to_string(b));
                                }
                            }
                            return labels;
                        }())
{
    cfg_.validate();
    ranks_.reserve(cfg_.org.ranks);
    for (std::uint32_t r = 0; r < cfg_.org.ranks; ++r)
        ranks_.emplace_back(cfg_.org);
}

void
DramModule::checkBank(const DramCommand &cmd) const
{
    SMARTREF_ASSERT(cmd.rank < cfg_.org.ranks, "rank ", cmd.rank,
                    " out of range");
    SMARTREF_ASSERT(cmd.bank < cfg_.org.banks, "bank ", cmd.bank,
                    " out of range");
}

void
DramModule::checkAddress(const DramCommand &cmd) const
{
    checkBank(cmd);
    SMARTREF_ASSERT(cmd.row < cfg_.org.rows, "row ", cmd.row,
                    " out of range");
    SMARTREF_ASSERT(cmd.column < cfg_.org.columns, "column ", cmd.column,
                    " out of range");
}

Tick
DramModule::earliestRefresh(const Rank &rank, std::uint32_t bankIdx,
                            std::uint32_t row) const
{
    const Bank &bank = rank.bank(bankIdx);
    if (parallelismUsesSubarrays(cfg_.parallelism)) {
        // SARP: the refresh only needs its target subarray free (plus
        // a precharge window when it lands in the open row's own
        // subarray); demand in other subarrays keeps flowing.
        Tick earliest = std::max(
            {bank.refreshStall(), bank.busyUntil(),
             bank.subarrayBusyUntil(cfg_.org.subarrayOf(row))});
        if (bank.isOpen() && cfg_.refreshClosesPage(bank.openRow(), row))
            earliest = std::max(earliest, bank.preAllowedAt());
        return earliest;
    }
    Tick earliest = std::max({bank.actAllowedAt(), bank.busyUntil(),
                              bank.refreshStall()});
    if (bank.isOpen())
        earliest = std::max(earliest, bank.preAllowedAt());
    return earliest;
}

Tick
DramModule::earliestLegal(const DramCommand &cmd) const
{
    const Rank &rank = ranks_[cmd.rank];
    const Bank &bank = rank.bank(cmd.bank);

    switch (cmd.type) {
      case DramCommandType::Activate: {
        Tick earliest = std::max({bank.actAllowedAt(), bank.busyUntil(),
                                  rank.nextActAllowed(),
                                  bank.refreshStall()});
        if (parallelismUsesSubarrays(cfg_.parallelism)) {
            const std::uint32_t sub = cfg_.org.subarrayOf(cmd.row);
            earliest = std::max(earliest, bank.subarrayBusyUntil(sub));
            if (!cfg_.hiraConcurrentActivation) {
                // Without HiRA's isolated local bitlines, an ACT may
                // not start in the same tRRD window as an in-flight
                // refresh of another subarray (shared peripherals),
                // but need not wait for the whole refresh.
                const Tick anyBusy = bank.maxSubarrayBusyUntil();
                if (anyBusy > earliest) {
                    earliest = std::max(
                        earliest,
                        std::min(anyBusy, bank.lastRefreshStart() +
                                              cfg_.timing.tRRD));
                }
            }
        }
        return earliest;
      }
      case DramCommandType::Precharge:
        return std::max(bank.preAllowedAt(), bank.refreshStall());
      case DramCommandType::Read:
      case DramCommandType::Write: {
        // The data bus is busy [issue + tCL, issue + tCL + tBurst); the
        // next burst may not start before the bus frees up.
        const Tick busConstraint = dataBusFreeAt_ > cfg_.timing.tCL
                                       ? dataBusFreeAt_ - cfg_.timing.tCL
                                       : Tick(0);
        return std::max({bank.rdWrAllowedAt(), busConstraint,
                         bank.refreshStall()});
      }
      case DramCommandType::RefreshCbr: {
        const auto [b, row] = rank.peekCbrTarget();
        return earliestRefresh(rank, b, row);
      }
      case DramCommandType::RefreshRasOnly:
        return earliestRefresh(rank, cmd.bank, cmd.row);
    }
    SMARTREF_PANIC("unknown command type");
}

DramModule::IssueAttempt
DramModule::tryIssue(const DramCommand &cmd)
{
    // Every command type, precharge included, is range-checked before
    // anything is indexed by it.
    checkAddress(cmd);
    const Tick earliest = earliestLegal(cmd);
    if (earliest > eq_.now())
        return {false, earliest};
    return {true, execute(cmd)};
}

Tick
DramModule::issue(const DramCommand &cmd)
{
    const IssueAttempt attempt = tryIssue(cmd);
    SMARTREF_ASSERT(attempt.issued, toString(cmd.type), " issued at ",
                    eq_.now(), " before earliest ", attempt.tick);
    return attempt.tick;
}

Tick
DramModule::execute(const DramCommand &cmd)
{
    const Tick now = eq_.now();
    Rank &rank = ranks_[cmd.rank];
    integrateBackground(rank, now);

    switch (cmd.type) {
      case DramCommandType::Activate: {
        Bank &bank = rank.bank(cmd.bank);
        SMARTREF_ASSERT(!bank.isOpen(), "ACT into open bank");
        retention_.onActivate(cmd.rank, cmd.bank, cmd.row, now);
        bank.activate(cmd.row, now, cfg_.timing);
        rank.noteActivate(now, cfg_.timing);
        power_.onActivatePair();
        if (ledger_) {
            ledger_->onActivate(now, cmd.rank, cmd.bank,
                                power_.energyPerActivatePair());
        }
        ++acts_;
        SMARTREF_TRACE(TraceCategory::Dram, now, "ACT", cmd.rank,
                       cmd.bank, cmd.row, 0.0, cfg_.timing.tRCD);
        return now + cfg_.timing.tRCD;
      }
      case DramCommandType::Precharge: {
        Bank &bank = rank.bank(cmd.bank);
        SMARTREF_ASSERT(bank.isOpen(), "PRE into precharged bank");
        const Tick done = now + cfg_.timing.tRP;
        retention_.onRestore(cmd.rank, cmd.bank, bank.openRow(), done);
        SMARTREF_TRACE(TraceCategory::Dram, now, "PRE", cmd.rank,
                       cmd.bank, bank.openRow(), 0.0, cfg_.timing.tRP);
        bank.precharge(now, cfg_.timing);
        rank.noteBusy(done);
        ++pres_;
        return done;
      }
      case DramCommandType::Read:
      case DramCommandType::Write: {
        Bank &bank = rank.bank(cmd.bank);
        SMARTREF_ASSERT(bank.isOpen() && bank.openRow() == cmd.row,
                        "column access to row ", cmd.row,
                        " but open row is ",
                        bank.isOpen() ? bank.openRow() : ~0u);
        const Tick done = now + cfg_.timing.tCL + cfg_.timing.tBurst;
        dataBusFreeAt_ = done;
        SMARTREF_TRACE(TraceCategory::Dram, now,
                       cmd.type == DramCommandType::Read ? "RD" : "WR",
                       cmd.rank, cmd.bank, cmd.row, cmd.column,
                       done - now);
        if (cmd.type == DramCommandType::Read) {
            bank.read(now, cfg_.timing);
            power_.onRead();
            if (ledger_) {
                ledger_->onRead(now, cmd.rank, cmd.bank,
                                power_.energyPerRead());
            }
            ++reads_;
            rank.noteBusy(done);
        } else {
            bank.write(now, cfg_.timing);
            power_.onWrite();
            if (ledger_) {
                ledger_->onWrite(now, cmd.rank, cmd.bank,
                                 power_.energyPerWrite());
            }
            ++writes_;
            rank.noteBusy(done + cfg_.timing.tWR);
        }
        return done;
      }
      case DramCommandType::RefreshCbr: {
        const auto [b, row] = rank.nextCbrTarget();
        ++cbrRefs_;
        return issueRefresh(cmd.rank, b, row, false);
      }
      case DramCommandType::RefreshRasOnly: {
        ++rasRefs_;
        return issueRefresh(cmd.rank, cmd.bank, cmd.row, true);
      }
    }
    SMARTREF_PANIC("unknown command type");
}

Tick
DramModule::issueRefresh(std::uint32_t rankIdx, std::uint32_t bankIdx,
                         std::uint32_t row, bool ras)
{
    (void)ras; // only read when tracing is compiled in
    const Tick now = eq_.now();
    Rank &rank = ranks_[rankIdx];
    Bank &bank = rank.bank(bankIdx);

    // In subarray modes only a refresh landing in the open row's own
    // subarray implicitly precharges the page; otherwise the page
    // survives and the refresh carries no open-page penalty. The same
    // predicate drives the controller's row-closed notifications.
    const bool closesPage =
        bank.isOpen() && cfg_.refreshClosesPage(bank.openRow(), row);
    if (closesPage) {
        // Closing the page restores the displaced row's charge.
        retention_.onRestore(rankIdx, bankIdx, bank.openRow(),
                             now + cfg_.timing.tRP);
    }
    const Tick done =
        parallelismUsesSubarrays(cfg_.parallelism)
            ? bank.refreshSubarray(cfg_.org.subarrayOf(row), now,
                                   cfg_.timing, closesPage)
            : bank.refresh(now, cfg_.timing, closesPage);
    retention_.onRefresh(rankIdx, bankIdx, row, done);
    power_.onRowRefresh(closesPage);
    if (ledger_) {
        ledger_->onRefresh(now, rankIdx, bankIdx, closesPage,
                           power_.energyPerRowRefresh(),
                           power_.energyOpenPagePenalty());
    }
    SMARTREF_TRACE(TraceCategory::Dram, now,
                   ras ? "REF.ras" : "REF.cbr", rankIdx, bankIdx, row,
                   closesPage ? 1.0 : 0.0, done - now);
    refreshesPerBank_[std::size_t(rankIdx) * cfg_.org.banks + bankIdx] +=
        1.0;
    if (cfg_.parallelism == RefreshParallelism::None)
        rank.stallAllBanks(done); // REFab: the whole rank stalls
    rank.noteBusy(done);
    return done;
}

void
DramModule::integrateBackground(Rank &rank, Tick upTo)
{
    const Tick from = rank.powerIntegratedTo();
    if (upTo <= from)
        return;
    rank.setPowerIntegratedTo(upTo);

    const auto rankIdx =
        static_cast<std::uint32_t>(&rank - ranks_.data());
    auto account = [&](RankPowerState state, Tick begin, Tick end) {
        power_.accountBackground(state, end - begin);
        if (ledger_) {
            ledger_->onBackground(begin, end, rankIdx, state,
                                  power_.backgroundPower(state));
        }
    };

    if (rank.anyBankOpen()) {
        account(RankPowerState::ActiveStandby, from, upTo);
        return;
    }
    if (!cfg_.allowPowerDown) {
        account(RankPowerState::PrechargeStandby, from, upTo);
        return;
    }
    // All banks precharged: the rank idles in standby for powerDownDelay
    // after its last activity, then drops into power-down.
    const Tick pdStart = rank.lastBusyEnd() + cfg_.timing.powerDownDelay;
    const Tick standbyEnd = std::clamp(pdStart, from, upTo);
    if (standbyEnd > from)
        account(RankPowerState::PrechargeStandby, from, standbyEnd);
    if (upTo > standbyEnd)
        account(RankPowerState::PowerDown, standbyEnd, upTo);
}

bool
DramModule::verifyLedger(bool fatalOnMismatch) const
{
    if (!ledger_)
        return true;
    const ConservationReport rep = ledger_->reconcile(
        power_, activates(), reads(), writes());
    if (!rep.pass && fatalOnMismatch) {
        SMARTREF_FATAL("energy ledger conservation violated on '",
                       statName(), "': ", rep.detail);
    }
    return rep.pass;
}

void
DramModule::finalize()
{
    for (Rank &rank : ranks_)
        integrateBackground(rank, eq_.now());
#ifndef NDEBUG
    // SMARTREF_ASSERT is always compiled in, so the debug-only
    // conservation invariant is gated explicitly.
    if (!verifyLedger(true))
        SMARTREF_PANIC("energy ledger conservation violated");
#endif
}

} // namespace smartref
