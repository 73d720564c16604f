/**
 * @file
 * Energy attribution ledger: per-(rank,bank) x component x interval
 * accounting alongside the DRAM power model, with a hard conservation
 * invariant against the power model's energy statistics.
 *
 * The ledger is a pure observer: DramModule calls one hook per power
 * event, mirroring the exact accumulation the power model performs, so
 * attaching a ledger never changes simulated behaviour or any
 * deterministic output.
 *
 * Two kinds of state are kept:
 *
 *  - **Shadow component totals** (act/read/write/refresh/background),
 *    accumulated with the identical sequence of IEEE operations the
 *    power model's Scalars see. `reconcile()` checks them against the
 *    power stats to <= 1 ulp (they are bit-identical in practice) and
 *    cross-checks the integer event counts exactly — the conservation
 *    invariant `sum(ledger) == total energy stat`.
 *
 *  - **Per-(rank,bank), per-interval event counts** plus per-rank
 *    background residency ticks, from which the exported JSON/CSV
 *    derives per-cell component energies (count x per-op energy,
 *    ticks x state power).
 *
 * `writeConservationCheckJson()` emits the shadow totals keyed by the
 * power model's dotted stat paths in the stats-JSON shape, so
 * `smartref_statdiff --subset` can gate conservation against a
 * `--stats-json` artifact of the same run in CI.
 */

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dram/power_model.hh"
#include "sim/types.hh"

namespace smartref {

/** Result of checking the ledger against the power model. */
struct ConservationReport
{
    bool pass = true;
    std::string detail; ///< description of the first mismatch
};

/** Distance in representable doubles (0 = bit-identical). */
std::uint64_t ulpDistance(double a, double b);

/** Per-(rank,bank) x component x interval energy attribution. */
class EnergyLedger
{
  public:
    struct Shape
    {
        std::uint32_t ranks = 0;
        std::uint32_t banks = 0;
    };

    /** Event counts for one (rank,bank) cell in one interval. */
    struct Cell
    {
        std::uint64_t acts = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t refreshesClosed = 0;
        std::uint64_t refreshesOpen = 0;
    };

    /** Background residency of one rank in one interval, by state. */
    struct RankBackground
    {
        std::array<Tick, 3> ticks{}; ///< indexed by RankPowerState
    };

    struct Interval
    {
        std::vector<Cell> cells;               ///< ranks * banks
        std::vector<RankBackground> background; ///< ranks
    };

    /** Shadow component totals (joules). */
    struct Totals
    {
        double act = 0;
        double read = 0;
        double write = 0;
        double refresh = 0;
        double background = 0;
        double overhead = 0;

        /** Summed in the power model's association order. */
        double
        total() const
        {
            return ((act + read + write) + background) + refresh +
                   overhead;
        }
    };

    explicit EnergyLedger(Shape shape, Tick interval = 4 * kMillisecond);

    /** @name Hooks, one per DramPowerModel accounting event. */
    ///@{
    void onActivate(Tick now, std::uint32_t rank, std::uint32_t bank,
                    double joules);
    void onRead(Tick now, std::uint32_t rank, std::uint32_t bank,
                double joules);
    void onWrite(Tick now, std::uint32_t rank, std::uint32_t bank,
                 double joules);
    void onRefresh(Tick now, std::uint32_t rank, std::uint32_t bank,
                   bool bankWasOpen, double joules,
                   double openPenaltyJoules);
    void onBackground(Tick from, Tick upTo, std::uint32_t rank,
                      RankPowerState state, double watts);
    ///@}

    /**
     * Controller overhead (bus + counter SRAM) as one finalize-time
     * lump: overhead is computed analytically per run, not per event,
     * so it has no per-interval attribution. Idempotent (set, not +=).
     */
    void setOverhead(double joules);

    /**
     * Declare this ledger a merged multi-channel view: the rank axis is
     * channel-major (rank r belongs to channel r / (ranks/channels)).
     * Exports then label every cell with its channel. Must divide the
     * rank count.
     */
    void setChannels(std::uint32_t channels);
    std::uint32_t channels() const { return channels_; }

    /**
     * Fold one channel's ledger into this merged view at the given rank
     * offset: per-interval cell counts and background residency add
     * element-wise, shadow totals sum, and the per-op energies / state
     * powers learned from hooks are adopted (they are identical across
     * channels of one config). Deterministic — called in fixed channel
     * order by the sharded runner. Interval lengths must match.
     */
    void absorbChannel(const EnergyLedger &src, std::uint32_t rankOffset);

    Shape shape() const { return shape_; }
    Tick intervalLength() const { return interval_; }
    const std::vector<Interval> &intervals() const { return intervals_; }
    Totals totals() const { return totals_; }

    /** Event counts summed over all cells and intervals. */
    Cell cellTotals() const;

    /**
     * The conservation invariant: shadow totals within 1 ulp of the
     * power stats (bit-identical in practice) and event counts equal
     * exactly. @p acts/@p reads/@p writes come from the owning
     * DramModule's command counters.
     */
    ConservationReport reconcile(const DramPowerModel &power,
                                 std::uint64_t acts, std::uint64_t reads,
                                 std::uint64_t writes) const;

    /** @name Export. */
    ///@{
    void writeJson(std::ostream &os, const std::string &metaJson) const;

    /** Per-cell per-interval grid, one row per non-empty cell. */
    void writeCsv(std::ostream &os) const;

    /**
     * Shadow totals in the stats-JSON shape keyed by
     * `<powerPrefix>.<stat>` (e.g. "system.dram.2gb.power.actEnergy"),
     * for the `smartref_statdiff --subset` conservation gate.
     */
    void writeConservationCheckJson(std::ostream &os,
                                    const std::string &powerPrefix,
                                    const std::string &metaJson) const;
    ///@}

  private:
    Interval &intervalAt(Tick t);
    Cell &cellAt(Tick t, std::uint32_t rank, std::uint32_t bank);

    Shape shape_;
    Tick interval_;
    std::uint32_t channels_ = 1;
    std::vector<Interval> intervals_;
    Totals totals_;

    /** Per-op energies / state powers learned from the hooks. */
    double eAct_ = 0, eRead_ = 0, eWrite_ = 0, eRefresh_ = 0,
           ePenalty_ = 0;
    std::array<double, 3> watts_{};
};

} // namespace smartref
