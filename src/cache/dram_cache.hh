/**
 * @file
 * The 3D die-stacked DRAM cache (paper Sections 4.5, 6, 7.2).
 *
 * A direct-mapped cache whose data array is a DRAM module (the stacked
 * die, with its own memory controller and refresh domain) and whose tag
 * array is SRAM on the processor die. An access first checks the tags;
 * a hit becomes a read/write on the 3D DRAM, a miss fetches the line
 * from main memory, fills it into the 3D DRAM and writes back a dirty
 * victim. Tags are updated synchronously (no MSHR modelling) — the
 * simplification only merges the occasional overlapping miss and does
 * not affect refresh behaviour.
 *
 * What a demand's completion needs (arrival tick, cache slot, caller's
 * callback) lives in a recycled slab of in-flight records, so the
 * callbacks handed to the two controllers capture only (cache, record
 * id) and fit std::function's inline buffer: no per-access allocation.
 */

#pragma once

#include "core/sram_energy_model.hh"
#include "ctrl/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace smartref {

/** Configuration of the 3D DRAM cache front-end. */
struct DramCacheConfig
{
    std::uint32_t lineSize = 64;
    Tick tagLatency = 3 * kNanosecond;  ///< on-die SRAM tag lookup
    double tagBytesPerEntry = 4.0;      ///< tag + valid + dirty storage
    SramEnergyParams tagSram{};
};

/** Direct-mapped DRAM cache in front of main memory. */
class DramCache : public StatGroup
{
  public:
    /**
     * @param dataCtrl controller of the 3D DRAM holding the data array
     * @param mainMem  controller of the backing main memory
     */
    DramCache(MemoryController &dataCtrl, MemoryController &mainMem,
              const DramCacheConfig &cfg, EventQueue &eq,
              StatGroup *parent);

    /** Run one access (post-L2 demand) through the cache. */
    void access(Addr addr, bool write, MemCallback cb = nullptr);

    std::uint64_t numLines() const { return numLines_; }

    /** @name Statistics. */
    ///@{
    std::uint64_t hits() const { return asU64(hits_); }
    std::uint64_t misses() const { return asU64(misses_); }
    std::uint64_t writebacks() const { return asU64(writebacks_); }
    double
    hitRate() const
    {
        const double total = hits_.value() + misses_.value();
        return total > 0.0 ? hits_.value() / total : 0.0;
    }
    /** Mean demand latency through the cache (ticks). */
    double avgLatency() const { return latency_.mean(); }
    double latencySum() const { return latencySum_.value(); }
    std::uint64_t demandAccesses() const { return asU64(accesses_); }
    /** Tag-array SRAM energy (J); identical across refresh policies. */
    double tagEnergy() const { return tagSram_.totalEnergy(); }
    ///@}

  private:
    static std::uint64_t
    asU64(const Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    struct TagEntry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** A demand access in flight. */
    struct InFlight
    {
        Tick arrival = 0;
        Addr lineInCache = 0; ///< fill target once a miss returns
        MemCallback cb;
    };

    /** Claim a recycled in-flight record; returns its id. */
    std::uint32_t track(Tick arrival, Addr lineInCache, MemCallback cb);
    /**
     * The demand's data arrived: sample its latency, release its record,
     * then run the caller's callback.
     */
    void complete(std::uint32_t id, const MemRequest &req, Tick done);

    MemoryController &dataCtrl_;
    MemoryController &mainMem_;
    DramCacheConfig cfg_;
    EventQueue &eq_;
    std::uint64_t numLines_;
    std::vector<TagEntry> tags_;
    std::vector<InFlight> inFlight_;
    std::vector<std::uint32_t> freeIds_;
    SramEnergyModel tagSram_;

    Scalar accesses_;
    Scalar hits_;
    Scalar misses_;
    Scalar writebacks_;
    Scalar fills_;
    Histogram latency_;
    Scalar latencySum_;
};

} // namespace smartref
