/**
 * @file
 * The per-row time-out counter array (paper Section 4.1).
 *
 * One small binary down-counter per (rank, bank, row). The array models
 * the SRAM structure the memory controller would hold: every touch is
 * counted as SRAM traffic so the energy overhead the paper accounts for
 * (Section 6) can be charged faithfully — a counter-access step is billed
 * one read and one write per touched counter, and a demand reset is one
 * write.
 *
 * Storage layout: logical index i (the (rank, bank, row) linearisation
 * used by every caller) is decoupled from the physical byte position via
 * physIndex(). With an interleave factor S (the stagger walk's segment
 * count), logical index s * P + p is stored at byte p * S + s, so the S
 * counters one StaggerScheduler::step touches — one per segment at the
 * same in-segment position p — are S *adjacent* bytes instead of S
 * bytes a full segment stride apart. The walk becomes one or two cache
 * lines per step instead of S guaranteed misses; demand resets pay one
 * shift-and-mask (or a divide for non-power-of-two segment sizes) to
 * map through the same function. The default interleave of 1 keeps the
 * identity layout.
 *
 * Hierarchical sparse mode (server-scale capacities, docs/scaling.md):
 * with `sparse = true` the physical byte array is split into chunks of
 * `chunkPositions` walk positions (× interleave bytes each), allocated
 * lazily. An untouched ("pristine") chunk stores nothing: because the
 * walk decrements every position exactly once per cycle and the
 * staggered init gives all segments at position p the same start value,
 * a pristine position's value is a closed-form function of (position,
 * completed walk passes). The walk therefore skips a pristine chunk's
 * step in O(1) — one summary read instead of `interleave` counter
 * reads/writes — and bills no per-counter SRAM traffic for it; the
 * summary/skip totals are reported separately (summaryReads(),
 * touchesSkipped()). The first demand reset(), touch(), init() or
 * setResetValue() into a chunk materialises it from the closed form, so
 * observable behaviour (expiry sequence, peek values, heatmap and audit
 * streams) is bit-exact with the dense array; only the billed SRAM
 * traffic differs, by exactly the explicitly-accounted skips. Dense
 * mode (the default) is byte-for-byte the historical implementation.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ctrl/refresh_audit.hh"
#include "ctrl/refresh_heatmap.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace smartref {

/** A fixed-size array of B-bit down-counters with SRAM traffic counts. */
class CounterArray
{
  public:
    /** Default walk positions per sparse chunk (32 KiB of counters at
     *  interleave 8). Billing depends on chunk granularity — a chunk is
     *  either wholly pristine or wholly materialised — so this is part
     *  of the modelled design, not a tuning knob. */
    static constexpr std::uint64_t kDefaultChunkPositions = 4096;

    /**
     * @param size number of counters (one per rank/bank/row)
     * @param bits counter width in bits (the paper uses 2 or 3)
     * @param interleave segment-interleave factor for the physical
     *        layout (the stagger walk's segment count); 1 = identity
     *        layout. Must divide `size` evenly.
     * @param sparse lazy chunked storage with an O(1) pristine walk
     *        fast path (see file comment); default dense
     * @param chunkPositions walk positions per sparse chunk; 0 picks
     *        kDefaultChunkPositions (tests use small chunks to exercise
     *        boundaries)
     */
    CounterArray(std::uint64_t size, std::uint32_t bits,
                 std::uint32_t interleave = 1, bool sparse = false,
                 std::uint64_t chunkPositions = 0)
        : bits_(bits), max_(static_cast<std::uint8_t>((1u << bits) - 1)),
          interleave_(interleave), sparse_(sparse),
          size_(size)
    {
        SMARTREF_ASSERT(bits >= 1 && bits <= 8,
                        "counter width ", bits, " unsupported");
        SMARTREF_ASSERT(size > 0, "empty counter array");
        SMARTREF_ASSERT(interleave >= 1 && size % interleave == 0,
                        "interleave ", interleave, " must divide ", size);
        perSegment_ = size / interleave;
        // Power-of-two segment sizes (every shipped geometry) map with a
        // shift and a mask instead of a divide.
        if (perSegment_ > 1 && (perSegment_ & (perSegment_ - 1)) == 0) {
            posMask_ = perSegment_ - 1;
            std::uint32_t shift = 0;
            while ((std::uint64_t(1) << shift) < perSegment_)
                ++shift;
            posShift_ = shift;
        }
        if (sparse_) {
            chunkPositions_ = chunkPositions ? chunkPositions
                                             : kDefaultChunkPositions;
            chunkPositions_ = std::min(chunkPositions_, perSegment_);
            chunks_.resize((perSegment_ + chunkPositions_ - 1) /
                           chunkPositions_);
        } else {
            values_.assign(size, 0);
        }
    }

    std::uint64_t size() const { return size_; }
    std::uint32_t bits() const { return bits_; }
    std::uint8_t maxValue() const { return max_; }
    /** Segment-interleave factor of the physical layout. */
    std::uint32_t interleave() const { return interleave_; }
    /** True when built with lazy chunked storage. */
    bool sparse() const { return sparse_; }

    /**
     * Attach a spatial heatmap (not owned, may be null): every walk
     * touch reports its segment and pre-decrement counter value, which
     * is where the skip/expiry and counter-value distributions come
     * from. Costs one branch per touched counter when detached.
     */
    void setHeatmap(RefreshHeatmap *heatmap) { heatmap_ = heatmap; }
    RefreshHeatmap *heatmap() const { return heatmap_; }

    /**
     * Attach a refresh decision audit trail (not owned, may be null):
     * every walk touch that finds a non-zero counter — a refresh
     * opportunity skipped because an intervening access or refresh
     * reset the countdown — records a SkippedCounterReset outcome.
     * @p eq provides the timestamp; @p banks/@p rows decode the
     * logical counter index back into (rank, bank, row).
     */
    void
    setAudit(RefreshAudit *audit, const EventQueue *eq,
             std::uint32_t banks, std::uint32_t rows)
    {
        audit_ = audit;
        auditEq_ = eq;
        auditBanks_ = banks;
        auditRows_ = rows;
        SMARTREF_ASSERT(!audit_ || (auditEq_ && banks > 0 && rows > 0 &&
                                    std::uint64_t(banks) * rows > 0),
                        "audit decode shape must be non-empty");
    }

    /**
     * Physical byte position of logical counter i: the index-mapping
     * function shared by the stagger walk and demand resets.
     */
    std::uint64_t
    physIndex(std::uint64_t i) const
    {
        if (interleave_ == 1)
            return i;
        std::uint64_t seg, pos;
        if (posMask_ != 0) {
            seg = i >> posShift_;
            pos = i & posMask_;
        } else {
            seg = i / perSegment_;
            pos = i % perSegment_;
        }
        return pos * interleave_ + seg;
    }

    /** Storage the array occupies, in bits (for the area formula). */
    std::uint64_t
    storageBits() const
    {
        return size() * bits_;
    }

    /** Current value (no SRAM traffic; for tests/inspection). */
    std::uint8_t
    peek(std::uint64_t i) const
    {
        const std::uint64_t p = physIndex(i);
        if (!sparse_)
            return values_[p];
        const std::uint8_t *chunk =
            chunkFor((p / interleave_) / chunkPositions_);
        return chunk ? chunk[chunkOffset(p)]
                     : pristineValue(p / interleave_);
    }

    /** Set an initial value without SRAM traffic (initialisation). */
    void
    init(std::uint64_t i, std::uint8_t v)
    {
        SMARTREF_ASSERT(v <= max_, "init value ", int(v), " over max");
        slot(physIndex(i)) = v;
    }

    /**
     * Per-counter reset value (multi-rate extension): rows in stronger
     * retention classes restart their countdown from a higher value,
     * deferring their next refresh proportionally. Defaults to the
     * width's maximum for every counter. In sparse mode the pristine
     * closed form assumes the maximum, so the first call materialises
     * every chunk (retention classes and sparse storage do not compose
     * usefully; docs/scaling.md).
     */
    void
    setResetValue(std::uint64_t i, std::uint8_t v)
    {
        SMARTREF_ASSERT(v <= max_, "reset value ", int(v), " over max");
        if (resetValues_.empty()) {
            if (sparse_)
                materializeAll();
            resetValues_.assign(size_, max_);
        }
        resetValues_[physIndex(i)] = v;
    }

    /** The value reset()/expiry restarts this counter from. */
    std::uint8_t
    resetValue(std::uint64_t i) const
    {
        return resetValues_.empty() ? max_ : resetValues_[physIndex(i)];
    }

    /** Demand access: reset to the row's reset value (one SRAM write). */
    void
    reset(std::uint64_t i)
    {
        const std::uint64_t p = physIndex(i);
        slot(p) = resetValues_.empty() ? max_ : resetValues_[p];
        ++writes_;
    }

    /**
     * Periodic walk touch: read the counter; if zero, restart it and
     * report that a refresh is due, else decrement. Counted as one read
     * plus one write (the paper's conservative accounting).
     * @return true when the row must be refreshed
     */
    bool
    touch(std::uint64_t i)
    {
        ++reads_;
        ++writes_;
        const std::uint64_t p = physIndex(i);
        return touchRef(slot(p), p);
    }

    /**
     * One stagger-walk step over the interleaved layout: touch the
     * counter at in-segment position `pos` of every segment — exactly
     * `interleave()` physically adjacent bytes — invoking
     * `expired(segment)` for each counter found at zero. SRAM traffic
     * (one read + one write per touched counter) is billed once for the
     * whole step. Only meaningful when the array was built with an
     * interleave factor equal to the walk's segment count.
     *
     * Sparse mode: a step whose chunk is pristine is answered from the
     * per-chunk summary in O(1) — billed as one summary read, with the
     * `interleave()` per-counter touches recorded in touchesSkipped()
     * instead of the SRAM traffic counters. Observable behaviour
     * (expiry callbacks, heatmap, audit) is identical to dense.
     */
    template <typename Fn>
    void
    walkStep(std::uint64_t pos, Fn &&expired)
    {
        if (!sparse_) {
            reads_ += interleave_;
            writes_ += interleave_;
            const std::uint64_t base = pos * interleave_;
            for (std::uint32_t s = 0; s < interleave_; ++s) {
                if (heatmap_)
                    heatmap_->recordCounterTouch(s, values_[base + s]);
                if (audit_ && values_[base + s] != 0)
                    recordWalkSkip(std::uint64_t(s) * perSegment_ + pos);
                if (touchRef(values_[base + s], base + s))
                    expired(s);
            }
            return;
        }

        // The stagger walk visits positions cyclically, which is what
        // makes the pristine closed form a function of (pos, pass).
        SMARTREF_ASSERT(pos == nextPos_, "sparse walk out of order: pos ",
                        pos, " expected ", nextPos_);
        std::uint8_t *chunk = chunkFor(pos / chunkPositions_);
        if (chunk) {
            reads_ += interleave_;
            writes_ += interleave_;
            std::uint8_t *base =
                chunk + (pos % chunkPositions_) * interleave_;
            const std::uint64_t physBase = pos * interleave_;
            for (std::uint32_t s = 0; s < interleave_; ++s) {
                if (heatmap_)
                    heatmap_->recordCounterTouch(s, base[s]);
                if (audit_ && base[s] != 0)
                    recordWalkSkip(std::uint64_t(s) * perSegment_ + pos);
                if (touchRef(base[s], physBase + s))
                    expired(s);
            }
        } else {
            // Pristine chunk: all segments at this position share one
            // analytic value. One summary read answers the whole step.
            ++summaryReads_;
            touchesSkipped_ += interleave_;
            const std::uint8_t v = pristineValue(pos);
            if (heatmap_) {
                for (std::uint32_t s = 0; s < interleave_; ++s)
                    heatmap_->recordCounterTouch(s, v);
            }
            if (audit_ && v != 0) {
                for (std::uint32_t s = 0; s < interleave_; ++s)
                    recordWalkSkip(std::uint64_t(s) * perSegment_ + pos);
            }
            if (v == 0) {
                for (std::uint32_t s = 0; s < interleave_; ++s)
                    expired(s);
            }
        }
        if (++nextPos_ == perSegment_) {
            nextPos_ = 0;
            ++pass_;
        }
    }

    /**
     * Rewrite every counter with the staggered start pattern
     * min(maxValue - (p % 2^bits), resetValue) used by
     * StaggerScheduler::initialiseStaggered, where p is the in-segment
     * position under `segments` walk lanes, and restart the sparse walk
     * bookkeeping. In sparse mode with `segments == interleave()` and
     * uniform reset values this frees every chunk instead of writing
     * the pattern out — the pattern *is* the pristine closed form at
     * pass 0 — which is what keeps a server-scale array unallocated
     * until demand traffic arrives.
     */
    void
    resetToStaggeredPattern(std::uint32_t segments)
    {
        SMARTREF_ASSERT(segments >= 1 && size_ % segments == 0,
                        "segments ", segments, " must divide ", size_);
        if (sparse_) {
            nextPos_ = 0;
            pass_ = 0;
            staggered_ = true;
            if (segments == interleave_ && resetValues_.empty()) {
                for (auto &chunk : chunks_)
                    chunk.reset();
                residentChunks_ = 0;
                return;
            }
        }
        const std::uint64_t per = size_ / segments;
        const std::uint32_t numValues = 1u << bits_;
        for (std::uint64_t s = 0; s < segments; ++s) {
            for (std::uint64_t p = 0; p < per; ++p) {
                const std::uint64_t idx = s * per + p;
                const auto pattern =
                    static_cast<std::uint8_t>(max_ - (p % numValues));
                init(idx, std::min(pattern, resetValue(idx)));
            }
        }
    }

    /** @name SRAM traffic counters. */
    ///@{
    std::uint64_t sramReads() const { return reads_; }
    std::uint64_t sramWrites() const { return writes_; }
    ///@}

    /** @name Sparse-mode accounting (all zero in dense mode). */
    ///@{
    /** Pristine-chunk walk steps answered from the summary (O(1)). */
    std::uint64_t summaryReads() const { return summaryReads_; }
    /** Per-counter touches those summary answers replaced. */
    std::uint64_t touchesSkipped() const { return touchesSkipped_; }
    /** Chunks currently materialised. */
    std::uint64_t chunksResident() const { return residentChunks_; }
    /** Chunks the layout would hold when fully materialised. */
    std::uint64_t
    chunksTotal() const
    {
        return chunks_.size();
    }
    ///@}

    /**
     * Bytes of counter storage actually resident: the whole array when
     * dense, materialised chunks (plus any per-counter reset values)
     * when sparse. Deterministic — materialisation depends only on the
     * simulated access sequence — so it may appear in meta blocks.
     */
    std::uint64_t
    residentCounterBytes() const
    {
        const std::uint64_t resets = resetValues_.size();
        if (!sparse_)
            return values_.size() + resets;
        return residentChunks_ * chunkBytes() + resets;
    }

  private:
    /** Record a SkippedCounterReset for logical counter index `idx`. */
    void
    recordWalkSkip(std::uint64_t idx)
    {
        const auto row = static_cast<std::uint32_t>(idx % auditRows_);
        const std::uint64_t rb = idx / auditRows_;
        const auto bank = static_cast<std::uint32_t>(rb % auditBanks_);
        const auto rank = static_cast<std::uint32_t>(rb / auditBanks_);
        audit_->record(auditEq_->now(), rank, bank, row,
                       AuditOutcome::SkippedCounterReset,
                       AuditSource::SmartWalk);
    }

    /** Touch through a reference; traffic is billed by the caller. */
    bool
    touchRef(std::uint8_t &v, std::uint64_t phys)
    {
        if (v == 0) {
            v = resetValues_.empty() ? max_ : resetValues_[phys];
            return true;
        }
        --v;
        return false;
    }

    std::uint64_t chunkBytes() const { return chunkPositions_ * interleave_; }

    /** Byte offset of physical position `phys` inside its chunk. */
    std::uint64_t
    chunkOffset(std::uint64_t phys) const
    {
        const std::uint64_t pos = phys / interleave_;
        return (pos % chunkPositions_) * interleave_ + phys % interleave_;
    }

    std::uint8_t *
    chunkFor(std::uint64_t chunkIdx)
    {
        return chunks_[chunkIdx].get();
    }
    const std::uint8_t *
    chunkFor(std::uint64_t chunkIdx) const
    {
        return chunks_[chunkIdx].get();
    }

    /**
     * Value of every still-pristine counter at in-segment position
     * `pos`: the staggered start value (or 0 when never initialised)
     * minus one per completed walk visit, mod 2^bits — the wrap at zero
     * is exactly the expiry reset back to maxValue.
     */
    std::uint8_t
    pristineValue(std::uint64_t pos) const
    {
        const std::uint64_t m = std::uint64_t(max_) + 1;
        const std::uint64_t visits =
            pass_ + (pos < nextPos_ ? 1 : 0);
        const std::uint64_t v0 = staggered_ ? max_ - (pos % m) : 0;
        return static_cast<std::uint8_t>((v0 + m - visits % m) % m);
    }

    /** Materialise (if needed) and return the chunk holding `pos`. */
    std::uint8_t *
    ensureChunk(std::uint64_t chunkIdx)
    {
        auto &ptr = chunks_[chunkIdx];
        if (!ptr) {
            ptr = std::make_unique<std::uint8_t[]>(chunkBytes());
            const std::uint64_t first = chunkIdx * chunkPositions_;
            const std::uint64_t count =
                std::min(chunkPositions_, perSegment_ - first);
            for (std::uint64_t p = 0; p < count; ++p) {
                std::fill_n(ptr.get() + p * interleave_, interleave_,
                            pristineValue(first + p));
            }
            ++residentChunks_;
        }
        return ptr.get();
    }

    void
    materializeAll()
    {
        for (std::uint64_t c = 0; c < chunks_.size(); ++c)
            ensureChunk(c);
    }

    /** Mutable byte of physical position `phys`, materialising in
     *  sparse mode. */
    std::uint8_t &
    slot(std::uint64_t phys)
    {
        if (!sparse_)
            return values_[phys];
        std::uint8_t *chunk =
            ensureChunk((phys / interleave_) / chunkPositions_);
        return chunk[chunkOffset(phys)];
    }

    std::uint32_t bits_;
    std::uint8_t max_;
    std::uint32_t interleave_;
    bool sparse_;
    std::uint64_t size_;
    std::uint64_t perSegment_ = 0;
    std::uint64_t posMask_ = 0;   ///< non-zero when perSegment_ is pow2
    std::uint32_t posShift_ = 0;
    std::vector<std::uint8_t> values_;       ///< physical layout (dense)
    std::vector<std::uint8_t> resetValues_;  ///< physical; empty = max
    /** Sparse storage: chunk c covers walk positions
     *  [c*chunkPositions_, ...); null = pristine (closed form). */
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    std::uint64_t chunkPositions_ = 0;
    std::uint64_t residentChunks_ = 0;
    /** Sparse walk bookkeeping: completed full passes and the next
     *  position walkStep must visit. */
    std::uint64_t pass_ = 0;
    std::uint64_t nextPos_ = 0;
    bool staggered_ = false;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t summaryReads_ = 0;
    std::uint64_t touchesSkipped_ = 0;
    RefreshHeatmap *heatmap_ = nullptr;
    RefreshAudit *audit_ = nullptr;
    const EventQueue *auditEq_ = nullptr;
    std::uint32_t auditBanks_ = 0;
    std::uint32_t auditRows_ = 0;
};

/**
 * The paper's Section 4.7 area formula:
 * Area(KB) = Nbanks * Nranks * Nrows * bits / (8 * 1024).
 */
inline double
counterAreaKB(std::uint32_t banks, std::uint32_t ranks, std::uint32_t rows,
              std::uint32_t bitsPerCounter)
{
    return static_cast<double>(banks) * ranks * rows * bitsPerCounter /
           (8.0 * 1024.0);
}

} // namespace smartref
