/**
 * @file
 * Hierarchical sparse CounterArray: dense-vs-sparse bit-exactness and
 * the non-power-of-two physIndex divide path.
 *
 * The sparse array's contract (core/counter_array.hh) is that every
 * observable behaviour — expiry sequence, peek values — is identical
 * to the dense array, and that the billed SRAM traffic differs by
 * exactly the explicitly-accounted pristine skips:
 *
 *     sparse.sramReads()  + sparse.touchesSkipped() == dense.sramReads()
 *     sparse.sramWrites() + sparse.touchesSkipped() == dense.sramWrites()
 *
 * The fuzz below drives random demand resets interleaved with the
 * cyclic stagger walk over both arrays and checks all of it, across
 * power-of-two and divide-path geometries and chunk sizes that do and
 * do not divide the segment evenly. A whole-system run then pins the
 * payoff: on an idle-heavy 128 GB channel the sparse walk reads at
 * least 10x fewer counters than the dense one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/counter_array.hh"
#include "harness/system.hh"
#include "trace/benchmark_profiles.hh"

using namespace smartref;

namespace {

/** Counter SRAM reads and pristine skips of one counter array. */
struct WalkCost
{
    std::uint64_t reads;
    std::uint64_t skipped;
};

/**
 * Two 64 ms walk periods of Smart Refresh on one channel of the 128 GB
 * preset under the idle profile. The channel has 1 M counters in 32
 * sparse chunks, so the near-idle footprint leaves most chunks
 * pristine.
 */
WalkCost
idleWalk(bool sparse)
{
    SystemConfig cfg;
    cfg.dram = dramConfigByName("128gb");
    cfg.dram.channels = 1;
    cfg.policy = PolicyKind::Smart;
    cfg.smart.counterBits = 3;
    cfg.smart.segments = 8;
    cfg.smart.queueCapacity = 8;
    // The self-configuration circuit would switch this near-idle
    // profile to CBR and stop the walks being compared.
    cfg.smart.autoReconfigure = false;
    cfg.smart.sparseCounters = sparse;

    System sys(cfg);
    sys.addWorkload(idleParams(cfg.dram, 42));
    sys.run(128 * kMillisecond);
    const CounterArray &counters = sys.smartPolicy()->counters();
    return {counters.sramReads(), counters.touchesSkipped()};
}

} // namespace

TEST(PhysIndex, NonPowerOfTwoSegmentUsesDividePath)
{
    // 36 counters / interleave 3 = 12 positions per segment: not a
    // power of two, so physIndex must take the divide path. The layout
    // contract: logical s * 12 + p lands at byte p * 3 + s.
    CounterArray c(36, 3, 3);
    std::vector<bool> seen(36, false);
    for (std::uint64_t i = 0; i < 36; ++i) {
        const std::uint64_t seg = i / 12;
        const std::uint64_t pos = i % 12;
        const std::uint64_t phys = c.physIndex(i);
        EXPECT_EQ(phys, pos * 3 + seg) << "logical " << i;
        EXPECT_FALSE(seen[phys]) << "collision at byte " << phys;
        seen[phys] = true;
    }
}

TEST(PhysIndex, PowerOfTwoShiftPathMatchesDivideFormula)
{
    // 64 / 4 = 16 positions per segment: the shift-and-mask fast path
    // must agree with the plain divide formula everywhere.
    CounterArray c(64, 3, 4);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(c.physIndex(i), (i % 16) * 4 + i / 16);
}

TEST(PhysIndex, DemandResetRoundTripsThroughDividePath)
{
    // A reset through the non-power-of-two layout must land on exactly
    // the logical counter it was aimed at.
    for (std::uint64_t target = 0; target < 36; ++target) {
        CounterArray c(36, 3, 3);
        c.reset(target);
        for (std::uint64_t i = 0; i < 36; ++i)
            EXPECT_EQ(c.peek(i), i == target ? 7 : 0)
                << "target " << target << " index " << i;
    }
}

namespace {

/**
 * Drive identical random traffic through a dense and a sparse array
 * and require bit-exact behaviour plus the exact-skip SRAM invariant.
 */
void
fuzzDenseVsSparse(std::uint64_t size, std::uint32_t bits,
                  std::uint32_t interleave, std::uint64_t chunkPositions,
                  bool staggered, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "size=" << size << " bits=" << bits << " interleave="
                 << interleave << " chunk=" << chunkPositions
                 << " staggered=" << staggered << " seed=" << seed);

    CounterArray dense(size, bits, interleave);
    CounterArray sparse(size, bits, interleave, true, chunkPositions);
    if (staggered) {
        dense.resetToStaggeredPattern(interleave);
        sparse.resetToStaggeredPattern(interleave);
        EXPECT_EQ(sparse.chunksResident(), 0u)
            << "staggered init must stay pristine";
    }

    std::mt19937_64 rng(seed);
    const std::uint64_t perSegment = size / interleave;
    std::uint64_t pos = 0;
    for (int step = 0; step < 2000; ++step) {
        // A burst of demand resets (possibly none), then one walk step
        // at the cyclic position the sparse walk requires.
        const std::uint64_t bursts = rng() % 3;
        for (std::uint64_t b = 0; b < bursts; ++b) {
            const std::uint64_t idx = rng() % size;
            dense.reset(idx);
            sparse.reset(idx);
        }
        std::vector<std::uint32_t> denseExpired, sparseExpired;
        dense.walkStep(pos, [&](std::uint32_t s) {
            denseExpired.push_back(s);
        });
        sparse.walkStep(pos, [&](std::uint32_t s) {
            sparseExpired.push_back(s);
        });
        ASSERT_EQ(denseExpired, sparseExpired) << "step " << step;
        pos = (pos + 1) % perSegment;
    }

    for (std::uint64_t i = 0; i < size; ++i)
        ASSERT_EQ(dense.peek(i), sparse.peek(i)) << "index " << i;

    EXPECT_EQ(sparse.sramReads() + sparse.touchesSkipped(),
              dense.sramReads());
    EXPECT_EQ(sparse.sramWrites() + sparse.touchesSkipped(),
              dense.sramWrites());
    EXPECT_EQ(sparse.touchesSkipped() % interleave, 0u);
    EXPECT_EQ(sparse.summaryReads() * interleave,
              sparse.touchesSkipped());
    EXPECT_LE(sparse.chunksResident(), sparse.chunksTotal());
}

} // namespace

TEST(SparseCounters, FuzzStaggeredPowerOfTwo)
{
    fuzzDenseVsSparse(256, 3, 8, 8, true, 1);
    fuzzDenseVsSparse(256, 2, 8, 8, true, 2);
}

TEST(SparseCounters, FuzzUnstaggeredStartsAtZero)
{
    // Never-initialised counters expire on first touch; the pristine
    // closed form must reproduce that wrap exactly.
    fuzzDenseVsSparse(256, 3, 8, 8, false, 3);
}

TEST(SparseCounters, FuzzChunkDoesNotDivideSegment)
{
    // perSegment 40, chunks of 16 positions: the last chunk is short.
    fuzzDenseVsSparse(320, 3, 8, 16, true, 4);
}

TEST(SparseCounters, FuzzNonPowerOfTwoSegment)
{
    // perSegment 12: the walk and demand resets both take the divide
    // path, with a chunk size that does not divide the segment.
    fuzzDenseVsSparse(96, 3, 8, 5, true, 5);
    fuzzDenseVsSparse(96, 3, 8, 5, false, 6);
}

TEST(SparseCounters, PristineWalkBillsOnlySummaryReads)
{
    CounterArray sparse(256, 3, 8, true, 8);
    sparse.resetToStaggeredPattern(8);
    std::uint64_t expiries = 0;
    for (std::uint64_t pos = 0; pos < 32; ++pos)
        sparse.walkStep(pos, [&](std::uint32_t) { ++expiries; });
    // One full pass over an untouched array: every step is answered
    // from the summary, no per-counter SRAM traffic at all.
    EXPECT_EQ(sparse.sramReads(), 0u);
    EXPECT_EQ(sparse.sramWrites(), 0u);
    EXPECT_EQ(sparse.summaryReads(), 32u);
    EXPECT_EQ(sparse.touchesSkipped(), 32u * 8u);
    EXPECT_EQ(sparse.chunksResident(), 0u);
    // The staggered pattern puts a zero at every 2^bits-th position of
    // each segment: 32 / 8 = 4 positions x 8 segments expire.
    EXPECT_EQ(expiries, 4u * 8u);
}

TEST(SparseCounters, DemandResetMaterialisesOneChunk)
{
    CounterArray sparse(256, 3, 8, true, 8);
    sparse.resetToStaggeredPattern(8);
    EXPECT_EQ(sparse.chunksResident(), 0u);
    sparse.reset(0);
    EXPECT_EQ(sparse.chunksResident(), 1u);
    EXPECT_EQ(sparse.residentCounterBytes(), 8u * 8u);
    // A second reset into the same chunk allocates nothing new.
    sparse.reset(1);
    EXPECT_EQ(sparse.chunksResident(), 1u);
}

TEST(SparseCounters, StaggeredResetFreesMaterialisedChunks)
{
    CounterArray sparse(256, 3, 8, true, 8);
    sparse.resetToStaggeredPattern(8);
    sparse.reset(7);
    EXPECT_EQ(sparse.chunksResident(), 1u);
    // Re-staggering is the pristine closed form at pass 0, so the
    // chunk is dropped instead of rewritten.
    sparse.resetToStaggeredPattern(8);
    EXPECT_EQ(sparse.chunksResident(), 0u);
    CounterArray dense(256, 3, 8);
    dense.resetToStaggeredPattern(8);
    for (std::uint64_t i = 0; i < 256; ++i)
        ASSERT_EQ(sparse.peek(i), dense.peek(i)) << "index " << i;
}

TEST(SparseCounters, SetResetValueMaterialisesEverything)
{
    // Retention classes and sparse storage do not compose usefully:
    // the pristine closed form assumes the maximum reset value, so the
    // first per-counter reset value materialises the whole array.
    CounterArray sparse(256, 3, 8, true, 8);
    sparse.resetToStaggeredPattern(8);
    sparse.setResetValue(3, 5);
    EXPECT_EQ(sparse.chunksResident(), sparse.chunksTotal());
}

TEST(SparseCounters, IdleWalkReadsTenfoldFewerCounters)
{
    const WalkCost dense = idleWalk(false);
    const WalkCost sparse = idleWalk(true);
    EXPECT_EQ(dense.skipped, 0u);
    // Every counter the sparse walk did not read, it skipped as
    // pristine: same walk, cheaper billing.
    EXPECT_EQ(sparse.reads + sparse.skipped, dense.reads);
    EXPECT_GE(dense.reads, 10 * sparse.reads)
        << "dense " << dense.reads << ", sparse " << sparse.reads;
}
