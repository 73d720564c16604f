/**
 * @file
 * The allocation contract of the simulation hot path (docs/perf.md):
 * once a system has warmed up, demand accesses, refreshes (DARP's
 * forced dispatch included) and counter walk steps perform no heap
 * allocation.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, so it must stay a test executable of its own. Sanitizer
 * runtimes (ASan, TSan, MSan) bring their own allocator and operator
 * new; there the replacement is compiled out and the tests skip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "ctrl/memory_controller.hh"
#include "ctrl/refresh_audit.hh"
#include "harness/system.hh"
#include "harness/threed_system.hh"
#include "test_config.hh"
#include "trace/benchmark_profiles.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMARTREF_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SMARTREF_ALLOC_COUNTING 0
#endif
#endif
#ifndef SMARTREF_ALLOC_COUNTING
#define SMARTREF_ALLOC_COUNTING 1
#endif

namespace {

std::atomic<std::uint64_t> gAllocations{0};

} // namespace

#if SMARTREF_ALLOC_COUNTING

namespace {

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // SMARTREF_ALLOC_COUNTING

using namespace smartref;

namespace {

/** Allocations and demand accesses over one measured window. */
struct Window
{
    std::uint64_t allocations = 0;
    std::uint64_t accesses = 0;
};

/**
 * Warm `sys` up, then run the measured window. `accesses()` reads the
 * system's demand-access count.
 */
template <typename Sys, typename Count>
Window
measure(Sys &sys, Count accesses)
{
    sys.run(8 * kMillisecond);
    const std::uint64_t accessesBefore = accesses();
    const std::uint64_t before = gAllocations.load();
    sys.run(24 * kMillisecond);
    Window w;
    w.allocations = gAllocations.load() - before;
    w.accesses = accesses() - accessesBefore;
    return w;
}

/** Fewer than one allocation per 1,000 demand accesses. */
void
expectAllocationFree(const Window &w)
{
    ASSERT_GT(w.accesses, 10000u) << "window too short to judge";
    EXPECT_LT(w.allocations * 1000, w.accesses)
        << w.allocations << " allocations for " << w.accesses
        << " demand accesses";
}

Window
conventionalWindow(PolicyKind policy)
{
    SystemConfig cfg;
    cfg.dram = ddr2_2GB();
    cfg.policy = policy;
    System sys(cfg);
    for (const auto &wp : conventionalParams(findProfile("gcc"), cfg.dram))
        sys.addWorkload(wp);
    MemoryController &ctrl = sys.controller();
    return measure(sys, [&ctrl] {
        return ctrl.demandReads() + ctrl.demandWrites();
    });
}

} // namespace

TEST(AllocFree, CounterSeesAllocations)
{
    if (!SMARTREF_ALLOC_COUNTING)
        GTEST_SKIP() << "sanitizer runtime owns operator new";
    const std::uint64_t before = gAllocations.load();
    auto *p = new std::uint64_t(7);
    const std::uint64_t after = gAllocations.load();
    delete p;
    EXPECT_EQ(after - before, 1u);
}

TEST(AllocFree, ConventionalCbrSteadyState)
{
    if (!SMARTREF_ALLOC_COUNTING)
        GTEST_SKIP() << "sanitizer runtime owns operator new";
    expectAllocationFree(conventionalWindow(PolicyKind::Cbr));
}

TEST(AllocFree, ConventionalSmartSteadyState)
{
    if (!SMARTREF_ALLOC_COUNTING)
        GTEST_SKIP() << "sanitizer runtime owns operator new";
    expectAllocationFree(conventionalWindow(PolicyKind::Smart));
}

TEST(AllocFree, ThreeDSmartSteadyState)
{
    if (!SMARTREF_ALLOC_COUNTING)
        GTEST_SKIP() << "sanitizer runtime owns operator new";
    ThreeDSystemConfig cfg;
    cfg.threeD = dram3d_64MB();
    cfg.threeDPolicy = PolicyKind::Smart;
    ThreeDSystem sys(cfg);
    for (const auto &wp : threeDParams(findProfile("gcc"), cfg.threeD))
        sys.addWorkload(wp);
    DramCache &cache = sys.cache();
    expectAllocationFree(
        measure(sys, [&cache] { return cache.demandAccesses(); }));
}

TEST(AllocFree, DarpForcedDispatch)
{
    if (!SMARTREF_ALLOC_COUNTING)
        GTEST_SKIP() << "sanitizer runtime owns operator new";
    EventQueue eq;
    DramConfig c = tcfg::tinyConfig();
    c.parallelism = RefreshParallelism::Darp;
    DramModule dram(c, eq);
    MemoryController ctrl(dram, eq);
    RefreshAudit audit(
        RefreshAudit::Shape{c.org.ranks, c.org.banks, c.org.rows});
    ctrl.setAudit(&audit);
    // One round keeps bank 0 busy past the defer window with queued
    // row-conflicting reads, so both refreshes held there are forced
    // to the front of its queue.
    const auto round = [&] {
        for (int i = 0; i < 400; ++i)
            ctrl.access(c.org.banks * (1 + i % 2) * c.org.rowBytes(), false);
        for (std::uint32_t row : {10u, 11u})
            ctrl.pushRefresh({0, 0, row, false, eq.now()});
        eq.run();
    };
    round();
    const std::uint64_t before = gAllocations.load();
    round();
    EXPECT_EQ(gAllocations.load() - before, 0u);
    EXPECT_EQ(audit.count(AuditOutcome::DarpForced), 4u);
}
