/**
 * @file
 * Tests for the memory substrate: frame allocator, PTE/FTE encodings,
 * 4-level page tables (including PMD-level shared subtree attachment and
 * per-open permission semantics), VA allocator, pinned DMA buffers.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "mem/dma_buffer.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/page_table.hpp"
#include "mem/pte.hpp"

using namespace bpd;
using namespace bpd::mem;

TEST(FrameAllocator, AllocZeroed)
{
    FrameAllocator fa;
    Frame f = fa.alloc();
    ASSERT_NE(f, kNullFrame);
    const std::uint64_t *tbl = fa.table(f);
    for (std::size_t i = 0; i < kPte; i++)
        EXPECT_EQ(tbl[i], 0u);
}

TEST(FrameAllocator, ReuseAfterFree)
{
    FrameAllocator fa;
    Frame f1 = fa.alloc();
    fa.free(f1);
    Frame f2 = fa.alloc();
    EXPECT_EQ(f1, f2); // LIFO free list
    EXPECT_EQ(fa.live(), 1u);
}

TEST(FrameAllocator, LiveCount)
{
    FrameAllocator fa;
    std::vector<Frame> frames;
    for (int i = 0; i < 10; i++)
        frames.push_back(fa.alloc());
    EXPECT_EQ(fa.live(), 10u);
    for (Frame f : frames)
        fa.free(f);
    EXPECT_EQ(fa.live(), 0u);
}

TEST(FrameAllocator, DoubleFreePanics)
{
    FrameAllocator fa;
    Frame f = fa.alloc();
    fa.free(f);
    EXPECT_DEATH(fa.free(f), "dead frame");
}

TEST(Pte, FteRoundTrip)
{
    const BlockNo block = 0x123456789ull;
    const DevId dev = 0x2a5;
    const Pte e = makeFte(block, dev, true);
    EXPECT_TRUE(isPresent(e));
    EXPECT_TRUE(isFte(e));
    EXPECT_TRUE(isWritable(e));
    EXPECT_EQ(fteBlock(e), block);
    EXPECT_EQ(fteDevId(e), dev);
}

TEST(Pte, RegularLeafIsNotFte)
{
    const Pte e = makeLeafEntry(0x1000, false);
    EXPECT_TRUE(isPresent(e));
    EXPECT_FALSE(isFte(e));
    EXPECT_FALSE(isWritable(e));
    EXPECT_EQ(pfnOf(e), 0x1000u);
}

TEST(Pte, ReadOnlyFte)
{
    const Pte e = makeFte(7, 1, false);
    EXPECT_FALSE(isWritable(e));
    EXPECT_EQ(fteBlock(e), 7u);
}

TEST(PageTable, SetGetClear)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const Vaddr va = 0x7f12'3456'7000ull;
    pt.set(va, makeFte(42, 1, true));
    const Pte e = pt.get(va);
    EXPECT_TRUE(isFte(e));
    EXPECT_EQ(fteBlock(e), 42u);
    pt.clear(va);
    EXPECT_EQ(pt.get(va), 0u);
}

TEST(PageTable, DistinctPagesIndependent)
{
    FrameAllocator fa;
    PageTable pt(fa);
    for (std::uint64_t i = 0; i < 600; i++)
        pt.set(0x100000000ull + i * kBlockBytes, makeFte(i, 1, true));
    for (std::uint64_t i = 0; i < 600; i++) {
        EXPECT_EQ(fteBlock(pt.get(0x100000000ull + i * kBlockBytes)), i);
    }
}

TEST(PageTable, WalkNotPresent)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const PageTable::Walk w = pt.walk(0xdeadbeef000ull);
    EXPECT_FALSE(w.present);
    EXPECT_FALSE(w.writable);
}

TEST(PageTable, WalkCountsFrames)
{
    FrameAllocator fa;
    PageTable pt(fa);
    pt.set(0x200000000ull, makeFte(1, 1, true));
    const PageTable::Walk w = pt.walk(0x200000000ull);
    EXPECT_TRUE(w.present);
    EXPECT_EQ(w.framesRead, 4u); // 4-level walk
}

TEST(PageTable, AttachSharedSubtree)
{
    FrameAllocator fa;
    PageTable ptA(fa);
    PageTable ptB(fa);

    // A shared leaf table with FTEs, as a FileTableCache would build.
    Frame shared = fa.alloc();
    for (std::uint64_t i = 0; i < kPte; i++)
        fa.table(shared)[i] = makeFte(1000 + i, 1, true);

    const Vaddr vaA = 0x40000000ull;  // 2 MiB aligned
    const Vaddr vaB = 0x80000000ull;
    ptA.attachTable(vaA, 1, shared, true);
    ptB.attachTable(vaB, 1, shared, false);

    // Same FTEs visible through both address spaces.
    const PageTable::Walk wa = ptA.walk(vaA + 5 * kBlockBytes);
    const PageTable::Walk wb = ptB.walk(vaB + 5 * kBlockBytes);
    ASSERT_TRUE(wa.present);
    ASSERT_TRUE(wb.present);
    EXPECT_EQ(fteBlock(wa.leaf), 1005u);
    EXPECT_EQ(fteBlock(wb.leaf), 1005u);

    // Per-open permission: A writable, B read-only (Fig. 4).
    EXPECT_TRUE(wa.writable);
    EXPECT_FALSE(wb.writable);

    // Updating the shared frame is visible to both instantly.
    fa.table(shared)[5] = makeFte(777, 1, true);
    EXPECT_EQ(fteBlock(ptA.walk(vaA + 5 * kBlockBytes).leaf), 777u);
    EXPECT_EQ(fteBlock(ptB.walk(vaB + 5 * kBlockBytes).leaf), 777u);

    // Detach from A; B is untouched.
    EXPECT_TRUE(ptA.detachTable(vaA, 1));
    EXPECT_FALSE(ptA.walk(vaA + 5 * kBlockBytes).present);
    EXPECT_TRUE(ptB.walk(vaB + 5 * kBlockBytes).present);

    fa.free(shared);
}

TEST(PageTable, DetachAbsentReturnsFalse)
{
    FrameAllocator fa;
    PageTable pt(fa);
    EXPECT_FALSE(pt.detachTable(0x40000000ull, 1));
}

TEST(PageTable, AttachCountsWrites)
{
    FrameAllocator fa;
    PageTable pt(fa);
    Frame shared = fa.alloc();
    // First attach builds PGD->PUD->PMD path: 3 entries written.
    const unsigned w1 = pt.attachTable(0x40000000ull, 1, shared, true);
    EXPECT_EQ(w1, 3u);
    Frame shared2 = fa.alloc();
    // Adjacent attach reuses the path: 1 pointer update.
    const unsigned w2
        = pt.attachTable(0x40000000ull + kPmdSpan, 1, shared2, true);
    EXPECT_EQ(w2, 1u);
    pt.detachTable(0x40000000ull, 1);
    pt.detachTable(0x40000000ull + kPmdSpan, 1);
    fa.free(shared);
    fa.free(shared2);
}

TEST(PageTable, SharedFramesNotFreedWithTable)
{
    FrameAllocator fa;
    Frame shared = fa.alloc();
    {
        PageTable pt(fa);
        pt.attachTable(0x40000000ull, 1, shared, true);
        // pt destroyed here; must not free the shared frame.
    }
    // Accessing the shared frame still works (would panic if freed).
    fa.table(shared)[0] = 1;
    fa.free(shared);
    EXPECT_EQ(fa.live(), 0u);
}

TEST(PageTable, MalformedDeepFteFaults)
{
    FrameAllocator fa;
    PageTable pt(fa);
    // Attach at PUD level (2) a table whose entries are FTEs. The walk
    // then meets an FT-marked entry at level 1 — a malformed tree the
    // hardware walker must treat as a fault, not interpret.
    Frame poisoned = fa.alloc();
    for (std::size_t i = 0; i < kPte; i++)
        fa.table(poisoned)[i] = makeFte(100 + i, 1, true);
    pt.attachTable(0x40000000ull, 2, poisoned, true);
    const PageTable::Walk w = pt.walk(0x40000000ull);
    EXPECT_FALSE(w.present);
    pt.detachTable(0x40000000ull, 2);
    fa.free(poisoned);
}

// --- Walker leaf-table cache (host-side; must never change a walk) ---

namespace {

/** A leaf table whose every entry is an FTE to block base + index. */
Frame
fteTable(FrameAllocator &fa, BlockNo base)
{
    const Frame f = fa.alloc();
    for (std::size_t i = 0; i < kPte; i++)
        fa.table(f)[i] = makeFte(base + i, 1, true);
    return f;
}

} // namespace

TEST(PageTable, LeafCacheAliasedRegionsWalkTheirOwnFtes)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const Frame a = fteTable(fa, 1000);
    const Frame b = fteTable(fa, 9000);
    // kMaxLeafCacheEntries regions apart: the two regions share one
    // direct-mapped entry whatever size the cache has grown to.
    const Vaddr vaA = 0x40000000ull;
    const Vaddr vaB
        = vaA + PageTable::kMaxLeafCacheEntries * kPmdSpan;
    pt.attachTable(vaA, 1, a, true);
    pt.attachTable(vaB, 1, b, false);
    for (int round = 0; round < 4; round++) {
        for (unsigned page : {3u, 200u}) {
            const PageTable::Walk wa = pt.walk(vaA + page * kBlockBytes);
            const PageTable::Walk wb = pt.walk(vaB + page * kBlockBytes);
            ASSERT_TRUE(wa.present);
            ASSERT_TRUE(wb.present);
            EXPECT_EQ(fteBlock(wa.leaf), 1000u + page);
            EXPECT_EQ(fteBlock(wb.leaf), 9000u + page);
            EXPECT_TRUE(wa.writable);
            EXPECT_FALSE(wb.writable);
            EXPECT_EQ(wa.framesRead, 4u);
            EXPECT_EQ(wb.framesRead, 4u);
        }
    }
    pt.detachTable(vaA, 1);
    pt.detachTable(vaB, 1);
    fa.free(a);
    fa.free(b);
}

TEST(PageTable, LeafCacheForgetsDetachedTable)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const Frame a = fteTable(fa, 1000);
    const Vaddr va = 0x40000000ull;
    pt.attachTable(va, 1, a, true);
    for (int i = 0; i < 3; i++) { // fill, then hit
        const PageTable::Walk w = pt.walk(va + 7 * kBlockBytes);
        ASSERT_TRUE(w.present);
        EXPECT_EQ(fteBlock(w.leaf), 1007u);
        EXPECT_EQ(w.framesRead, 4u);
    }
    ASSERT_TRUE(pt.detachTable(va, 1));
    const PageTable::Walk w = pt.walk(va + 7 * kBlockBytes);
    EXPECT_FALSE(w.present);
    EXPECT_FALSE(w.writable);
    EXPECT_EQ(w.framesRead, 3u); // stops at the cleared PMD entry
    fa.free(a);
}

TEST(PageTable, LeafCacheFollowsReattachedTable)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const Frame a = fteTable(fa, 1000);
    const Frame b = fteTable(fa, 5000);
    const Vaddr va = 0x40000000ull;
    pt.attachTable(va, 1, a, false);
    EXPECT_EQ(fteBlock(pt.walk(va + 9 * kBlockBytes).leaf), 1009u);
    EXPECT_EQ(fteBlock(pt.walk(va + 9 * kBlockBytes).leaf), 1009u);
    pt.detachTable(va, 1);
    pt.attachTable(va, 1, b, true);
    for (int i = 0; i < 2; i++) {
        const PageTable::Walk w = pt.walk(va + 9 * kBlockBytes);
        ASSERT_TRUE(w.present);
        EXPECT_EQ(fteBlock(w.leaf), 5009u);
        EXPECT_TRUE(w.writable);
        EXPECT_EQ(w.framesRead, 4u);
    }
    pt.detachTable(va, 1);
    fa.free(a);
    fa.free(b);
}

TEST(PageTable, PrefetchLeafChangesNothing)
{
    FrameAllocator fa;
    PageTable pt(fa);
    const Frame a = fteTable(fa, 1000);
    const Vaddr va = 0x40000000ull;
    pt.attachTable(va, 1, a, true);
    pt.prefetchLeaf(va + 5 * kBlockBytes);      // before any walk
    pt.walk(va);
    pt.prefetchLeaf(va + 5 * kBlockBytes);      // through the cache
    pt.prefetchLeaf(0x7f00'0000'0000ull);       // unmapped
    EXPECT_EQ(fa.table(a)[5], makeFte(1005, 1, true));
    EXPECT_EQ(fteBlock(pt.walk(va + 5 * kBlockBytes).leaf), 1005u);
    pt.detachTable(va, 1);
    fa.free(a);
}

TEST(VaAllocator, ReserveAligned)
{
    VaAllocator va(0x1000, 1ull << 30);
    const Vaddr a = va.reserve(4096, 2ull << 20);
    EXPECT_EQ(a % (2ull << 20), 0u);
    const Vaddr b = va.reserve(4096, 4096);
    EXPECT_NE(a, b);
}

TEST(VaAllocator, ReleaseCoalesces)
{
    VaAllocator va(0x10000, 1ull << 20);
    const Vaddr a = va.reserve(4096, 4096);
    const Vaddr b = va.reserve(4096, 4096);
    const Vaddr c = va.reserve(4096, 4096);
    va.release(a, 4096);
    va.release(c, 4096);
    va.release(b, 4096);
    EXPECT_EQ(va.fragments(), 1u);
    EXPECT_EQ(va.freeBytes(), 1ull << 20);
}

TEST(VaAllocator, Exhaustion)
{
    VaAllocator va(0x10000, 8192);
    EXPECT_NE(va.reserve(8192, 4096), 0u);
    EXPECT_EQ(va.reserve(1, 1), 0u);
}

TEST(AddressSpace, PmdAlignedRegions)
{
    FrameAllocator fa;
    AddressSpace as(fa, 101);
    EXPECT_EQ(as.pasid(), 101u);
    const Vaddr v = as.reserve(10 << 20, kPmdSpan);
    EXPECT_NE(v, 0u);
    EXPECT_EQ(v % kPmdSpan, 0u);
    as.release(v, 10 << 20);
}

namespace {

const std::uintptr_t kHostPage
    = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));

void *
pageOf(const void *p)
{
    return reinterpret_cast<void *>(reinterpret_cast<std::uintptr_t>(p)
                                    & ~(kHostPage - 1));
}

/** Host pages of @p buf's mapping that hold memory (mincore). */
std::size_t
residentPages(const DmaBuffer &buf)
{
    void *base = pageOf(buf.data());
    const std::size_t len = buf.data() + buf.size()
                            - static_cast<std::uint8_t *>(base);
    std::vector<unsigned char> vec((len + kHostPage - 1) / kHostPage);
    EXPECT_EQ(::mincore(base, len, vec.data()), 0);
    return static_cast<std::size_t>(std::count_if(
        vec.begin(), vec.end(), [](unsigned char v) { return v & 1; }));
}

/** Whether the host page holding @p p is mapped. */
bool
mapped(const void *p)
{
    unsigned char v = 0;
    return ::mincore(pageOf(p), 1, &v) == 0;
}

} // namespace

TEST(DmaBuffer, FreshMemoryReadsZero)
{
    const DmaBuffer buf(2 << 20);
    ASSERT_EQ(buf.size(), 2u << 20);
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + buf.size(),
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_EQ(buf.span().data(), buf.data());
    EXPECT_EQ(buf.span().size(), buf.size());
}

TEST(DmaBuffer, CommitsOnlyTheTouchedPages)
{
    // A 2 MiB UserLib buffer whose I/O touches its first 4 KiB: the
    // rest must stay uncommitted (and not one transparent huge page).
    DmaBuffer buf(2 << 20);
    EXPECT_EQ(residentPages(buf), 0u);
    std::memset(buf.data(), 0xab, 4096);
    const std::size_t resident = residentPages(buf);
    EXPECT_GE(resident, 1u);
    EXPECT_LE(resident, 2u);
}

TEST(DmaBuffer, MoveTransfersOwnership)
{
    DmaBuffer a(8192);
    std::uint8_t *p = a.data();
    p[100] = 7;
    DmaBuffer b(std::move(a));
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b.size(), 8192u);
    EXPECT_EQ(b.data()[100], 7);
    {
        DmaBuffer c;
        c = std::move(b);
        EXPECT_EQ(b.data(), nullptr);
        EXPECT_EQ(c.data(), p);
    }
    EXPECT_FALSE(mapped(p)); // the last owner unmapped it
}

TEST(DmaBuffer, DestructionUnmapsExactlyOnce)
{
    DmaBuffer owner;
    std::uint8_t *p = nullptr;
    {
        DmaBuffer a(4096);
        p = a.data();
        owner = std::move(a);
    } // the moved-from a leaves the mapping alone
    ASSERT_TRUE(mapped(p));
    owner.data()[4095] = 1;

    // Assigning over an owner unmaps what it held, and only that.
    DmaBuffer other(4096);
    std::uint8_t *q = other.data();
    owner = std::move(other);
    EXPECT_FALSE(mapped(p));
    ASSERT_TRUE(mapped(q));
    EXPECT_EQ(owner.data(), q);
    owner.data()[0] = 2;
}
