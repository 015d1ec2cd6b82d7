/**
 * @file
 * IOMMU tests: VBA translation through real page-table walks, FTE
 * interpretation, permission and DevID enforcement, coalescing, the
 * Fig. 5 latency model, translation caches, and DMA mappings.
 */

#include <vector>

#include <gtest/gtest.h>

#include "iommu/iommu.hpp"
#include "mem/address_space.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"

using namespace bpd;
using namespace bpd::iommu;

namespace {

struct IommuFixture : ::testing::Test
{
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    Iommu iommu{eq};
    mem::PageTable pt{fa};
    static constexpr Pasid kP = 7;
    static constexpr DevId kDev = 1;

    void
    SetUp() override
    {
        iommu.bindPasid(kP, &pt);
    }

    /** Map n contiguous file blocks at va, to device blocks base.. */
    void
    mapBlocks(Vaddr va, BlockNo base, unsigned n, bool writable = true)
    {
        for (unsigned i = 0; i < n; i++) {
            pt.set(va + i * kBlockBytes,
                   mem::makeFte(base + i, kDev, writable));
        }
    }
};

} // namespace

TEST_F(IommuFixture, TranslateSingleBlock)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes);
    EXPECT_EQ(r.segs[0].len, 4096u);
}

TEST_F(IommuFixture, SubBlockOffset)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000 + 512, 1024,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes + 512);
    EXPECT_EQ(r.segs[0].len, 1024u);
}

TEST_F(IommuFixture, CoalescesContiguousBlocks)
{
    mapBlocks(0x40000000, 500, 8);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 8 * 4096,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].len, 8u * 4096);
    EXPECT_EQ(r.pages, 8u);
}

TEST_F(IommuFixture, SplitsDiscontiguousBlocks)
{
    pt.set(0x40000000, mem::makeFte(500, kDev, true));
    pt.set(0x40001000, mem::makeFte(900, kDev, true)); // not adjacent
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 2 * 4096,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 2u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes);
    EXPECT_EQ(r.segs[1].addr, 900u * kBlockBytes);
}

TEST_F(IommuFixture, FaultsOnUnmapped)
{
    TransResult r = iommu.translateVbaSync(kP, 0x50000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NotPresent);
    EXPECT_TRUE(r.segs.empty());
}

TEST_F(IommuFixture, FaultsOnUnboundPasid)
{
    TransResult r = iommu.translateVbaSync(99, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NoPasid);
}

TEST_F(IommuFixture, EnforcesWritePermission)
{
    mapBlocks(0x40000000, 500, 1, /*writable=*/false);
    TransResult rd = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                            kDev);
    EXPECT_TRUE(rd.ok);
    TransResult wr = iommu.translateVbaSync(kP, 0x40000000, 4096, true,
                                            kDev);
    EXPECT_FALSE(wr.ok);
    EXPECT_EQ(wr.fault, Fault::Permission);
}

TEST_F(IommuFixture, EnforcesDevId)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           /*requester=*/2);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::DevIdMismatch);
}

TEST_F(IommuFixture, RejectsRegularPteAsVba)
{
    // A regular memory PTE (no FT bit) must not translate as a block
    // address — that would let a process address the device by PFN.
    pt.set(0x40000000, mem::makeLeafEntry(1234, true));
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NotFte);
}

TEST_F(IommuFixture, PartialRangeFaultReturnsNoSegs)
{
    mapBlocks(0x40000000, 500, 2);
    // Third block unmapped: whole request must fault with no data.
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 3 * 4096,
                                           false, kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.segs.empty());
}

TEST_F(IommuFixture, DefaultLatencyNear550)
{
    mapBlocks(0x40000000, 500, 64);
    // Warm the walk cache first (the paper's 550 ns assumes cached upper
    // levels; FTE leaves are never cached).
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(static_cast<double>(r.latency), 550.0, 60.0);
}

TEST_F(IommuFixture, LatencyGrowsSlowlyWithTranslations)
{
    // Fig. 5: overhead roughly flat with #translations per request —
    // one cacheline holds 8 FTEs.
    mapBlocks(0x40000000, 500, 64);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev); // warm
    const Time lat1
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    const Time lat8
        = iommu.translateVbaSync(kP, 0x40000000, 8 * 4096, false, kDev)
              .latency;
    const Time lat12
        = iommu.translateVbaSync(kP, 0x40000000, 12 * 4096, false, kDev)
              .latency;
    EXPECT_EQ(lat1, lat8); // same cacheline
    EXPECT_GT(lat12, lat8);
    EXPECT_LT(lat12 - lat8, 50u); // slight increase only
}

TEST_F(IommuFixture, MidLineSpanChargesEachExtraLeafLine)
{
    // 64 blocks = 8 leaf cachelines of 8 FTEs, all under one walk-cache
    // entry. The range starts mid-line (block 5, plus a sub-block
    // offset) and ends inside block 25: blocks 5..25 touch lines 0-3.
    mapBlocks(0x40000000, 500, 64);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev); // warm
    const Vaddr start = 0x40000000 + 5 * kBlockBytes + 512;
    const Vaddr end = 0x40000000 + 25 * kBlockBytes + 1024;
    // Translate into a reused result: stale contents are overwritten.
    TransResult r;
    r.segs.assign(3, TransSeg{1, 1});
    r.pages = 99;
    r.framesRead = 99;
    iommu.translateVbaInto(kP, start, static_cast<std::uint32_t>(end - start),
                           false, kDev, r);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.pages, 21u);
    ASSERT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].addr, 505u * kBlockBytes + 512);
    EXPECT_EQ(r.segs[0].len, end - start);
    const IommuProfile &p = iommu.profile();
    const unsigned lines = 4;
    EXPECT_EQ(r.latency, p.pcieRoundTripNs + p.lookupNs + p.leafFetchNs
                             + (lines - 1) * p.extraLineNs);
    // Same answer through the by-value API.
    EXPECT_EQ(iommu.translateVbaSync(kP, start,
                                     static_cast<std::uint32_t>(end - start),
                                     false, kDev)
                  .latency,
              r.latency);
}

TEST_F(IommuFixture, FixedLatencyOverride)
{
    mapBlocks(0x40000000, 500, 1);
    iommu.profile().fixedVbaLatencyNs = 1350;
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_EQ(r.latency, 1350u);
}

namespace {

/** Everything a host-only prefetch must leave alone. */
struct SimState
{
    std::uint64_t wcHits, wcMisses;
    std::uint64_t frames, translations, faults;
    std::vector<std::uint64_t> tenantRows;

    static SimState
    of(const Iommu &m, const obs::TenantAccounting &acct)
    {
        SimState st{m.walkCache().hits(), m.walkCache().misses(),
                    m.framesRead(),       m.vbaTranslations(),
                    m.vbaFaults(),        {}};
        acct.forEachRow([&](DevId d, TenantId id,
                            const obs::TenantCounters &c) {
            st.tenantRows.insert(st.tenantRows.end(),
                                 {d, id, c.iommuVbaTranslations,
                                  c.iommuVbaFaults,
                                  c.iommuPageWalkFrames});
        });
        return st;
    }

    bool
    operator==(const SimState &o) const
    {
        return wcHits == o.wcHits && wcMisses == o.wcMisses
               && frames == o.frames && translations == o.translations
               && faults == o.faults && tenantRows == o.tenantRows;
    }
};

} // namespace

TEST_F(IommuFixture, PrefetchLeavesSimulatedStateAlone)
{
    obs::TenantAccounting acct;
    iommu.setTenantAccounting(&acct);
    mapBlocks(0x40000000, 500, 4);
    // A malformed tree: an FT-marked entry at PMD level.
    mem::Frame poisoned = fa.alloc();
    for (std::size_t i = 0; i < kPte; i++)
        fa.table(poisoned)[i] = mem::makeFte(100 + i, kDev, true);
    pt.attachTable(0x80000000ull, 2, poisoned, true);
    ASSERT_TRUE(
        iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev).ok);

    const SimState before = SimState::of(iommu, acct);
    iommu.prefetchVba(kP, 0x40000000 + kBlockBytes); // mapped
    iommu.prefetchVba(kP, 0x40000000 + 9 * kBlockBytes); // hole in leaf
    iommu.prefetchVba(kP, 0x7f00'0000'0000ull);      // unmapped region
    iommu.prefetchVba(kP + 1, 0x40000000);           // unbound PASID
    iommu.prefetchVba(kP, 0x80000000ull);            // deep FTE
    EXPECT_TRUE(SimState::of(iommu, acct) == before);

    // Translations after the prefetches are the ones without them.
    const TransResult r
        = iommu.translateVbaSync(kP, 0x40000000 + kBlockBytes, 4096,
                                 false, kDev);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.segs[0].addr, 501u * kBlockBytes);
    EXPECT_EQ(r.framesRead, 4u);
    EXPECT_FALSE(iommu.translateVbaSync(kP, 0x80000000ull, 4096, false,
                                        kDev)
                     .ok);
    pt.detachTable(0x80000000ull, 2);
    fa.free(poisoned);
}

TEST(IommuPrefetch, LeavesWalkCacheLruOrderAlone)
{
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    IommuProfile prof;
    prof.walkCacheEntries = 4; // one set of four ways
    prof.walkCacheWays = 4;
    Iommu iommu(eq, prof);
    mem::PageTable pt(fa);
    constexpr Pasid kP = 7;
    constexpr DevId kDev = 1;
    iommu.bindPasid(kP, &pt);
    auto region = [](unsigned r) {
        return 0x40000000ull + r * mem::kPmdSpan;
    };
    for (unsigned r = 0; r < 5; r++)
        pt.set(region(r), mem::makeFte(100 + r, kDev, true));
    auto translate = [&](unsigned r) {
        ASSERT_TRUE(iommu.translateVbaSync(kP, region(r), 4096, false,
                                           kDev)
                        .ok);
    };
    for (unsigned r = 0; r < 4; r++)
        translate(r); // region 0 is now least recently used
    iommu.prefetchVba(kP, region(0)); // must not refresh it
    translate(4);                     // evicts the LRU way
    const std::uint64_t misses = iommu.walkCache().misses();
    translate(0);
    EXPECT_EQ(iommu.walkCache().misses(), misses + 1);
}

TEST_F(IommuFixture, InvalidationForcesWalkCacheMiss)
{
    mapBlocks(0x40000000, 500, 1);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev);
    const Time warm
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    iommu.invalidateRange(kP, 0x40000000, 4096);
    const Time cold
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    EXPECT_GT(cold, warm);
}

TEST_F(IommuFixture, DetachedFteFaultsAfterInvalidation)
{
    mapBlocks(0x40000000, 500, 1);
    ASSERT_TRUE(iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
                    .ok);
    pt.clear(0x40000000);
    iommu.invalidateRange(kP, 0x40000000, 4096);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
}

TEST_F(IommuFixture, DmaResolveInsideRegistration)
{
    std::vector<std::uint8_t> buf(8192, 0xab);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    auto s = iommu.resolveDma(kP, 0x9000000 + 100, 500, true);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->size(), 500u);
    EXPECT_EQ(s->data(), buf.data() + 100);
}

TEST_F(IommuFixture, DmaRejectsOutOfBounds)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000 + 4000, 200, true)
                     .has_value());
    EXPECT_FALSE(iommu.resolveDma(kP, 0x8000000, 10, true).has_value());
}

TEST_F(IommuFixture, DmaRejectsWriteToReadOnly)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), /*writable=*/false);
    EXPECT_TRUE(iommu.resolveDma(kP, 0x9000000, 100, false).has_value());
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000, 100, true).has_value());
}

TEST_F(IommuFixture, DmaIsolatedByPasid)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    EXPECT_FALSE(iommu.resolveDma(kP + 1, 0x9000000, 100, true)
                     .has_value());
}

TEST_F(IommuFixture, DmaLookupNeverCrossesPasids)
{
    // Two PASIDs register the same IOVA; each resolves to its own.
    std::vector<std::uint8_t> a(4096), b(4096), c(4096);
    iommu.mapDma(kP, 0x9000000, std::span(a), true);
    iommu.mapDma(kP + 1, 0x9000000, std::span(b), true);
    const auto ra = iommu.resolveDma(kP, 0x9000000 + 16, 100, true);
    const auto rb = iommu.resolveDma(kP + 1, 0x9000000 + 16, 100, true);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->data(), a.data() + 16);
    EXPECT_EQ(rb->data(), b.data() + 16);

    // kP + 2's lowest registration is above the probe, and kP + 1's
    // buffer, just before it in the (pasid, iova) order, covers the
    // probe: stepping back across PASIDs would resolve into b.
    iommu.mapDma(kP + 2, 0x9100000, std::span(c), true);
    EXPECT_FALSE(iommu.resolveDma(kP + 2, 0x9000000 + 16, 100, true)
                     .has_value());
    EXPECT_TRUE(iommu.resolveDma(kP + 2, 0x9100000, 100, true).has_value());
}

TEST_F(IommuFixture, DmaUnmapRevokes)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    iommu.unmapDma(kP, 0x9000000);
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000, 100, true).has_value());
}

TEST_F(IommuFixture, DmaMemoAnswersAsTheRegistry)
{
    // b overlaps a's second page; the registry resolves an IOVA through
    // the registration with the largest base below it, and so must a
    // memo filled from a.
    std::vector<std::uint8_t> a(8192), b(4096);
    iommu.mapDma(kP, 0x9000000, std::span(a), true);
    iommu.mapDma(kP, 0x9001000, std::span(b), /*writable=*/false);
    Iommu::DmaMemo memo;
    auto r = iommu.resolveDma(kP, 0x9000000 + 8, 100, true, &memo);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data(), a.data() + 8);
    r = iommu.resolveDma(kP, 0x9000000 + 16, 100, true, &memo);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data(), a.data() + 16);
    r = iommu.resolveDma(kP, 0x9001000, 100, false, &memo);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data(), b.data());
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9001000, 100, true, &memo)
                     .has_value());
    EXPECT_FALSE(iommu.resolveDma(kP + 1, 0x9001000, 100, false, &memo)
                     .has_value());

    // Replacing b drops the memo: the new buffer answers.
    std::vector<std::uint8_t> c(4096);
    iommu.mapDma(kP, 0x9001000, std::span(c), true);
    r = iommu.resolveDma(kP, 0x9001000, 100, true, &memo);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data(), c.data());
    iommu.unmapDma(kP, 0x9001000);
    r = iommu.resolveDma(kP, 0x9001000, 100, true, &memo);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data(), a.data() + 4096);
}

TEST(TranslationCache, LruEviction)
{
    TranslationCache tc(4, 4); // one set, 4 ways
    std::uint64_t v;
    for (std::uint64_t k = 0; k < 4; k++)
        tc.insert(k, k * 10);
    EXPECT_TRUE(tc.lookup(0, v)); // refresh key 0
    tc.insert(99, 990);           // evicts LRU (key 1)
    EXPECT_TRUE(tc.lookup(0, v));
    EXPECT_TRUE(tc.lookup(99, v));
    EXPECT_EQ(v, 990u);
}

TEST(TranslationCache, HitMissCounters)
{
    TranslationCache tc(16, 4);
    std::uint64_t v;
    EXPECT_FALSE(tc.lookup(5, v));
    tc.insert(5, 50);
    EXPECT_TRUE(tc.lookup(5, v));
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.misses(), 1u);
}

TEST(TranslationCache, InvalidateIf)
{
    TranslationCache tc(16, 4);
    for (std::uint64_t k = 0; k < 8; k++)
        tc.insert(k, k);
    tc.invalidateIf([](std::uint64_t k) { return k % 2 == 0; });
    std::uint64_t v;
    EXPECT_FALSE(tc.lookup(0, v));
    EXPECT_TRUE(tc.lookup(1, v));
}
