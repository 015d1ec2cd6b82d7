/**
 * @file
 * Table 4: IOMMU translation overhead measured via an IOAT-style DMA
 * copy (as the paper does, Section 6.2): IOMMU off, IOMMU on with IOTLB
 * hits (constant buffers), IOMMU on with IOTLB misses (varying source).
 */

#include "bench/common.hpp"

using namespace bpd;

namespace {

/**
 * The IOTLB in front of the IOMMU's DMA translations: one entry per
 * (PASID, IOVA page). A hit costs a lookup; a miss adds the leaf
 * page-table line fetch.
 */
struct Iotlb
{
    const iommu::IommuProfile &prof;
    iommu::TranslationCache cache{256, 4};

    Time
    translate(Pasid pasid, std::uint64_t iova)
    {
        const std::uint64_t key
            = (static_cast<std::uint64_t>(pasid) << 44) ^ (iova >> 12);
        std::uint64_t dummy;
        if (cache.lookup(key, dummy))
            return prof.lookupNs;
        cache.insert(key, 1);
        return prof.lookupNs + prof.leafFetchNs;
    }
};

/** Model an IOAT DMA copy: fixed engine latency + IOMMU translation. */
Time
ioatCopy(Iotlb *tlb, Pasid pasid, std::uint64_t srcIova,
         std::uint64_t dstIova)
{
    constexpr Time kEngineNs = 1120; // copy engine + descriptor cost
    Time t = kEngineNs;
    if (tlb) {
        t += tlb->translate(pasid, srcIova);
        t += tlb->translate(pasid, dstIova);
    }
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: table4_iommu_overheads [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Table 4",
                  "IOMMU translation overheads: IOAT DMA copy latency");

    sim::setVerbose(false);
    sim::EventQueue eq;
    iommu::Iommu mmu(eq);
    Iotlb tlb{mmu.profile()};

    // No System here — trace the standalone IOMMU directly.
    bpd::obs::MetricsRegistry reg;
    std::unique_ptr<bpd::obs::Tracer> tr;
    if (obs.enabled()) {
        tr = std::make_unique<bpd::obs::Tracer>(eq, obs.level, &reg);
        obs.attach(*tr);
        mmu.setTracer(tr.get());
    }

    const Pasid pasid = 5;
    constexpr std::size_t kBufs = 4096;
    std::vector<std::vector<std::uint8_t>> bufs(
        kBufs, std::vector<std::uint8_t>(4096));
    for (std::size_t i = 0; i < kBufs; i++) {
        mmu.mapDma(pasid, 0x10000000ull + i * 4096, std::span(bufs[i]),
                   true);
    }

    constexpr int kIters = 2000;
    sim::MeanAccumulator off, hit, miss;

    for (int i = 0; i < kIters; i++)
        off.add(static_cast<double>(ioatCopy(nullptr, pasid, 0, 0)));

    // Constant src and dest: IOTLB hits after the first touch.
    ioatCopy(&tlb, pasid, 0x10000000ull, 0x10001000ull);
    for (int i = 0; i < kIters; i++) {
        hit.add(static_cast<double>(
            ioatCopy(&tlb, pasid, 0x10000000ull, 0x10001000ull)));
    }

    // Varying source page, constant dest: source misses every time.
    sim::Rng rng(7);
    for (int i = 0; i < kIters; i++) {
        const std::uint64_t src
            = 0x10000000ull + rng.nextUint(kBufs) * 4096;
        miss.add(static_cast<double>(
            ioatCopy(&tlb, pasid, src, 0x10001000ull)));
    }

    std::printf("%-52s %10s  %s\n", "configuration", "lat(ns)",
                "paper(ns)");
    std::printf("%-52s %10.0f  %s\n", "IOMMU off", off.mean(), "1120");
    std::printf("%-52s %10.0f  %s\n",
                "IOMMU on; constant src and dest (IOTLB hit)",
                hit.mean(), "1134");
    std::printf("%-52s %10.0f  %s\n",
                "IOMMU on; varying src, const dest (IOTLB miss)",
                miss.mean(), "1317");
    std::printf("\nIOTLB: %llu hits, %llu misses\n",
                (unsigned long long)tlb.cache.hits(),
                (unsigned long long)tlb.cache.misses());

    // Only DMA IOVAs are translated here: no page walk, no walk cache.
    if (obs.enabled()) {
        reg.counter("iommu", "iotlb_hits").set(tlb.cache.hits());
        reg.counter("iommu", "iotlb_misses").set(tlb.cache.misses());
        obs.capture("table4_ioat_copy", *tr, eq, reg);
    }
    return obs.write() ? 0 : 1;
}
