/**
 * @file
 * Fig. 5: IOMMU translation overhead versus the number of translations
 * per ATS request (contiguous VBAs). One 64 B page-table cacheline holds
 * 8 FTEs, so the overhead stays nearly flat.
 */

#include "bench/common.hpp"

#include "mem/page_table.hpp"

using namespace bpd;

int
main(int argc, char **argv)
{
    bench::ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: fig5_ats_batching [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Fig. 5",
                  "IOMMU overhead vs number of translations per request");

    sim::setVerbose(false);
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    iommu::Iommu mmu(eq);
    mem::PageTable pt(fa);

    // No System here — trace the standalone IOMMU directly.
    bpd::obs::MetricsRegistry reg;
    std::unique_ptr<bpd::obs::Tracer> tr;
    if (obs.enabled()) {
        tr = std::make_unique<bpd::obs::Tracer>(eq, obs.level, &reg);
        obs.attach(*tr);
        mmu.setTracer(tr.get());
    }
    const Pasid pasid = 3;
    mmu.bindPasid(pasid, &pt);
    const Vaddr base = 0x40000000;
    for (unsigned i = 0; i < 64; i++)
        pt.set(base + i * kBlockBytes, mem::makeFte(1000 + i, 1, true));

    // Warm the walk cache; FTE leaves are never cached (Section 4.3).
    mmu.translateVbaSync(pasid, base, 4096, false, 1);

    std::printf("%-14s %16s %16s\n", "translations", "overhead(ns)",
                "total(ns)");
    for (unsigned n = 1; n <= 12; n++) {
        iommu::TransResult r = mmu.translateVbaSync(
            pasid, base, n * 4096, false, 1);
        sim::panicIf(!r.ok, "translation failed");
        const Time overhead
            = r.latency - mmu.profile().pcieRoundTripNs;
        std::printf("%-14u %16llu %16llu\n", n,
                    (unsigned long long)overhead,
                    (unsigned long long)r.latency);
    }
    std::printf("\nPaper: ~180-220ns overhead, a slight step at 3+ "
                "translations,\nflat afterwards (8 FTEs per cacheline).\n");

    // Only VBAs are translated here: the walk cache is the one cache.
    if (obs.enabled()) {
        reg.counter("iommu", "walk_cache_hits")
            .set(mmu.walkCache().hits());
        reg.counter("iommu", "walk_cache_misses")
            .set(mmu.walkCache().misses());
        reg.counter("iommu", "vba_translations")
            .set(mmu.vbaTranslations());
        reg.counter("iommu", "page_walk_frames").set(mmu.framesRead());
        obs.capture("fig5_ats_batching", *tr, eq, reg);
    }
    return obs.write() ? 0 : 1;
}
