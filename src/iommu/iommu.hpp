/**
 * @file
 * The enhanced IOMMU of BypassD (Section 3.5, 4.3).
 *
 * Beyond classic IOVA-to-physical translation for DMA buffers, this IOMMU
 * services PCIe ATS translation requests that carry Virtual Block
 * Addresses. Using the PASID linked to the submitting NVMe queue it walks
 * the owning process' page table (SVA-style), interprets leaf entries with
 * the FT bit set as File Table Entries, verifies the R/W permission and
 * that the FTE's DevID matches the requester, and returns coalesced
 * (device-byte-address, length) segments.
 *
 * Timing is calibrated from the paper's measurements (Section 6.2): 345 ns
 * PCIe round trip, ~183 ns for the leaf cacheline fetch on a walk, small
 * extra for additional cachelines; FTEs are not inserted into the IOTLB.
 */

#ifndef BPD_IOMMU_IOMMU_HPP
#define BPD_IOMMU_IOMMU_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "iommu/iotlb.hpp"
#include "mem/page_table.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"

namespace bpd::obs {
class Tracer;
}

namespace bpd::iommu {

/** Timing and geometry knobs. */
struct IommuProfile
{
    Time pcieRoundTripNs = 345;   //!< ATS request + response transit
    Time lookupNs = 15;           //!< walk-cache lookup
    Time leafFetchNs = 183;       //!< first page-table cacheline fetch
    Time extraLineNs = 12;        //!< each additional leaf cacheline
    Time upperLevelFetchNs = 120; //!< per level on walk-cache miss
    unsigned walkCacheEntries = 2048;
    unsigned walkCacheWays = 4;
    /**
     * Override for the whole VBA translation latency; when >= 0 the
     * modeled components above are replaced by this constant (used by the
     * Fig. 8 sensitivity sweep). -1 means "use the component model".
     */
    std::int64_t fixedVbaLatencyNs = -1;
};

/** Why a translation failed. */
enum class Fault : std::uint8_t
{
    None,
    NoPasid,      //!< PASID not bound to any page table
    NotPresent,   //!< no present leaf for some page of the range
    Permission,   //!< write requested through a read-only path
    NotFte,       //!< present leaf is not a File Table Entry
    DevIdMismatch //!< FTE belongs to a different device
};

/** One translated extent on the device. */
struct TransSeg
{
    DevAddr addr; //!< device byte address
    std::uint32_t len;
};

/** Outcome of an ATS VBA translation. */
struct TransResult
{
    bool ok = false;
    Fault fault = Fault::None;
    std::vector<TransSeg> segs;
    Time latency = 0;        //!< modeled translation latency
    unsigned framesRead = 0; //!< page-table frames touched
    unsigned pages = 0;      //!< 4 KiB translations performed
};

/**
 * The system IOMMU. One instance serves all devices.
 */
class Iommu
{
  public:
    Iommu(sim::EventQueue &eq, IommuProfile profile = {});

    IommuProfile &profile() { return profile_; }

    /** @name PASID table (SVA binding) */
    ///@{
    void bindPasid(Pasid pasid, const mem::PageTable *pt);
    void unbindPasid(Pasid pasid);
    ///@}

    /** Service an ATS translation request for a VBA range: the
     *  functional result plus its modeled latency. */
    TransResult translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                                 bool isWrite, DevId requester);

    /**
     * translateVbaSync() into a caller-owned result. @p out is
     * overwritten; its segs vector keeps its capacity, so a caller that
     * reuses one result (the device's command path) translates without
     * allocating.
     */
    void translateVbaInto(Pasid pasid, Vaddr vba, std::uint32_t len,
                          bool isWrite, DevId requester, TransResult &out);

    /**
     * Host-only hint, given when a VBA command enters its submission
     * queue: prefetch the leaf FTE line that translating @p vba will
     * read, so the walk at dispatch does not wait on a cache miss. It
     * changes no simulated state: not the walk cache (its LRU order or
     * hit counters), not framesRead() or vbaTranslations(), not the
     * tenant rows and not the page table. An unbound PASID or an
     * unmapped VBA is ignored.
     */
    void prefetchVba(Pasid pasid, Vaddr vba) const;

    /**
     * Invalidate cached translation state for a VBA range (issued by the
     * kernel when FTEs are detached, Section 3.6).
     */
    void invalidateRange(Pasid pasid, Vaddr start, std::uint64_t len);

    /** Invalidate everything for a PASID. */
    void invalidateAll(Pasid pasid);

    /** @name DMA buffer registry (classic IOVA mappings)
     * Pinned DMA buffers are registered with the IOMMU; devices resolve
     * (pasid, iova) to host memory through it. A rogue device or a bad
     * IOVA resolves to nothing and the DMA is rejected.
     */
    ///@{
    void mapDma(Pasid pasid, std::uint64_t iova, std::span<std::uint8_t> mem,
                bool writable);
    void unmapDma(Pasid pasid, std::uint64_t iova);

    /** A registered DMA region. */
    struct DmaMapping
    {
        Pasid pasid;
        bool writable;
        std::uint64_t iova; //!< base IOVA
        std::span<std::uint8_t> mem;
    };

    /**
     * The registration a requester resolved last, kept by the requester
     * (each queue pair has one: its commands all name its own buffer)
     * so that its next command skips the registry search. It answers
     * only IOVAs below the PASID's next registration, so a hit returns
     * what the registry would. Every mapDma() and unmapDma() drops all
     * memos.
     */
    struct DmaMemo
    {
        DmaMapping m{};
        std::uint64_t end = 0;   //!< base of the PASID's next registration
        std::uint64_t epoch = 0; //!< registry epoch when filled; 0 = empty
    };

    /**
     * Resolve a DMA target. A miss or a rejection goes through the
     * registry; a resolved mapping refills @p memo when one is given.
     * @param deviceWrites True when the device writes to host memory.
     * @return Host span, or nullopt on any violation.
     */
    std::optional<std::span<std::uint8_t>>
    resolveDma(Pasid pasid, std::uint64_t iova, std::uint32_t len,
               bool deviceWrites, DmaMemo *memo = nullptr);
    ///@}

    /** @name Statistics */
    ///@{
    std::uint64_t vbaTranslations() const { return vbaTranslations_; }
    std::uint64_t vbaFaults() const { return vbaFaults_; }
    std::uint64_t framesRead() const { return framesRead_; }
    const TranslationCache &walkCache() const { return walkCache_; }
    ///@}

    /**
     * Attach a span tracer (null = disabled). Emits instant events on
     * translation-cache invalidations; read-only, timing-neutral.
     */
    void setTracer(obs::Tracer *t);

    /**
     * Attach the per-tenant counter table (null = disabled). The
     * translating PASID is the tenant. Walk-cache hit counters stay
     * system-only on purpose: the cache is shared, so a hit caused by
     * one tenant's fill serving another has no honest owner.
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

  private:
    static std::uint64_t wcKey(Pasid pasid, Vaddr va);

    sim::EventQueue &eq_;
    IommuProfile profile_;
    std::unordered_map<Pasid, const mem::PageTable *> pasidTable_;

    /**
     * Registered DMA regions (one per user queue pair or VM), sorted by
     * (pasid, base IOVA).
     */
    std::vector<DmaMapping> dma_;
    /** Bumped by every mapDma() and unmapDma(); DmaMemo::epoch checks it. */
    std::uint64_t dmaEpoch_ = 1;
    /** The first registration after (@p pasid, @p iova) in dma_. */
    std::vector<DmaMapping>::iterator dmaAfter(Pasid pasid,
                                               std::uint64_t iova);

    TranslationCache walkCache_;

    obs::Tracer *trace_ = nullptr;
    std::uint16_t obsTrack_ = 0;
    obs::TenantAccounting *acct_ = nullptr;

    std::uint64_t vbaTranslations_ = 0;
    std::uint64_t vbaFaults_ = 0;
    std::uint64_t framesRead_ = 0;
};

} // namespace bpd::iommu

#endif // BPD_IOMMU_IOMMU_HPP
