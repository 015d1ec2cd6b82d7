/**
 * @file
 * The BypassD kernel module (Sections 3.2-3.6): fmap()/funmap() syscalls,
 * user queue-pair and DMA-buffer setup with PASID linkage, FTE lifetime
 * management on appends/truncates, and the revocation engine.
 */

#ifndef BPD_BYPASSD_MODULE_HPP
#define BPD_BYPASSD_MODULE_HPP

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "bypassd/file_table.hpp"
#include "kern/kernel.hpp"
#include "mem/dma_buffer.hpp"

namespace bpd::bypassd {

/** Result of an fmap() call. */
struct FmapResult
{
    Vaddr vba = 0;        //!< 0 => not eligible; use the kernel interface
    std::uint64_t mappedBytes = 0;
    Time cost = 0;        //!< modeled syscall latency (Table 5)
    bool cold = false;    //!< file tables had to be built
    std::size_t slot = 0; //!< home device slot; route I/O to its queues
    DevId dev = 0;        //!< home device's DevID (0 when vba == 0)
};

/** A user-mapped queue pair plus its pinned DMA buffer. */
struct UserQueues
{
    ssd::QueuePair *qp = nullptr;
    mem::DmaBuffer dmaBuf;
    std::uint64_t dmaIova = 0;
    Time setupCost = 0;
    std::size_t slot = 0; //!< device slot the queue pair lives on
};

class BypassdModule : public kern::BypassdHooks
{
  public:
    explicit BypassdModule(kern::Kernel &kernel);
    ~BypassdModule() override;

    /**
     * fmap(): map @p ino's blocks into @p p's address space as FTEs.
     * Returns VBA 0 when the file is ineligible (already open through the
     * kernel interface, revoked, or not a regular file) — the caller must
     * then use the kernel interface (Sections 3.6, 4.5.2).
     */
    FmapResult fmap(kern::Process &p, InodeNum ino, bool writable);

    /** Detach @p p's file tables for @p ino (close path). */
    void funmap(kern::Process &p, InodeNum ino);

    /**
     * Revoke everyone's direct access to @p ino: detach FTEs and
     * invalidate IOMMU state; subsequent userspace I/O faults and falls
     * back (Section 3.6).
     */
    void revoke(fs::Inode &ino);

    /**
     * Device eviction (multi-device fleet): revoke every file-table
     * cache homed on device slot @p slot, in deterministic inode-number
     * order. Victims fault on their next direct I/O, re-fmap(), get
     * VBA 0 (the home device is evicted) and fall back to the kernel
     * interface, where I/O to the dead device fails with ENODEV.
     * @return Number of inodes whose caches were revoked.
     */
    std::size_t revokeSlot(std::size_t slot);

    /**
     * Create a VBA-capable queue pair + pinned DMA buffer for @p p on
     * device slot @p slot.
     */
    std::unique_ptr<UserQueues>
    createUserQueues(kern::Process &p, std::uint32_t depth,
                     std::uint64_t dmaBytes, std::size_t slot = 0);

    void destroyUserQueues(kern::Process &p, UserQueues &uq);

    /** @name Kernel hooks (Section 4.5.2 policy) */
    ///@{
    void onKernelOpen(fs::Inode &ino) override;
    void onMetadataChange(fs::Inode &ino, Pid pid) override;
    void onExtentsAdded(fs::Inode &ino,
                        const std::vector<fs::Extent> &added) override;
    void onTruncated(fs::Inode &ino) override;
    /** Lifts a revocation: once no one holds the file open, the next
     *  open is a new grant. */
    void onLastClose(fs::Inode &ino) override;
    ///@}

    /** Is direct access currently revoked for this inode? */
    bool isRevoked(InodeNum ino) const { return revoked_.count(ino) != 0; }

    /** Attach the observability tracer (nullptr disables). */
    void setTracer(obs::Tracer *t);

    /**
     * Attach the per-tenant counter table (null = disabled). fmap and
     * revocation bookkeeping is attributed to the calling/victim
     * process's PASID. `revocations` stays system-only: one revocation
     * can detach many victims, so its per-tenant counterpart is
     * `revoked_victims` (one per detached process).
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

    /** @name Statistics */
    ///@{
    std::uint64_t coldFmaps() const { return coldFmaps_; }
    std::uint64_t warmFmaps() const { return warmFmaps_; }
    std::uint64_t revocations() const { return revocations_; }
    std::uint64_t rejectedFmaps() const { return rejectedFmaps_; }
    /** Processes detached by revocations (>= revocations()). */
    std::uint64_t revokedVictims() const { return revokedVictims_; }
    ///@}

    /** VA headroom reserved beyond the file size for in-place growth. */
    static constexpr std::uint64_t kRegionHeadroom = 32ull << 20;

  private:
    FileTableCache *cacheOf(fs::Inode &ino);
    /** Some process has @p ino's file tables attached. */
    bool mappedDirect(fs::Inode &ino);
    FileTableCache *ensureCache(fs::Inode &ino, FmapResult *res);
    /** IOMMU context of the slot @p ino's cache was built on (0 if none). */
    iommu::Iommu &homeIommu(InodeNum ino);
    /**
     * Detach @p p's attachment. With @p quarantineVa the VBA region is
     * NOT returned to the VA allocator yet: a revoked process still
     * holds the stale VBA, and releasing the region immediately would
     * let a subsequent fmap() (even of another file in the same
     * process) reuse it — the stale VBA would then translate through
     * the new mapping instead of faulting. The region is released when
     * the owner re-fmaps or funmaps (analogous to Section 3.6's
     * deferred block reuse).
     */
    void detachOne(kern::Process &p, fs::Inode &ino,
                   FileTableCache &cache, bool quarantineVa);
    void releaseQuarantine(kern::Process &p, InodeNum ino);
    /** Emit the fmap cold/warm span when tracing is enabled. */
    void emitFmap(const FmapResult &res, InodeNum ino);
    /**
     * Count, charge and trace a refused fmap of @p ino by @p p (the
     * instant names the home @p slot when it is the reason); returns
     * @p res, whose VBA stays 0.
     */
    FmapResult reject(kern::Process &p, const FmapResult &res, InodeNum ino,
                      std::optional<std::size_t> slot = {});

    kern::Kernel &kernel_;

    obs::Tracer *trace_ = nullptr;
    std::uint16_t obsTrack_ = 0;

    std::uint64_t coldFmaps_ = 0;
    std::uint64_t warmFmaps_ = 0;
    std::uint64_t revocations_ = 0;
    std::uint64_t rejectedFmaps_ = 0;
    std::uint64_t revokedVictims_ = 0;

    obs::TenantAccounting *acct_ = nullptr;

    std::set<InodeNum> revoked_;

    /**
     * Inodes with a built file-table cache, keyed to their home slot at
     * build time. std::map keeps revokeSlot()'s walk in deterministic
     * inode order. Entries persist for the cache's lifetime (caches die
     * with the inode); revoke() tolerates empty-attachment caches.
     */
    std::map<InodeNum, std::size_t> cacheHome_;

    struct QuarantinedRegion
    {
        Vaddr vba;
        std::uint64_t bytes;
    };
    /** Revoked-but-unreleased VBA regions, keyed by (pid, inode). */
    std::map<std::pair<Pid, InodeNum>, QuarantinedRegion> quarantined_;
};

} // namespace bpd::bypassd

#endif // BPD_BYPASSD_MODULE_HPP
