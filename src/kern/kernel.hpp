/**
 * @file
 * The simulated OS kernel: timed POSIX-style syscalls over the VFS/ext4
 * stack and the kernel NVMe driver. This is the paper's baseline "sync"
 * path (Table 1) and also the metadata path that BypassD keeps in the
 * kernel (Table 3). Costs come from kern::CostModel; CPU contention from
 * kern::CpuModel; device time from ssd::NvmeDevice.
 *
 * Modeled behaviours relevant to the evaluation:
 *  - O_DIRECT data path: user->kernel switch, VFS+ext4, block layer,
 *    driver, device, kernel->user switch;
 *  - buffered path through a page cache with write-back;
 *  - per-inode exclusive write lock in the kernel write path (the ext4
 *    same-file write bottleneck BypassD avoids, Section 6.5);
 *  - appends allocate + zero blocks and are issued unbuffered
 *    (Section 4.2 / Table 3).
 */

#ifndef BPD_KERN_KERNEL_HPP
#define BPD_KERN_KERNEL_HPP

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "fs/page_cache.hpp"
#include "fs/vfs.hpp"
#include "iommu/iommu.hpp"
#include "kern/cost_model.hpp"
#include "kern/cpu_model.hpp"
#include "kern/process.hpp"
#include "kern/request.hpp"
#include "mem/frame_allocator.hpp"
#include "obs/tenant.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "ssd/nvme.hpp"

namespace bpd::qos {
class Registry;
}

namespace bpd::kern {

/** Metadata-op completion: 0/fd or negative FsStatus. */
using IntCb = std::function<void(int)>;

/** Device-I/O completion: worst status and the span of device time. */
using DeviceCb = sim::InlineFunction<void(ssd::Status, Time),
                                     sim::kEventCallbackInlineBytes>;

/** Map FsStatus to a negative syscall return code. */
inline int
errOf(fs::FsStatus st)
{
    return -static_cast<int>(st);
}

/** Device completion status → errno: evicted devices fail distinctly
 *  (ENODEV) so callers can fail over; everything else is EINVAL. */
int devErr(ssd::Status st);

/** Extra open flag used by UserLib: open intends BypassD data access. */
constexpr std::uint32_t kOpenBypassdIntent = 1u << 7;

/**
 * Hooks the BypassD kernel module installs to participate in open/
 * metadata events (revocation policy, Sections 3.6 and 4.5.2).
 */
class BypassdHooks
{
  public:
    virtual ~BypassdHooks() = default;
    /** A kernel-interface open happened on @p ino. */
    virtual void onKernelOpen(fs::Inode &ino) = 0;
    /** Process @p pid changed @p ino's metadata via the kernel. */
    virtual void onMetadataChange(fs::Inode &ino, Pid pid) = 0;
    /** File blocks grew; FTEs must be extended (appends, Table 3). */
    virtual void onExtentsAdded(fs::Inode &ino,
                                const std::vector<fs::Extent> &added) = 0;
    /** Blocks were truncated away; FTEs must be detached. */
    virtual void onTruncated(fs::Inode &ino) = 0;
    /** The last open of @p ino, through either interface, closed. */
    virtual void onLastClose(fs::Inode &ino) = 0;
};

struct KernelConfig
{
    std::uint64_t pageCacheBytes = 8ull << 30;
    std::uint32_t kernelQueueDepth = 1024;
    unsigned hwThreads = 24; //!< evaluation machine: 12 cores x HT
};

struct Stat
{
    InodeNum ino;
    std::uint64_t size;
    std::uint16_t mode;
    std::uint32_t uid, gid;
    Time mtime;
};

class Kernel
{
  public:
    Kernel(sim::EventQueue &eq, mem::FrameAllocator &fa,
           iommu::Iommu &iommu, fs::Vfs &vfs, ssd::NvmeDevice &dev,
           CostModel costs = {}, KernelConfig cfg = {});

    /** @name Process management */
    ///@{
    Process &createProcess(fs::Credentials creds);
    void destroyProcess(Pid pid);
    Process *process(Pid pid);
    ///@}

    /**
     * Confine @p p to a mount namespace rooted at @p root (Section 5.2:
     * containers share the SSD through BypassD without extra support,
     * because access control stays in the kernel). Creates the root
     * directory if needed.
     */
    fs::FsStatus setNamespaceRoot(Process &p, const std::string &root);

    /** Resolve a path in @p p's mount namespace. */
    std::string nsPath(const Process &p, const std::string &path) const;

    /** @name Timed syscalls (callback fires at completion sim-time)
     * Buffer spans are used asynchronously: the caller must keep the
     * memory alive until the completion callback fires.
     */
    ///@{
    void sysOpen(Process &p, const std::string &path, std::uint32_t flags,
                 std::uint16_t mode, IntCb cb);
    void sysClose(Process &p, int fd, IntCb cb);
    /**
     * A data syscall called with a callback is the outermost layer: it
     * opens the request (the "sync.pread"/"sync.pwrite" envelope when
     * tracing). Called with a Request, it serves an engine above
     * (libaio, UserLib's kernel fallback) that opened the request and
     * owns its envelope; the kernel carries it down and finishes it.
     */
    void sysPread(Process &p, int fd, std::span<std::uint8_t> buf,
                  std::uint64_t off, IoCb cb);
    void sysPread(Process &p, int fd, std::span<std::uint8_t> buf,
                  std::uint64_t off, Request req);
    void sysPwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                   std::uint64_t off, IoCb cb);
    void sysPwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                   std::uint64_t off, Request req);
    void sysFsync(Process &p, int fd, IntCb cb);
    void sysFallocate(Process &p, int fd, std::uint64_t off,
                      std::uint64_t len, IntCb cb);
    void sysFtruncate(Process &p, int fd, std::uint64_t size, IntCb cb);
    void sysUnlink(Process &p, const std::string &path, IntCb cb);
    void sysRename(Process &p, const std::string &from,
                   const std::string &to, IntCb cb);
    void sysStat(Process &p, const std::string &path, Stat *out, IntCb cb);
    ///@}

    /** @name Untimed setup helpers (test/bench prepopulation) */
    ///@{
    int setupOpen(Process &p, const std::string &path, std::uint32_t flags,
                  std::uint16_t mode = 0644);
    long long setupWrite(Process &p, int fd,
                         std::span<const std::uint8_t> buf,
                         std::uint64_t off);
    long long setupRead(Process &p, int fd, std::span<std::uint8_t> buf,
                        std::uint64_t off);
    /** Create a file of @p size bytes filled with a seeded pattern. */
    int setupCreateFile(Process &p, const std::string &path,
                        std::uint64_t size, std::uint64_t seed = 0);
    ///@}

    /** @name Component access (BypassD module, XRP, baselines) */
    ///@{
    sim::EventQueue &eq() { return eq_; }
    mem::FrameAllocator &frames() { return fa_; }
    iommu::Iommu &iommu() { return iommu_; }
    fs::Vfs &vfs() { return vfs_; }
    ssd::NvmeDevice &device() { return dev_; }
    CostModel &costs() { return costs_; }
    CpuModel &cpu() { return cpu_; }
    fs::PageCache &pageCache() { return pageCache_; }
    void setBypassdHooks(BypassdHooks *hooks) { hooks_ = hooks; }
    BypassdHooks *bypassdHooks() { return hooks_; }
    ///@}

    /** @name Device slots (multi-device volume)
     * The constructor's device is slot 0 at volume base 0. Each
     * attachSlot() call adds the next slot: a kernel queue pair on
     * that device, PASID bindings in its IOMMU for every live process
     * (bound in pid order — deterministic), and a volume base that
     * deviceIo() routes by. Slot bases must be uniform
     * multiples of the first attached base (the slot size). With one
     * slot everything reduces exactly to the classic single-device
     * kernel.
     */
    ///@{
    void attachSlot(ssd::NvmeDevice &dev, iommu::Iommu &iommu,
                    std::uint64_t base);
    std::size_t slotCount() const { return slots_.size(); }
    ssd::NvmeDevice &slotDevice(std::size_t i) { return *slots_[i].dev; }
    iommu::Iommu &slotIommu(std::size_t i) { return *slots_[i].iommu; }
    std::uint64_t slotBase(std::size_t i) const { return slots_[i].base; }
    std::uint64_t slotBytes() const { return slotBytes_; }
    /** Slot index backing volume address @p addr. */
    std::size_t slotOf(DevAddr addr) const
    {
        return slotBytes_ == 0 ? 0 : addr / slotBytes_;
    }
    /**
     * Multi-device placement hook: returns the home device slot of an
     * inode, where its fsync flushes and its BypassD file tables live.
     * Must agree with the file system's block placement (System wires
     * both from one DeviceMap). Null (default) takes the slot of the
     * first extent, since placement keeps a file on one slot, and
     * slot 0 for a file with none: single-device volumes always get 0.
     */
    using HomeSlotFn = std::function<std::size_t(const fs::Inode &)>;
    void setHomeSlot(HomeSlotFn fn) { homeSlot_ = std::move(fn); }
    /** Home device slot of @p ino (see setHomeSlot). */
    std::size_t homeSlotOf(const fs::Inode &ino) const
    {
        if (homeSlot_)
            return homeSlot_(ino);
        const auto &exts = ino.extents.extents();
        return exts.empty() ? 0 : slotOf(exts.front().pblk * kBlockBytes);
    }
    ///@}

    /**
     * Submit a multi-segment device I/O on the kernel queue for @p id:
     * its commands carry the trace id, and the I/O is billed to and
     * QoS-gated as the tenant. @p cb fires when all segments completed.
     */
    void deviceIo(ssd::Op op, std::vector<fs::Seg> segs,
                  std::span<std::uint8_t> buf, DeviceCb cb, IoIdentity id);

    /**
     * Attach the QoS registry (null = disabled, the default). deviceIo
     * then charges each data I/O against the tenant's token buckets and
     * parks over-limit submissions on the registry's per-tenant FIFO;
     * they issue in order as the buckets refill. Flush (sysFsync) is
     * exempt — QoS caps data-path IOPS/bytes, not durability barriers.
     */
    void setQos(qos::Registry *q) { qos_ = q; }
    qos::Registry *qos() const { return qos_; }

    /** The kernel-interface path for UserLib's appends (Table 3). */
    void appendPath(Process &p, fs::Inode &ino,
                    std::span<const std::uint8_t> buf, std::uint64_t off,
                    Request req);

    std::uint64_t syscallCount() const { return syscalls_; }

    /**
     * Attach a span tracer (null = disabled, the default). Every
     * instrumentation site is one branch on this pointer; when null the
     * syscall paths are untouched (no allocation, no time read).
     */
    void setTracer(obs::Tracer *t) { trace_ = t; }
    obs::Tracer *tracer() const { return trace_; }

    /**
     * Attach the per-tenant counter table (null = disabled, the
     * default). Syscall counts are attributed to the calling process's
     * PASID; filesystem-side attribution flows through the active-tenant
     * slot below.
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

    /**
     * @name Active-tenant slot for filesystem attribution
     * The VFS/page-cache/journal layers have no Process argument, so
     * the kernel names the tenant on whose behalf it is currently
     * executing filesystem code in this slot (via kern::TenantScope).
     * Components hold a pointer to it (see
     * fs::Ext4Fs::setTenantAccounting); kSystemTenant (the reset value)
     * catches setup helpers and any unattributed work.
     */
    ///@{
    TenantId activeTenant() const { return activeTenant_; }
    void setActiveTenant(TenantId t) { activeTenant_ = t; }
    const TenantId *activeTenantPtr() const { return &activeTenant_; }
    ///@}

    /** Visit every live process (used by System::enableTracing). */
    void forEachProcess(const std::function<void(Process &)> &fn);

  private:
    void directRead(Process &p, fs::Inode &ino,
                    std::span<std::uint8_t> buf, std::uint64_t off,
                    Request req);
    void directWrite(Process &p, fs::Inode &ino,
                     std::span<const std::uint8_t> buf, std::uint64_t off,
                     Request req);
    void bufferedRead(fs::Inode &ino, std::span<std::uint8_t> buf,
                      std::uint64_t off, Request req);
    void bufferedWrite(Process &p, fs::Inode &ino,
                       std::span<const std::uint8_t> buf,
                       std::uint64_t off, Request req);
    /** A direct read or write's return to user space once its device
     *  I/O (@p dst, @p devNs) is done: touch, kern.exit, finish. */
    void exitDirect(fs::Inode &ino, bool write, Pid pid, Time start,
                    std::uint64_t n, ssd::Status dst, Time devNs,
                    Request req);
    /** Gets the status of the write that carried a page's bytes. */
    using WritebackDone
        = sim::InlineFunction<void(ssd::Status),
                              sim::kEventCallbackInlineBytes>;
    /**
     * Write @p page back through its own inode's mapping, billed to the
     * tenant that last touched it: an evicted dirty page, or fsync's
     * copy of one. The write's completion owns the page, so the bytes
     * outlive the write however long it waits (a QoS park, a full SQ).
     * As with Linux's PG_writeback, one write per page is in flight: a
     * later writeback of the page waits for it, so older bytes never
     * land over newer ones, and newer bytes replace those still
     * waiting, whose @p done then gets the newer write's status. A
     * page whose inode or mapping is gone counts as written.
     */
    void writebackPage(std::unique_ptr<fs::PageCache::Page> page,
                       WritebackDone done);
    /** writebackPage() for a page the cache evicted: a failed write
     *  sets the inode's writebackErr for the next fsync. */
    void writebackEvicted(std::unique_ptr<fs::PageCache::Page> page);
    /** Issue @p page's write; its writebacks_ entry exists. */
    void startWriteback(std::unique_ptr<fs::PageCache::Page> page);
    /** The write in flight for @p key landed with @p st. */
    void finishWriteback(fs::PageCache::Key key, ssd::Status st);

    /** syscalls_++ plus per-tenant attribution (same site). */
    void noteSyscall(const Process &p)
    {
        syscalls_++;
        if (acct_)
            acct_->of(p.pasid()).kernSyscalls++;
    }

    sim::EventQueue &eq_;
    mem::FrameAllocator &fa_;
    iommu::Iommu &iommu_;
    fs::Vfs &vfs_;
    ssd::NvmeDevice &dev_;
    CostModel costs_;
    CpuModel cpu_;
    fs::PageCache pageCache_;
    /** A page's write in flight, and the newest bytes waiting for it. */
    struct Writeback
    {
        InodeNum ino = 0; //!< the page's file, for fsync's join
        WritebackDone done; //!< for the write in flight
        std::unique_ptr<fs::PageCache::Page> next;
        WritebackDone nextDone; //!< for next; empty without it
    };
    /** Page writes in flight, one per page (see writebackPage). */
    std::unordered_map<fs::PageCache::Key, Writeback> writebacks_;
    BypassdHooks *hooks_ = nullptr;

    /** One kernel-side view per device slot: its device, IOMMU,
     *  volume base and the kernel's queue pair on that device. */
    struct Slot
    {
        ssd::NvmeDevice *dev;
        iommu::Iommu *iommu;
        std::uint64_t base;
        ssd::QueuePair *qp;
    };
    std::vector<Slot> slots_;
    HomeSlotFn homeSlot_;
    std::uint64_t slotBytes_ = 0; //!< 0 until a second slot attaches
    std::uint32_t kernelQueueDepth_;

    std::unordered_map<Pid, std::unique_ptr<Process>> procs_;
    Pid nextPid_ = 1;
    std::uint64_t syscalls_ = 0;

    obs::Tracer *trace_ = nullptr;

    obs::TenantAccounting *acct_ = nullptr;
    TenantId activeTenant_ = kSystemTenant;

    qos::Registry *qos_ = nullptr;
};

/**
 * RAII scope naming the tenant on whose behalf the kernel is executing
 * filesystem code. Event-queue callbacks interleave across processes,
 * so a scope is opened at the top of each callback (or synchronous
 * syscall body) that enters the VFS/page-cache/journal — never held
 * across a deferred continuation. Nesting restores the outer value.
 * When tenant accounting is disabled this is a pair of plain stores:
 * no allocation, no time read, digest-neutral.
 */
class TenantScope
{
  public:
    TenantScope(Kernel &k, TenantId t) : k_(k), prev_(k.activeTenant())
    {
        k_.setActiveTenant(t);
    }
    ~TenantScope() { k_.setActiveTenant(prev_); }
    TenantScope(const TenantScope &) = delete;
    TenantScope &operator=(const TenantScope &) = delete;

  private:
    Kernel &k_;
    TenantId prev_;
};

} // namespace bpd::kern

#endif // BPD_KERN_KERNEL_HPP
