/**
 * @file
 * NVMe SSD model with BypassD device extensions (Section 4.3).
 *
 * The device exposes queue pairs (SQ/CQ). Each queue is linked to the
 * PASID of the process that owns it; commands on a VBA-mode queue carry
 * Virtual Block Addresses which the device translates through the IOMMU
 * over PCIe ATS before touching media. Reads serialize translation before
 * media access; writes overlap translation with the data-in transfer and
 * therefore observe no translation latency (Section 4.3).
 *
 * Timing model (calibrated to Intel Optane P5800X, Table 1 / Fig. 6):
 *  - media access: base latency + size / bandwidth, lognormal jitter;
 *  - a bounded number of internal units limits concurrency (~1.5 M IOPS);
 *  - a shared transfer link serializes data movement (caps GB/s);
 *  - round-robin arbitration across submission queues (Fig. 11).
 */

#ifndef BPD_SSD_NVME_HPP
#define BPD_SSD_NVME_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "iommu/iommu.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "ssd/block_store.hpp"

namespace bpd::obs {
class Tracer;
}

namespace bpd::qos {
class Registry;
}

namespace bpd::ssd {

/** Device timing/geometry profile. */
struct SsdProfile
{
    Time readBaseNs = 3355;      //!< fetch+base+xfer(4KiB) = 4020 ns
    Time writeBaseNs = 3470;
    double readBwBytesPerNs = 7.0;  //!< ~7 GB/s
    double writeBwBytesPerNs = 6.2; //!< ~6.2 GB/s
    unsigned units = 6;          //!< internal parallelism (~1.5 M IOPS)
    Time cmdFetchNs = 80;        //!< doorbell-to-command-fetch cost
    Time flushNs = 6000;
    double jitterSigma = 0.03;   //!< lognormal sigma on media latency
    std::uint32_t maxQueueDepth = 1024;

    /** @name Injected health models (0 = healthy, the default)
     * Deterministic fault models for the device-map health machinery:
     * every Nth media op fails with Status::MediaError (no RNG draw is
     * added or removed, so healthy-device digests are unaffected), and
     * past degradeAfterOps every media op pays degradeLatencyNs extra —
     * the "slowly dying device" a health monitor is meant to catch.
     */
    ///@{
    std::uint64_t mediaErrorEvery = 0;
    std::uint64_t degradeAfterOps = 0;
    Time degradeLatencyNs = 0;
    ///@}

    /** The evaluation device. */
    static SsdProfile optaneP5800X() { return SsdProfile{}; }
};

/** NVMe command opcode subset. */
enum class Op : std::uint8_t { Read, Write, Flush };

/** Completion status. */
enum class Status : std::uint8_t
{
    Success,
    TranslationFault, //!< IOMMU could not translate the VBA
    PermissionFault,  //!< R/W check failed in the IOMMU
    DevIdFault,       //!< FTE names another device
    InvalidCommand,   //!< malformed / queue not VBA-capable / disabled
    OutOfRange,       //!< LBA beyond capacity
    DmaFault,         //!< host buffer not mapped for DMA
    MediaError,       //!< injected media failure (health model)
    DeviceEvicted     //!< device evicted from the map; command refused
};

/** Convert an IOMMU fault to a completion status. */
Status statusFromFault(iommu::Fault f);

/** An NVMe submission-queue entry. */
struct Command
{
    Op op = Op::Read;
    std::uint64_t cid = 0;    //!< slot index, set by QueuePair::submit
    std::uint64_t addr = 0;   //!< device byte address (LBA*512) or VBA
    bool addrIsVba = false;   //!< interpret addr as a VBA (BypassD)
    std::uint32_t len = 0;    //!< bytes; sector (512 B) granularity

    /** Host buffer: either an IOVA resolved through the IOMMU... */
    std::uint64_t dmaIova = 0;
    bool useIova = false;
    /** ...or a direct host span (kernel/driver-owned buffers). */
    std::span<std::uint8_t> hostBuf;

    /** @name Observability (no effect on simulated behavior)
     * Request trace id carried across layers, the SQ enqueue time
     * stamped by submit() when device tracing is enabled (for the
     * sq_wait arbitration span), and the tenant the command is
     * attributed to. Tenant 0 means "owner of the submitting queue"
     * (qp.pasid()), so user queues need not set it; the kernel sets it
     * on shared-queue commands it issues on a process's behalf.
     */
    ///@{
    std::uint64_t trace = 0;
    Time enq = 0;
    TenantId tenant = kSystemTenant;
    ///@}
};

/** A completion-queue entry. */
struct Completion
{
    std::uint64_t cid = 0;
    std::uint16_t qid = 0;
    Status status = Status::Success;
    Time submitTime = 0;
    Time completeTime = 0;
    Time translateNs = 0; //!< modeled VBA translation latency component
    std::uint64_t trace = 0; //!< request trace id (observability only)
};

/**
 * A command's completion callback. Move-only; captures up to
 * sim::kEventCallbackInlineBytes stay in place, so a command costs no
 * heap allocation once its queue's slot table has grown.
 */
using CompletionFn = sim::InlineFunction<void(const Completion &),
                                         sim::kEventCallbackInlineBytes>;

class NvmeDevice;

/**
 * One SQ/CQ pair. Created by NvmeDevice; owned by it; referenced by users.
 *
 * The pair reaps its own completions, as a polled-mode driver does: the
 * callback a command was submitted with runs at completion time, which
 * models a poller noticing the CQ doorbell with zero extra delay.
 */
class QueuePair
{
  public:
    std::uint16_t qid() const { return qid_; }
    Pasid pasid() const { return pasid_; }

    /**
     * Enqueue a command and ring the doorbell. @p fn runs once the
     * command completes. The command's cid is the index of the slot
     * that keeps @p fn: slots are reused LIFO, and the table grows to
     * the queue's peak outstanding count, never past its depth.
     * @retval false when the SQ is full (caller must retry later). @p fn
     *         is then left untouched, so the caller can retry with it.
     */
    bool submit(Command cmd, CompletionFn &&fn);

    /** Commands submitted and not yet completed (SQ plus in flight). */
    std::uint32_t outstanding() const
    {
        return static_cast<std::uint32_t>(sq_.size()) + inflight_;
    }

    /** @name SR-IOV partition window (Section 5.2)
     * When a queue belongs to a virtual function, every device address
     * (raw LBA or IOMMU-translated) is offset into — and bounds-checked
     * against — the VF's block partition, giving VMs block-level
     * isolation in hardware.
     */
    ///@{
    DevAddr partitionBase() const { return partBase_; }
    /** Partition size in bytes; 0 = unrestricted (physical function). */
    std::uint64_t partitionBytes() const { return partBytes_; }
    ///@}

    /** @name Per-queue statistics (fairness experiments) */
    ///@{
    std::uint64_t completedOps() const { return completedOps_; }
    ///@}

    /** @name Weighted-fair arbitration identity
     * The tenant whose QoS weight governs this queue's share of the RR
     * scan. Defaults to the owning PASID; the fabric target points it
     * at the connection tenant (kConnTenantBase + id) so remote lanes
     * can be weighted individually even though every connection queue
     * is owned by the same kFabricOwnerPasid.
     */
    ///@{
    TenantId qosTenant() const { return qosTenant_; }
    void setQosTenant(TenantId t) { qosTenant_ = t; }
    ///@}

  private:
    friend class NvmeDevice;

    QueuePair(NvmeDevice &dev, std::uint16_t qid, Pasid pasid,
              std::uint32_t depth, bool vbaMode);

    NvmeDevice &dev_;
    std::uint16_t qid_;
    Pasid pasid_;
    std::uint32_t depth_;
    bool vbaMode_;
    bool disabled_ = false;

    sim::Ring<Command> sq_; //!< doubles up to the queue depth
    std::uint32_t inflight_ = 0; //!< dispatched, not yet completed
    /** Completion callbacks, indexed by cid; empty = slot free. */
    std::vector<CompletionFn> slots_;
    std::vector<std::uint32_t> freeSlots_; //!< LIFO stack of free cids

    Time lastWriteDone_ = 0; //!< for flush ordering
    /** The DMA registration this queue's last IOVA command resolved. */
    iommu::Iommu::DmaMemo dmaMemo_;

    DevAddr partBase_ = 0;
    std::uint64_t partBytes_ = 0; //!< 0 = whole device

    TenantId qosTenant_ = kSystemTenant; //!< weight lookup key

    std::uint64_t completedOps_ = 0;
};

/**
 * The SSD. One instance per simulated device.
 */
class NvmeDevice
{
  public:
    NvmeDevice(sim::EventQueue &eq, BlockStore &store, iommu::Iommu &iommu,
               DevId devId, SsdProfile profile = SsdProfile::optaneP5800X(),
               std::uint64_t seed = 1);

    DevId devId() const { return devId_; }
    const SsdProfile &profile() const { return profile_; }
    BlockStore &store() { return store_; }

    /**
     * Create a queue pair.
     * @param pasid Owning process address-space id (0 = kernel).
     * @param depth SQ depth.
     * @param vbaMode Whether commands may carry VBAs.
     * @return Queue, or nullptr when the device is claimed by another
     *         owner or queue limit reached.
     */
    QueuePair *createQueuePair(Pasid pasid, std::uint32_t depth,
                               bool vbaMode);

    /**
     * Create a queue confined to a VF partition [base, base+bytes)
     * (Section 5.2: SR-IOV / Scalable-IOV block-level isolation).
     */
    QueuePair *createVfQueuePair(Pasid pasid, std::uint32_t depth,
                                 bool vbaMode, DevAddr base,
                                 std::uint64_t bytes);

    /** Destroy a queue pair (outstanding commands complete first). */
    void destroyQueuePair(std::uint16_t qid);

    /**
     * Claim the device exclusively (SPDK-style: unbinds everyone else).
     * All other queues are disabled; their future submissions fail.
     * @retval false when already claimed by a different owner.
     */
    bool claimExclusive(Pasid owner);

    /** Release an exclusive claim and re-enable other queues. */
    void releaseExclusive(Pasid owner);

    bool claimed() const { return claimOwner_ != kNoPasid; }

    /**
     * Attach a span tracer (null = disabled, the default). All device
     * instrumentation is guarded by one branch on this pointer and only
     * reads simulator state, so enabling it cannot change timing.
     */
    void setTracer(obs::Tracer *t) { trace_ = t; }
    obs::Tracer *tracer() const { return trace_; }

    /**
     * Attach the per-tenant counter table (null = disabled, the
     * default). Attribution only increments counters at the same
     * program points as the aggregate stats, so enabling it cannot
     * change timing and the per-tenant sums equal the totals exactly.
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

    /**
     * Attach the QoS registry (null = disabled, the default). The
     * device only reads per-tenant weights from it: SQ arbitration
     * becomes weighted round-robin, a queue draining up to
     * weight(qosTenant) commands per scan turn. With no registry — or
     * with every weight at 1 — the scan is the plain round-robin the
     * paper describes, bit-identically.
     */
    void setQos(qos::Registry *q) { qos_ = q; }
    qos::Registry *qos() const { return qos_; }

    /** @name Aggregate statistics */
    ///@{
    std::uint64_t totalOps() const { return totalOps_; }
    std::uint64_t readBytes() const { return readBytes_; }
    std::uint64_t writeBytes() const { return writeBytes_; }
    std::uint64_t translationFaults() const { return translationFaults_; }
    ///@}

    /** @name Health and eviction
     * An evicted device refuses every new command with
     * Status::DeviceEvicted after the command-fetch cost; commands
     * already past fetch drain normally, so eviction never hangs
     * in-flight I/O. Media errors feed the health monitor; the
     * health hook fires (same event, after the failing completion is
     * queued) each time an injected media error lands.
     */
    ///@{
    void setEvicted(bool on) { evicted_ = on; }
    bool evicted() const { return evicted_; }
    std::uint64_t mediaErrors() const { return mediaErrors_; }
    void setHealthHook(std::function<void(std::uint64_t)> hook)
    {
        healthHook_ = std::move(hook);
    }
    ///@}

  private:
    friend class QueuePair;

    /**
     * A data command past validation, from translation to media
     * completion. Jobs live in a slab (jobs_) and the events of the
     * command's timeline carry the slab index, so a command costs no
     * heap allocation once the slab and its buffers have grown to the
     * working set: segs and the write staging buffer keep their
     * capacity across reuse.
     */
    struct MediaJob
    {
        QueuePair *qp = nullptr;
        Op op = Op::Read;
        std::uint32_t len = 0;
        std::vector<iommu::TransSeg> segs;
        std::span<std::uint8_t> host;
        /** Write payload snapshot ("copied into device memory first"). */
        std::vector<std::uint8_t> staged;
        Completion comp;
        Time minDone = 0;    //!< completion cannot precede this (write ATS)
        Time mediaStart = 0; //!< service start (observability only)
        bool mediaError = false; //!< injected failure (health model)
    };

    void ring(std::uint16_t qid);
    void tryDispatch();
    void process(QueuePair &qp, Command cmd);
    void finish(QueuePair &qp, Completion comp);
    void startMedia();
    void mediaDone(std::uint32_t job);
    std::uint32_t allocJob();
    Time mediaTime(Op op, std::uint32_t len);
    std::optional<std::span<std::uint8_t>>
    hostSpan(QueuePair &qp, const Command &cmd, bool deviceWrites);

    sim::EventQueue &eq_;
    BlockStore &store_;
    iommu::Iommu &iommu_;
    DevId devId_;
    SsdProfile profile_;
    sim::Rng rng_;

    std::unordered_map<std::uint16_t, std::unique_ptr<QueuePair>> queues_;
    /** Round-robin arbitration order; owning entries live in queues_. */
    std::vector<QueuePair *> rrOrder_;
    std::size_t rrNext_ = 0;
    std::uint16_t nextQid_ = 1;

    unsigned busyUnits_ = 0;    //!< units doing media work
    unsigned translating_ = 0;  //!< commands in the ATS phase
    std::vector<MediaJob> jobs_;          //!< MediaJob slab
    std::vector<std::uint32_t> freeJobs_; //!< free slab indices
    sim::Ring<std::uint32_t> mediaQueue_; //!< jobs awaiting a unit
    /** Translation scratch; its segs swap into the job's slab entry. */
    iommu::TransResult xlate_;
    Time linkFreeAt_ = 0;
    bool dispatchScheduled_ = false;

    Pasid claimOwner_ = kNoPasid;

    obs::Tracer *trace_ = nullptr;
    obs::TenantAccounting *acct_ = nullptr;
    qos::Registry *qos_ = nullptr;

    std::uint64_t totalOps_ = 0;
    std::uint64_t readBytes_ = 0;
    std::uint64_t writeBytes_ = 0;
    std::uint64_t translationFaults_ = 0;

    bool evicted_ = false;
    std::uint64_t mediaOps_ = 0;
    std::uint64_t mediaErrors_ = 0;
    std::function<void(std::uint64_t)> healthHook_;
};

} // namespace bpd::ssd

#endif // BPD_SSD_NVME_HPP
