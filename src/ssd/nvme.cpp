#include "ssd/nvme.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::ssd {

Status
statusFromFault(iommu::Fault f)
{
    switch (f) {
      case iommu::Fault::None:
        return Status::Success;
      case iommu::Fault::Permission:
        return Status::PermissionFault;
      case iommu::Fault::DevIdMismatch:
        return Status::DevIdFault;
      case iommu::Fault::NoPasid:
      case iommu::Fault::NotPresent:
      case iommu::Fault::NotFte:
        return Status::TranslationFault;
    }
    return Status::TranslationFault;
}

QueuePair::QueuePair(NvmeDevice &dev, std::uint16_t qid, Pasid pasid,
                     std::uint32_t depth, bool vbaMode)
    : dev_(dev), qid_(qid), pasid_(pasid), depth_(depth), vbaMode_(vbaMode)
{
    qosTenant_ = pasid;
}

bool
QueuePair::submit(Command cmd, CompletionFn &&fn)
{
    if (outstanding() >= depth_)
        return false;
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    slots_[slot] = std::move(fn);
    cmd.cid = slot;
    if (dev_.trace_)
        cmd.enq = dev_.eq_.now();
    // The command waits in the SQ for many host events before dispatch
    // translates it; start loading its leaf FTE line now (host-only).
    if (cmd.addrIsVba)
        dev_.iommu_.prefetchVba(pasid_, cmd.addr);
    sq_.push_back(cmd);
    dev_.ring(qid_);
    return true;
}

NvmeDevice::NvmeDevice(sim::EventQueue &eq, BlockStore &store,
                       iommu::Iommu &iommu, DevId devId, SsdProfile profile,
                       std::uint64_t seed)
    : eq_(eq), store_(store), iommu_(iommu), devId_(devId),
      profile_(profile), rng_(seed)
{
}

QueuePair *
NvmeDevice::createQueuePair(Pasid pasid, std::uint32_t depth, bool vbaMode)
{
    if (claimOwner_ != kNoPasid && pasid != claimOwner_)
        return nullptr;
    depth = std::min(depth, profile_.maxQueueDepth);
    const std::uint16_t qid = nextQid_++;
    auto qp = std::unique_ptr<QueuePair>(
        new QueuePair(*this, qid, pasid, depth, vbaMode));
    QueuePair *raw = qp.get();
    queues_[qid] = std::move(qp);
    rrOrder_.push_back(raw);
    return raw;
}

QueuePair *
NvmeDevice::createVfQueuePair(Pasid pasid, std::uint32_t depth,
                              bool vbaMode, DevAddr base,
                              std::uint64_t bytes)
{
    sim::panicIf(base % kBlockBytes != 0 || bytes % kBlockBytes != 0,
                 "VF partition must be block aligned");
    sim::panicIf(base + bytes > store_.capacity(),
                 "VF partition exceeds device");
    QueuePair *qp = createQueuePair(pasid, depth, vbaMode);
    if (qp) {
        qp->partBase_ = base;
        qp->partBytes_ = bytes;
    }
    return qp;
}

void
NvmeDevice::destroyQueuePair(std::uint16_t qid)
{
    auto it = queues_.find(qid);
    if (it == queues_.end())
        return;
    // Outstanding completions reference the QueuePair; defer the erase
    // until it drains.
    QueuePair *qp = it->second.get();
    if (qp->inflight_ > 0 || !qp->sq_.empty()) {
        qp->disabled_ = true;
        eq_.after(10 * kUs, [this, qid]() { destroyQueuePair(qid); });
        return;
    }
    rrOrder_.erase(std::remove(rrOrder_.begin(), rrOrder_.end(), qp),
                   rrOrder_.end());
    if (rrNext_ >= rrOrder_.size())
        rrNext_ = 0;
    queues_.erase(it);
}

bool
NvmeDevice::claimExclusive(Pasid owner)
{
    if (claimOwner_ != kNoPasid && claimOwner_ != owner)
        return false;
    claimOwner_ = owner;
    for (auto &[qid, qp] : queues_) {
        if (qp->pasid() != owner)
            qp->disabled_ = true;
    }
    return true;
}

void
NvmeDevice::releaseExclusive(Pasid owner)
{
    if (claimOwner_ != owner)
        return;
    claimOwner_ = kNoPasid;
    for (auto &[qid, qp] : queues_)
        qp->disabled_ = false;
}

void
NvmeDevice::ring(std::uint16_t qid)
{
    (void)qid;
    if (!dispatchScheduled_) {
        dispatchScheduled_ = true;
        eq_.after(0, [this]() {
            dispatchScheduled_ = false;
            tryDispatch();
        });
    }
}

void
NvmeDevice::tryDispatch()
{
    // Weighted round-robin arbitration: each queue's turn drains up to
    // weight(qosTenant) commands per scan (one without a QoS registry —
    // the paper's plain round-robin, bit-identically). Admission is
    // bounded by total device occupancy (media units busy + commands
    // translating + media backlog) so arbitration stays fair under
    // load, while ATS translations overlap media work.
    auto admitting = [this]() {
        return busyUnits_ + translating_ + mediaQueue_.size()
               < 2 * profile_.units;
    };
    while (admitting()) {
        bool any = false;
        for (std::size_t scanned = 0;
             scanned < rrOrder_.size() && admitting(); scanned++) {
            if (rrOrder_.empty())
                break;
            rrNext_ = rrNext_ % rrOrder_.size();
            QueuePair &qp = *rrOrder_[rrNext_];
            rrNext_ = (rrNext_ + 1) % rrOrder_.size();
            const std::uint32_t weight
                = qos_ ? qos_->weightOf(qp.qosTenant()) : 1;
            for (std::uint32_t took = 0;
                 took < weight && !qp.sq_.empty() && admitting();
                 took++) {
                Command cmd = qp.sq_.front();
                qp.sq_.pop_front();
                qp.inflight_++;
                any = true;
                process(qp, std::move(cmd));
            }
        }
        if (!any)
            break;
    }
}

Time
NvmeDevice::mediaTime(Op op, std::uint32_t len)
{
    // Media latency is size-independent (the transfer term handles size).
    (void)len;
    const Time base = (op == Op::Read) ? profile_.readBaseNs
                                       : profile_.writeBaseNs;
    const double jitter = rng_.lognormalJitter(profile_.jitterSigma);
    return static_cast<Time>(static_cast<double>(base) * jitter);
}

std::optional<std::span<std::uint8_t>>
NvmeDevice::hostSpan(QueuePair &qp, const Command &cmd, bool deviceWrites)
{
    if (cmd.useIova)
        return iommu_.resolveDma(qp.pasid(), cmd.dmaIova, cmd.len,
                                 deviceWrites, &qp.dmaMemo_);
    if (cmd.hostBuf.size() >= cmd.len)
        return cmd.hostBuf.subspan(0, cmd.len);
    return std::nullopt;
}

void
NvmeDevice::finish(QueuePair &qp, Completion comp)
{
    comp.qid = qp.qid();
    if (trace_ && trace_->wants(obs::Level::Layers)) {
        // Full device-side command lifetime: SQ fetch through CQ post.
        trace_->span(
            trace_->track("nvme.q", qp.qid()), "nvme.cmd", comp.trace,
            comp.submitTime, comp.completeTime,
            {{"xlate_ns", static_cast<std::int64_t>(comp.translateNs)},
             {"status", static_cast<std::int64_t>(comp.status)}});
    }
    qp.inflight_--;
    qp.completedOps_++;
    sim::panicIf(comp.cid >= qp.slots_.size() || !qp.slots_[comp.cid],
                 "completion for unknown command id");
    // Take the callback out and free its slot before it runs: it may
    // submit, and a submit may grow (and so move) the slot table.
    CompletionFn fn = std::move(qp.slots_[comp.cid]);
    qp.freeSlots_.push_back(static_cast<std::uint32_t>(comp.cid));
    fn(comp);
    // Occupancy changed; more SQ entries may now be admissible.
    tryDispatch();
}

std::uint32_t
NvmeDevice::allocJob()
{
    if (freeJobs_.empty()) {
        jobs_.emplace_back();
        return static_cast<std::uint32_t>(jobs_.size() - 1);
    }
    const std::uint32_t idx = freeJobs_.back();
    freeJobs_.pop_back();
    return idx;
}

void
NvmeDevice::startMedia()
{
    while (busyUnits_ < profile_.units && !mediaQueue_.empty()) {
        const std::uint32_t idx = mediaQueue_.front();
        mediaQueue_.pop_front();
        MediaJob &job = jobs_[idx];
        busyUnits_++;
        mediaOps_++;

        // Health models: a deterministic every-Nth media failure and a
        // constant latency penalty once the device has worn past its
        // threshold. Disabled (the default) both are exact no-ops.
        if (profile_.mediaErrorEvery != 0
            && mediaOps_ % profile_.mediaErrorEvery == 0) {
            job.mediaError = true;
            job.comp.status = Status::MediaError;
        }

        const double bw = (job.op == Op::Read)
                              ? profile_.readBwBytesPerNs
                              : profile_.writeBwBytesPerNs;
        const Time xfer
            = static_cast<Time>(static_cast<double>(job.len) / bw);
        const Time serviceStart = std::max(eq_.now(), linkFreeAt_);
        linkFreeAt_ = serviceStart + xfer;
        Time done = serviceStart + mediaTime(job.op, job.len) + xfer;
        if (profile_.degradeAfterOps != 0
            && mediaOps_ > profile_.degradeAfterOps)
            done += profile_.degradeLatencyNs;
        done = std::max(done, job.minDone);
        job.mediaStart = serviceStart;
        if (job.op == Op::Write) {
            job.qp->lastWriteDone_
                = std::max(job.qp->lastWriteDone_, done);
        }

        eq_.schedule(done, [this, idx]() { mediaDone(idx); });
    }
}

void
NvmeDevice::mediaDone(std::uint32_t idx)
{
    MediaJob &job = jobs_[idx];
    // Functional data movement at completion time. A media error means
    // the bytes never made it to/from the media.
    std::size_t off = 0;
    for (const auto &seg : job.segs) {
        if (job.mediaError)
            break;
        if (job.op == Op::Read) {
            store_.read(seg.addr, job.host.subspan(off, seg.len));
        } else {
            store_.write(seg.addr, std::span<const std::uint8_t>(
                                       job.staged.data() + off, seg.len));
        }
        off += seg.len;
    }
    job.comp.completeTime = eq_.now();
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->span(
            trace_->track("nvme.q", job.qp->qid()), "nvme.media",
            job.comp.trace, job.mediaStart, eq_.now(),
            {{"bytes", static_cast<std::int64_t>(job.len)},
             {"write", static_cast<std::int64_t>(job.op == Op::Write)}});
    }
    // Everything below may dispatch new commands into the slab, so take
    // what finish() needs and free the entry first.
    QueuePair &qp = *job.qp;
    const Completion comp = job.comp;
    const bool mediaError = job.mediaError;
    // Keep a staging buffer for reuse only up to one block: a larger
    // one would pin the biggest write ever staged in every slab entry,
    // and the slab grows with the number of commands in flight.
    if (job.staged.capacity() > kBlockBytes)
        std::vector<std::uint8_t>().swap(job.staged);
    freeJobs_.push_back(idx);

    busyUnits_--;
    startMedia();
    if (mediaError) {
        mediaErrors_++;
        if (healthHook_)
            healthHook_(mediaErrors_);
    }
    finish(qp, comp);
}

void
NvmeDevice::process(QueuePair &qp, Command cmd)
{
    const Time submitTime = eq_.now();
    // Effective tenant: explicit command tag (kernel shared-queue
    // traffic issued on a process's behalf) or the queue owner (user
    // queues, whose PASID is the tenant by construction).
    const TenantId tenant
        = cmd.tenant != kSystemTenant ? cmd.tenant : qp.pasid();
    totalOps_++;
    if (acct_)
        acct_->dev(devId_, tenant).ssdOps++;

    if (trace_ && trace_->wants(obs::Level::Device) && cmd.enq != 0
        && submitTime > cmd.enq) {
        // Time spent queued in the SQ before round-robin arbitration
        // fetched the command.
        trace_->span(trace_->track("nvme.q", qp.qid()), "nvme.sq_wait",
                     cmd.trace, cmd.enq, submitTime);
    }

    auto fail = [&](Status st, Time extraDelay) {
        if (st == Status::TranslationFault || st == Status::PermissionFault
            || st == Status::DevIdFault) {
            translationFaults_++;
            if (acct_)
                acct_->dev(devId_, tenant).ssdTranslationFaults++;
        }
        Completion comp;
        comp.cid = cmd.cid;
        comp.status = st;
        comp.submitTime = submitTime;
        comp.trace = cmd.trace;
        eq_.after(profile_.cmdFetchNs + extraDelay,
                  [this, &qp, comp]() mutable {
                      comp.completeTime = eq_.now();
                      finish(qp, comp);
                  });
    };

    if (qp.disabled_) {
        fail(Status::InvalidCommand, 0);
        return;
    }
    if (evicted_) {
        fail(Status::DeviceEvicted, 0);
        return;
    }
    if (cmd.addrIsVba && !qp.vbaMode_) {
        fail(Status::InvalidCommand, 0);
        return;
    }
    // User (VBA-mode) queues accept only VBA-addressed data commands: a
    // raw LBA from userspace would bypass the IOMMU protection entirely.
    if (!cmd.addrIsVba && qp.vbaMode_ && cmd.op != Op::Flush) {
        fail(Status::InvalidCommand, 0);
        return;
    }

    if (cmd.op == Op::Flush) {
        // Flush completes after prior writes on this queue have drained.
        const Time base = eq_.now() + profile_.cmdFetchNs;
        const Time done
            = std::max(base, qp.lastWriteDone_) + profile_.flushNs;
        Completion comp;
        comp.cid = cmd.cid;
        comp.status = Status::Success;
        comp.submitTime = submitTime;
        comp.trace = cmd.trace;
        eq_.schedule(done, [this, &qp, comp]() mutable {
            comp.completeTime = eq_.now();
            finish(qp, comp);
        });
        return;
    }

    if (cmd.len == 0 || cmd.len % kSectorBytes != 0) {
        fail(Status::InvalidCommand, 0);
        return;
    }

    // Resolve the device-side extents (functionally now; the latency is
    // charged on the command's own timeline below) into the reused
    // translation scratch.
    std::vector<iommu::TransSeg> &segs = xlate_.segs;
    Time translateNs = 0;
    if (cmd.addrIsVba) {
        const bool devTrace = trace_ && trace_->wants(obs::Level::Device);
        const std::uint64_t wcMiss0
            = devTrace ? iommu_.walkCache().misses() : 0;
        iommu_.translateVbaInto(qp.pasid(), cmd.addr, cmd.len,
                                cmd.op == Op::Write, devId_, xlate_);
        const iommu::TransResult &tr = xlate_;
        translateNs = tr.latency;
        if (devTrace) {
            // ATS request goes out once the command is fetched; for
            // writes it overlaps the data-in transfer (Section 4.3).
            const Time ats = submitTime + profile_.cmdFetchNs;
            trace_->span(
                trace_->track("nvme.q", qp.qid()), "iommu.ats_translate",
                cmd.trace, ats, ats + tr.latency,
                {{"pages", static_cast<std::int64_t>(tr.pages)},
                 {"frames_read",
                  static_cast<std::int64_t>(tr.framesRead)},
                 {"wc_miss", static_cast<std::int64_t>(
                                 iommu_.walkCache().misses() - wcMiss0)},
                 {"fault", static_cast<std::int64_t>(!tr.ok)}});
        }
        if (!tr.ok) {
            fail(statusFromFault(tr.fault), tr.latency);
            return;
        }
    } else {
        if (cmd.addr + cmd.len > store_.capacity()) {
            fail(Status::OutOfRange, 0);
            return;
        }
        segs.clear();
        segs.push_back(iommu::TransSeg{cmd.addr, cmd.len});
    }

    // VF partition window (Section 5.2): offset every address into the
    // partition and reject anything escaping it — block-level isolation
    // between VMs enforced by the device, independent of page tables.
    if (qp.partitionBytes() != 0) {
        for (auto &seg : segs) {
            const DevAddr translated = seg.addr + qp.partitionBase();
            if (seg.addr + seg.len > qp.partitionBytes()
                || translated + seg.len
                       > qp.partitionBase() + qp.partitionBytes()) {
                fail(Status::OutOfRange, translateNs);
                return;
            }
            seg.addr = translated;
        }
    }

    // Resolve the host DMA target.
    const bool deviceWrites = (cmd.op == Op::Read);
    auto span = hostSpan(qp, cmd, deviceWrites);
    if (!span) {
        fail(Status::DmaFault, translateNs);
        return;
    }

    if (cmd.op == Op::Read)
        readBytes_ += cmd.len;
    else
        writeBytes_ += cmd.len;
    if (acct_) {
        obs::TenantCounters &tc = acct_->dev(devId_, tenant);
        if (cmd.op == Op::Read)
            tc.ssdReadBytes += cmd.len;
        else
            tc.ssdWriteBytes += cmd.len;
    }

    const std::uint32_t idx = allocJob();
    MediaJob &job = jobs_[idx];
    job.qp = &qp;
    job.op = cmd.op;
    job.len = cmd.len;
    job.segs.swap(segs);
    job.host = *span;
    // Writes: data-in DMA overlaps translation (no VBA penalty); snapshot
    // the host buffer now ("copied into device memory first").
    if (cmd.op == Op::Write)
        job.staged.assign(span->begin(), span->end());
    job.comp = Completion{};
    job.comp.cid = cmd.cid;
    job.comp.status = Status::Success;
    job.comp.submitTime = submitTime;
    job.comp.translateNs = translateNs;
    job.comp.trace = cmd.trace;
    job.minDone = 0;
    job.mediaStart = 0;
    job.mediaError = false;

    // Reads serialize the ATS translation before media access (and do
    // not occupy a media unit meanwhile); writes start media immediately
    // but cannot complete before the ATS response arrives (Section 4.3).
    if (cmd.op == Op::Read && translateNs > 0) {
        translating_++;
        eq_.after(profile_.cmdFetchNs + translateNs, [this, idx]() {
            translating_--;
            mediaQueue_.push_back(idx);
            startMedia();
            tryDispatch();
        });
    } else {
        job.minDone = submitTime + profile_.cmdFetchNs + translateNs;
        eq_.after(profile_.cmdFetchNs, [this, idx]() {
            mediaQueue_.push_back(idx);
            startMedia();
        });
    }
}

} // namespace bpd::ssd
