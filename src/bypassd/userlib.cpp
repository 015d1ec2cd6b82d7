#include "bypassd/userlib.hpp"

#include <algorithm>
#include <cstring>

#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::bypassd {

namespace {

std::uint64_t
alignDown(std::uint64_t x, std::uint64_t a)
{
    return x & ~(a - 1);
}

std::uint64_t
alignUp(std::uint64_t x, std::uint64_t a)
{
    return (x + a - 1) & ~(a - 1);
}

} // namespace

UserLib::UserLib(kern::Kernel &kernel, BypassdModule &module,
                 kern::Process &p, UserLibConfig cfg)
    : kernel_(kernel), module_(module), proc_(p), cfg_(cfg)
{
    proc_.userLib = this;
}

UserLib::~UserLib()
{
    for (auto &perSlot : queues_) {
        for (auto &q : perSlot) {
            if (q)
                module_.destroyUserQueues(proc_, *q);
        }
    }
    proc_.userLib = nullptr;
}

UserQueues &
UserLib::uq(Tid tid, std::size_t slot)
{
    if (tid >= queues_.size())
        queues_.resize(std::size_t{tid} + 1);
    auto &perSlot = queues_[tid];
    if (slot >= perSlot.size())
        perSlot.resize(slot + 1);
    std::unique_ptr<UserQueues> &q = perSlot[slot];
    if (!q) {
        q = module_.createUserQueues(proc_, cfg_.queueDepth,
                                     cfg_.dmaBufBytes, slot);
        sim::panicIf(q == nullptr,
                     "user queue creation failed (device claimed?)");
    }
    return *q;
}

void
UserLib::prepareThread(Tid tid, std::size_t slot)
{
    uq(tid, slot);
}

UserLib::FileInfo *
UserLib::info(int fd)
{
    return fd >= 0 && static_cast<std::size_t>(fd) < files_.size()
               ? files_[fd].get()
               : nullptr;
}

const UserLib::FileInfo *
UserLib::info(int fd) const
{
    return fd >= 0 && static_cast<std::size_t>(fd) < files_.size()
               ? files_[fd].get()
               : nullptr;
}

std::uint64_t
UserLib::fileSize(int fd) const
{
    const FileInfo *fi = info(fd);
    return fi ? fi->size : 0;
}

bool
UserLib::isDirect(int fd) const
{
    const FileInfo *fi = info(fd);
    return fi && fi->direct;
}

void
UserLib::open(const std::string &path, std::uint32_t flags,
              std::uint16_t mode, kern::IntCb cb)
{
    // Forward to the kernel, then fmap() to set up direct access
    // (Table 3). The intent flag keeps this open from counting as a
    // kernel-interface open in the sharing policy.
    kernel_.sysOpen(
        proc_, path, flags | kern::kOpenBypassdIntent, mode,
        [this, flags, cb = std::move(cb)](int fd) {
            if (fd < 0) {
                cb(fd);
                return;
            }
            kern::OpenFile *of = proc_.file(fd);
            FmapResult res = module_.fmap(proc_, of->ino,
                                          (flags & fs::kOpenWrite) != 0);
            kernel_.eq().after(res.cost, [this, fd, flags, of, res,
                                          cb = std::move(cb)]() {
                FileInfo fi;
                fi.ino = of->ino;
                fi.flags = flags;
                const fs::Inode *node
                    = kernel_.vfs().fs().inode(of->ino);
                fi.size = node ? node->size : 0;
                fi.vba = res.vba;
                fi.slot = res.slot;
                fi.direct = res.vba != 0;
                fi.preallocEnd = fi.size;
                if (static_cast<std::size_t>(fd) >= files_.size())
                    files_.resize(static_cast<std::size_t>(fd) + 1);
                files_[fd] = std::make_unique<FileInfo>(std::move(fi));
                cb(fd);
            });
        });
}

void
UserLib::close(int fd, kern::IntCb cb)
{
    FileInfo *fi = info(fd);
    if (fi) {
        module_.funmap(proc_, fi->ino);
        files_[fd].reset();
    }
    kernel_.sysClose(proc_, fd, std::move(cb));
}

void
UserLib::read(Tid tid, int fd, std::span<std::uint8_t> buf, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    const std::uint64_t off = fi ? fi->offset : 0;
    pread(tid, fd, buf, off,
          [this, fd, cb = std::move(cb)](long long n, kern::IoTrace tr) {
              if (n > 0) {
                  if (FileInfo *f = info(fd))
                      f->offset += static_cast<std::uint64_t>(n);
              }
              cb(n, tr);
          });
}

void
UserLib::write(Tid tid, int fd, std::span<const std::uint8_t> buf,
               kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    const std::uint64_t off = fi ? fi->offset : 0;
    pwrite(tid, fd, buf, off,
           [this, fd, cb = std::move(cb)](long long n, kern::IoTrace tr) {
               if (n > 0) {
                   if (FileInfo *f = info(fd))
                       f->offset += static_cast<std::uint64_t>(n);
               }
               cb(n, tr);
           });
}

void
UserLib::pread(Tid tid, int fd, std::span<std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi || !(fi->flags & fs::kOpenRead)) {
        failInval(kern::Request(std::move(cb), proc_.pasid()));
        return;
    }
    preadResume(tid, fd, buf, off,
                kern::openRequest(kernel_.tracer(), proc_.pasid(),
                                  "bypassd.pread", "bypassd.p", proc_.pid(),
                                  std::move(cb)));
}

void
UserLib::failInval(kern::Request req)
{
    kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                       [req = std::move(req)]() mutable {
                           req.finish(kern::errOf(fs::FsStatus::Inval),
                                      kern::IoTrace{});
                       });
}

void
UserLib::preadResume(Tid tid, int fd, std::span<std::uint8_t> buf,
                     std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        failInval(std::move(req));
        return;
    }
    if (!fi->direct) {
        fallbackOps_++;
        kernel_.sysPread(proc_, fd, buf, off, std::move(req));
        return;
    }
    // Non-blocking-write mode: reads must observe buffered writes.
    if (cfg_.nonBlockingWrites
        && consultPendingWrites(tid, fd, buf, off, req)) {
        return;
    }
    directRead(tid, fd, buf, off, std::move(req));
}

void
UserLib::pwrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi || !(fi->flags & fs::kOpenWrite)) {
        failInval(kern::Request(std::move(cb), proc_.pasid()));
        return;
    }
    pwriteResume(tid, fd, buf, off,
                 kern::openRequest(kernel_.tracer(), proc_.pasid(),
                                   "bypassd.pwrite", "bypassd.p",
                                   proc_.pid(), std::move(cb)));
}

void
UserLib::pwriteResume(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        failInval(std::move(req));
        return;
    }
    if (!fi->direct) {
        fallbackOps_++;
        kernel_.sysPwrite(proc_, fd, buf, off, std::move(req));
        return;
    }
    if (off + buf.size() > fi->size) {
        appendWrite(tid, fd, buf, off, std::move(req));
        return;
    }
    const bool partial = (off % kSectorBytes) != 0
                         || (buf.size() % kSectorBytes) != 0;
    if (partial)
        partialWrite(tid, fd, buf, off, std::move(req));
    else if (cfg_.nonBlockingWrites)
        nonBlockingWrite(tid, fd, buf, off, std::move(req));
    else
        directOverwrite(tid, fd, buf, off, std::move(req));
}

void
UserLib::nonBlockingWrite(Tid tid, int fd,
                          std::span<const std::uint8_t> buf,
                          std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    const std::uint64_t end = off + buf.size();

    // Overlapping an in-flight non-blocking write: serialize behind it
    // (per-inode range tracking, Section 5.1 / CrossFS).
    for (auto &[poff, pw] : fi->pendingWrites) {
        const std::uint64_t pend = poff + pw->data.size();
        if (off < pend && poff < end) {
            auto data = std::make_shared<std::vector<std::uint8_t>>(
                buf.begin(), buf.end());
            pw->waiters.push_back([this, tid, fd, data, off,
                                   req = std::move(req)]() mutable {
                nonBlockingWrite(
                    tid, fd,
                    std::span<const std::uint8_t>(data->data(),
                                                  data->size()),
                    off, std::move(req));
            });
            return;
        }
    }

    nbWrites_++;
    directWrites_++;
    auto pw = std::make_shared<FileInfo::PendingWrite>();
    pw->off = off;
    pw->data.assign(buf.begin(), buf.end());
    fi->pendingWrites[off] = pw;

    // The device write keeps the request's trace id; it completes once
    // the data is on the device, waking readers and fsync() drains.
    kern::Request behind = req.child([this, fd, pw](long long,
                                                    kern::IoTrace) {
        FileInfo *fi2 = info(fd);
        if (fi2) {
            fi2->pendingWrites.erase(pw->off);
            for (auto &w : pw->waiters)
                w();
            if (fi2->pendingWrites.empty()) {
                auto drains = std::move(fi2->drainWaiters);
                fi2->drainWaiters.clear();
                for (auto &d : drains)
                    d();
            }
        } else {
            for (auto &w : pw->waiters)
                w();
        }
    });

    // The caller sees completion right after the buffer copy.
    const kern::CostModel &c = kernel_.costs();
    const Time ackCost = kernel_.cpu().scaled(c.userlibSubmitNs
                                              + c.copyCost(buf.size()));
    const Time start = kernel_.eq().now();
    kernel_.eq().after(ackCost, [start, n = buf.size(), this,
                                 req = std::move(req)]() mutable {
        kern::IoTrace tr;
        tr.userNs = kernel_.eq().now() - start;
        req.finish(static_cast<long long>(n), tr);
    });

    // Background device write from the pending buffer (its own pinned
    // staging area, so per-thread DMA buffers stay free for reads).
    writeBehind(tid, fd, std::move(pw), std::move(behind));
}

bool
UserLib::consultPendingWrites(Tid tid, int fd,
                              std::span<std::uint8_t> buf,
                              std::uint64_t off, kern::Request &req)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingWrites.empty())
        return false;
    const std::uint64_t n
        = off >= fi->size
              ? 0
              : std::min<std::uint64_t>(buf.size(), fi->size - off);
    if (n == 0)
        return false;
    const std::uint64_t end = off + n;

    std::vector<std::shared_ptr<FileInfo::PendingWrite>> overlaps;
    for (auto &[poff, pw] : fi->pendingWrites) {
        if (off < poff + pw->data.size() && poff < end)
            overlaps.push_back(pw);
    }
    if (overlaps.empty())
        return false;

    // Fully covered by one buffered write: serve from memory.
    if (overlaps.size() == 1) {
        auto &pw = overlaps[0];
        if (pw->off <= off && off + n <= pw->off + pw->data.size()) {
            pendingReadHits_++;
            const kern::CostModel &c = kernel_.costs();
            const Time cost = kernel_.cpu().scaled(c.userlibSubmitNs
                                                   + c.copyCost(n));
            const Time start = kernel_.eq().now();
            std::memcpy(buf.data(), pw->data.data() + (off - pw->off),
                        n);
            kernel_.eq().after(cost, [start, n, this,
                                      req = std::move(req)]() mutable {
                kern::IoTrace tr;
                tr.userNs = kernel_.eq().now() - start;
                req.finish(static_cast<long long>(n), tr);
            });
            return true;
        }
    }

    // Partial overlap: wait for the overlapping writes to reach the
    // device, then read normally (the device is the point of coherence).
    struct Wait
    {
        std::size_t remaining;
        kern::Request req;
    };
    auto wait = std::make_shared<Wait>(Wait{overlaps.size(), std::move(req)});
    for (auto &pw : overlaps) {
        pw->waiters.push_back([this, tid, fd, buf, off, wait]() {
            if (--wait->remaining == 0)
                preadResume(tid, fd, buf, off, std::move(wait->req));
        });
    }
    return true;
}

void
UserLib::drainPendingWrites(int fd, std::function<void()> done)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingWrites.empty()) {
        done();
        return;
    }
    fi->drainWaiters.push_back(std::move(done));
}

void
UserLib::submitWithRetry(UserQueues &q, const ssd::Command &cmd,
                         ssd::CompletionFn &&fn)
{
    // QoS gate on the direct path: data commands charge the process's
    // token buckets exactly once (the SQ-full retry loop in submitNow
    // does not re-charge). Flushes are exempt — caps cover data
    // IOPS/bytes only.
    const bool data = cmd.op == ssd::Op::Read || cmd.op == ssd::Op::Write;
    qos::admit(data ? kernel_.qos() : nullptr, proc_.pasid(), 1, cmd.len,
               [this, q = &q, cmd, fn = std::move(fn)]() mutable {
                   submitNow(*q, cmd, std::move(fn));
               });
}

void
UserLib::submitNow(UserQueues &q, const ssd::Command &cmd,
                   ssd::CompletionFn &&fn)
{
    if (q.qp->submit(cmd, std::move(fn)))
        return;
    // SQ full: the refused submit left fn intact; poll and retry shortly.
    kernel_.eq().after(500, [this, q = &q, cmd,
                             fn = std::move(fn)]() mutable {
        submitNow(*q, cmd, std::move(fn));
    });
}

template <typename Resume>
void
UserLib::handleFault(int fd, kern::Request req, Resume resume)
{
    iommuFaults_++;
    if (obs::Tracer *t = kernel_.tracer())
        t->instant(t->track("bypassd.p", proc_.pid()),
                   "bypassd.iommu_fault", req.trace());
    FileInfo *fi = info(fd);
    if (!fi) {
        resume(std::move(req), false);
        return;
    }
    // Section 3.6 steps 3-5: re-fmap(); VBA 0 means the kernel refuses
    // direct access, so use the kernel interface from now on.
    FmapResult res = module_.fmap(proc_, fi->ino,
                                  (fi->flags & fs::kOpenWrite) != 0);
    kernel_.eq().after(res.cost, [this, fd, vba = res.vba, slot = res.slot,
                                  req = std::move(req),
                                  resume = std::move(resume)]() mutable {
        FileInfo *fi = info(fd);
        if (!fi) {
            resume(std::move(req), false);
            return;
        }
        if (vba != 0) {
            fi->vba = vba;
            fi->slot = slot;
            fi->direct = true;
            resume(std::move(req), true);
        } else {
            fi->direct = false;
            fi->vba = 0;
            fallbackOps_++;
            resume(std::move(req), false);
        }
    });
}

void
UserLib::writeBehind(Tid tid, int fd,
                     std::shared_ptr<FileInfo::PendingWrite> pw,
                     kern::Request req)
{
    FileInfo *fi = info(fd);
    if (!fi || !fi->direct) {
        // Revoked or closed: write back through the kernel.
        kernel_.sysPwrite(proc_, fd,
                          std::span<const std::uint8_t>(pw->data.data(),
                                                        pw->data.size()),
                          pw->off, std::move(req));
        return;
    }
    ssd::Command cmd;
    cmd.op = ssd::Op::Write;
    cmd.addr = fi->vba + pw->off;
    cmd.addrIsVba = true;
    cmd.len = static_cast<std::uint32_t>(pw->data.size());
    cmd.hostBuf = std::span<std::uint8_t>(pw->data.data(), pw->data.size());
    cmd.trace = req.trace();
    submitWithRetry(uq(tid, fi->slot), cmd,
                    [this, tid, fd, pw, req = std::move(req)](
                        const ssd::Completion &comp) mutable {
        if (comp.status != ssd::Status::Success) {
            // Retry direct or through the kernel; writeBehind re-checks.
            handleFault(fd, std::move(req),
                        [this, tid, fd, pw](kern::Request r, bool) {
                            writeBehind(tid, fd, pw, std::move(r));
                        });
            return;
        }
        req.finish(static_cast<long long>(pw->data.size()), kern::IoTrace{});
    });
}

void
UserLib::directRead(Tid tid, int fd, std::span<std::uint8_t> buf,
                    std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    const Time start = kernel_.eq().now();
    const kern::CostModel &c = kernel_.costs();

    // The locally tracked size can go stale when another process
    // appends (Section 4.5.2 allows shared reads/overwrites). When a
    // read would clip at the cached EOF, revalidate with an fstat-style
    // kernel query before deciding.
    if (off + buf.size() > fi->size) {
        const fs::Inode *node = kernel_.vfs().fs().inode(fi->ino);
        if (node && node->size > fi->size) {
            fi->size = node->size;
            fi->preallocEnd = std::max(fi->preallocEnd, fi->size);
            const Time statCost = kernel_.cpu().scaled(
                c.userToKernelNs + 500 + c.kernelToUserNs);
            kernel_.eq().after(statCost,
                               [this, tid, fd, buf, off,
                                req = std::move(req)]() mutable {
                                   directRead(tid, fd, buf, off,
                                              std::move(req));
                               });
            return;
        }
    }

    const std::uint64_t n
        = off >= fi->size
              ? 0
              : std::min<std::uint64_t>(buf.size(), fi->size - off);
    if (n == 0) {
        kernel_.eq().after(kernel_.cpu().scaled(c.userlibSubmitNs),
                           [req = std::move(req)]() mutable {
                               req.finish(0, kern::IoTrace{});
                           });
        return;
    }

    const std::uint64_t aStart = alignDown(off, kSectorBytes);
    const std::uint64_t aEnd = alignUp(off + n, kSectorBytes);
    const std::uint32_t len = static_cast<std::uint32_t>(aEnd - aStart);
    // One queue lookup per attempt: the stages below keep the queue.
    UserQueues *q = &uq(tid, fi->slot);
    sim::panicIf(len > q->dmaBuf.size(), "request exceeds DMA buffer");

    directReads_++;
    // Each stage moves the request on (the lambdas are mutable, or
    // std::move(req) would not compile).
    const Time submitCost = kernel_.cpu().scaled(c.userlibSubmitNs);
    kernel_.eq().after(submitCost, [this, tid, fd, buf, off, n, aStart,
                                    len, q, start,
                                    req = std::move(req)]() mutable {
        FileInfo *fi = info(fd);
        if (!fi) {
            req.finish(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
            return;
        }
        ssd::Command cmd;
        cmd.op = ssd::Op::Read;
        cmd.addr = fi->vba + aStart;
        cmd.addrIsVba = true;
        cmd.len = len;
        cmd.dmaIova = q->dmaIova;
        cmd.useIova = true;
        cmd.trace = req.trace();
        const Time tSubmit = kernel_.eq().now();
        submitWithRetry(*q, cmd,
                        [this, tid, fd, buf, off, n, aStart, q, start,
                         tSubmit, req = std::move(req)](
                            const ssd::Completion &comp) mutable {
            if (comp.status != ssd::Status::Success) {
                handleFault(fd, std::move(req),
                            [this, tid, fd, buf, off](kern::Request r,
                                                      bool direct) {
                                if (direct)
                                    directRead(tid, fd, buf, off,
                                               std::move(r));
                                else
                                    kernel_.sysPread(proc_, fd, buf, off,
                                                     std::move(r));
                            });
                return;
            }
            // Copy from the DMA buffer into the user buffer (the main
            // user-side cost, Fig. 7).
            const kern::CostModel &c = kernel_.costs();
            const Time post = kernel_.cpu().scaled(c.userlibCompleteNs
                                                   + c.copyCost(n));
            std::memcpy(buf.data(), q->dmaBuf.data() + (off - aStart),
                        n);
            // touch() is deferred to close/fsync (Section 4.4); nothing
            // to do per-op.
            kernel_.eq().after(post, [this, n, start, tSubmit, comp,
                                      req = std::move(req)]() mutable {
                kern::IoTrace tr;
                const Time total = kernel_.eq().now() - start;
                tr.translateNs = comp.translateNs;
                tr.deviceNs = comp.completeTime - tSubmit
                              - comp.translateNs;
                tr.userNs = total - tr.deviceNs - tr.translateNs;
                req.finish(static_cast<long long>(n), tr);
            });
        });
    });
}

void
UserLib::directOverwrite(Tid tid, int fd,
                         std::span<const std::uint8_t> buf,
                         std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    const Time start = kernel_.eq().now();
    const std::uint64_t n = buf.size();
    const kern::CostModel &c = kernel_.costs();
    UserQueues *q = &uq(tid, fi->slot);
    sim::panicIf(n > q->dmaBuf.size(), "request exceeds DMA buffer");

    directWrites_++;
    // Copy user data into the pinned DMA buffer, then submit.
    const Time submitCost
        = kernel_.cpu().scaled(c.userlibSubmitNs + c.copyCost(n));
    std::memcpy(q->dmaBuf.data(), buf.data(), n);
    kernel_.eq().after(submitCost, [this, tid, fd, buf, off, n, q, start,
                                    req = std::move(req)]() mutable {
        FileInfo *fi = info(fd);
        if (!fi) {
            req.finish(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
            return;
        }
        ssd::Command cmd;
        cmd.op = ssd::Op::Write;
        cmd.addr = fi->vba + off;
        cmd.addrIsVba = true;
        cmd.len = static_cast<std::uint32_t>(n);
        cmd.dmaIova = q->dmaIova;
        cmd.useIova = true;
        cmd.trace = req.trace();
        const Time tSubmit = kernel_.eq().now();
        submitWithRetry(*q, cmd,
                        [this, tid, fd, buf, off, n, start, tSubmit,
                         req = std::move(req)](
                            const ssd::Completion &comp) mutable {
            if (comp.status != ssd::Status::Success) {
                handleFault(fd, std::move(req),
                            [this, tid, fd, buf, off](kern::Request r,
                                                      bool direct) {
                                if (direct)
                                    directOverwrite(tid, fd, buf, off,
                                                    std::move(r));
                                else
                                    kernel_.sysPwrite(proc_, fd, buf, off,
                                                      std::move(r));
                            });
                return;
            }
            const Time post
                = kernel_.cpu().scaled(kernel_.costs().userlibCompleteNs);
            kernel_.eq().after(post, [this, n, start, tSubmit, comp,
                                      req = std::move(req)]() mutable {
                kern::IoTrace tr;
                const Time total = kernel_.eq().now() - start;
                // Writes overlap translation with data-in (Section 4.3).
                tr.translateNs = 0;
                tr.deviceNs = comp.completeTime - tSubmit;
                tr.userNs = total - tr.deviceNs;
                req.finish(static_cast<long long>(n), tr);
            });
        });
    });
}

void
UserLib::partialWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    const std::uint64_t firstSec = off / kSectorBytes;
    const std::uint64_t lastSec = (off + buf.size() - 1) / kSectorBytes;

    // Serialize overlapping partial writes (Section 4.5.1).
    for (std::uint64_t s = firstSec; s <= lastSec; s++) {
        if (fi->inflightSectors.count(s)) {
            partialSerialized_++;
            FileInfo::PendingPartial pw;
            pw.tid = tid;
            pw.fd = fd;
            pw.data.assign(buf.begin(), buf.end());
            pw.off = off;
            pw.req = std::move(req);
            fi->pendingPartials.push_back(std::move(pw));
            return;
        }
    }
    for (std::uint64_t s = firstSec; s <= lastSec; s++)
        fi->inflightSectors.insert(s);

    // Read-modify-write of the aligned sector range.
    const std::uint64_t aStart = firstSec * kSectorBytes;
    const std::uint64_t aEnd = (lastSec + 1) * kSectorBytes;
    const std::uint32_t len = static_cast<std::uint32_t>(aEnd - aStart);
    UserQueues *q = &uq(tid, fi->slot);
    sim::panicIf(len > q->dmaBuf.size(), "RMW exceeds DMA buffer");

    auto data = std::make_shared<std::vector<std::uint8_t>>(buf.begin(),
                                                            buf.end());
    // However the write completes, its sectors are released, then the
    // caller sees it, then a serialized partial may go. The stage also
    // keeps `data` alive: the kernel-fallback paths hand sysPwrite a
    // span into it that is used asynchronously.
    req.intercept([this, fd, firstSec, lastSec,
                   data](long long n, kern::IoTrace tr, kern::Request up) {
        if (FileInfo *fi2 = info(fd)) {
            for (std::uint64_t s = firstSec; s <= lastSec; s++)
                fi2->inflightSectors.erase(s);
        }
        up.finish(n, tr);
        drainPendingPartials(fd);
    });
    // The whole write through the kernel: the fallback when access is
    // gone, and the retry after a fault in either RMW phase (a fresh
    // direct RMW would have to re-enter the sector serialization).
    auto viaKernel = [this, fd, data, off](kern::Request r, bool) {
        kernel_.sysPwrite(
            proc_, fd,
            std::span<const std::uint8_t>(data->data(), data->size()), off,
            std::move(r));
    };

    const Time start = kernel_.eq().now();
    const Time submitCost
        = kernel_.cpu().scaled(kernel_.costs().userlibSubmitNs);
    directWrites_++;
    kernel_.eq().after(submitCost, [this, fd, data, off, aStart, len, q,
                                    start, viaKernel,
                                    req = std::move(req)]() mutable {
        FileInfo *fi2 = info(fd);
        if (!fi2 || !fi2->direct) {
            // Revoked meanwhile: fall back through the kernel.
            viaKernel(std::move(req), false);
            return;
        }
        ssd::Command rd;
        rd.op = ssd::Op::Read;
        rd.addr = fi2->vba + aStart;
        rd.addrIsVba = true;
        rd.len = len;
        rd.dmaIova = q->dmaIova;
        rd.useIova = true;
        rd.trace = req.trace();
        submitWithRetry(*q, rd,
                        [this, fd, data, off, aStart, len, q, start,
                         viaKernel, req = std::move(req)](
                            const ssd::Completion &comp) mutable {
            if (comp.status != ssd::Status::Success) {
                handleFault(fd, std::move(req), viaKernel);
                return;
            }
            FileInfo *fi3 = info(fd);
            if (!fi3) {
                req.finish(kern::errOf(fs::FsStatus::Inval),
                           kern::IoTrace{});
                return;
            }
            // Modify the staged sectors with the user bytes.
            std::memcpy(q->dmaBuf.data() + (off - aStart), data->data(),
                        data->size());
            const Time modCost = kernel_.cpu().scaled(
                kernel_.costs().copyCost(data->size()));
            kernel_.eq().after(modCost, [this, fd, data, aStart, len, q,
                                         start, viaKernel,
                                         req = std::move(req)]() mutable {
                FileInfo *fi4 = info(fd);
                if (!fi4) {
                    req.finish(kern::errOf(fs::FsStatus::Inval),
                               kern::IoTrace{});
                    return;
                }
                ssd::Command wr;
                wr.op = ssd::Op::Write;
                wr.addr = fi4->vba + aStart;
                wr.addrIsVba = true;
                wr.len = len;
                wr.dmaIova = q->dmaIova;
                wr.useIova = true;
                wr.trace = req.trace();
                submitWithRetry(*q, wr,
                                [this, fd, data, start, viaKernel,
                                 req = std::move(req)](
                                    const ssd::Completion &c2) mutable {
                    if (c2.status != ssd::Status::Success) {
                        handleFault(fd, std::move(req), viaKernel);
                        return;
                    }
                    kern::IoTrace tr;
                    tr.userNs = kernel_.costs().userlibCompleteNs;
                    tr.deviceNs = kernel_.eq().now() - start;
                    req.finish(static_cast<long long>(data->size()), tr);
                });
            });
        });
    });
}

void
UserLib::drainPendingPartials(int fd)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingPartials.empty())
        return;
    // Re-dispatch the first pending write whose sectors are now free.
    for (auto it = fi->pendingPartials.begin();
         it != fi->pendingPartials.end(); ++it) {
        const std::uint64_t firstSec = it->off / kSectorBytes;
        const std::uint64_t lastSec
            = (it->off + it->data.size() - 1) / kSectorBytes;
        bool blocked = false;
        for (std::uint64_t s = firstSec; s <= lastSec; s++) {
            if (fi->inflightSectors.count(s)) {
                blocked = true;
                break;
            }
        }
        if (blocked)
            continue;
        FileInfo::PendingPartial pw = std::move(*it);
        fi->pendingPartials.erase(it);
        auto data = std::make_shared<std::vector<std::uint8_t>>(
            std::move(pw.data));
        // The data must outlive the write: a kernel path keeps its span.
        pw.req.intercept([data](long long n, kern::IoTrace tr,
                                kern::Request up) { up.finish(n, tr); });
        pwriteResume(
            pw.tid, pw.fd,
            std::span<const std::uint8_t>(data->data(), data->size()),
            pw.off, std::move(pw.req));
        return;
    }
}

void
UserLib::appendWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                     std::uint64_t off, kern::Request req)
{
    FileInfo *fi = info(fd);
    appendsRouted_++;

    if (cfg_.optimizedAppend) {
        // Section 5.1: pre-allocate with fallocate(), then issue the
        // append as a direct overwrite into the pre-allocated blocks.
        if (off + buf.size() <= fi->preallocEnd) {
            fi->size = std::max(fi->size, off + buf.size());
            if ((off % kSectorBytes) != 0
                || (buf.size() % kSectorBytes) != 0)
                partialWrite(tid, fd, buf, off, std::move(req));
            else
                directOverwrite(tid, fd, buf, off, std::move(req));
            return;
        }
        const std::uint64_t chunk = std::max<std::uint64_t>(
            cfg_.appendPreallocBytes, buf.size());
        // IntCb is copyable, so the request waits in a shared holder.
        auto held = std::make_shared<kern::Request>(std::move(req));
        kernel_.sysFallocate(
            proc_, fd, fi->preallocEnd, chunk,
            [this, tid, fd, buf, off, chunk, held](int rc) {
                FileInfo *fi2 = info(fd);
                if (rc < 0 || !fi2) {
                    held->finish(rc, kern::IoTrace{});
                    return;
                }
                fi2->preallocEnd += chunk;
                // fallocate extended the inode size; keep padding
                // invisible by tracking the logical size locally.
                appendWrite(tid, fd, buf, off, std::move(*held));
            });
        return;
    }

    // Default: route the append through the kernel (Table 3); the kernel
    // allocates blocks, attaches new FTEs and writes unbuffered.
    fs::Inode *node = kernel_.vfs().fs().inode(fi->ino);
    sim::panicIf(node == nullptr, "append on dead inode");
    req.intercept([this, fd](long long n, kern::IoTrace tr,
                             kern::Request up) {
        FileInfo *fi2 = info(fd);
        if (fi2 && n > 0) {
            const fs::Inode *node2 = kernel_.vfs().fs().inode(fi2->ino);
            if (node2)
                fi2->size = node2->size;
            fi2->preallocEnd = std::max(fi2->preallocEnd, fi2->size);
        }
        up.finish(n, tr);
    });
    kernel_.appendPath(proc_, *node, buf, off, std::move(req));
}

void
UserLib::fsync(Tid tid, int fd, kern::IntCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval));
                           });
        return;
    }
    if (!fi->direct) {
        kernel_.sysFsync(proc_, fd, std::move(cb));
        return;
    }
    // Drain non-blocking writes, flush this thread's queue (NVMe
    // flush), then forward to the kernel for the metadata flush
    // (Table 3 / Section 5.1).
    const std::size_t slot = fi->slot;
    drainPendingWrites(fd, [this, tid, fd, slot, cb = std::move(cb)]() {
        ssd::Command cmd;
        cmd.op = ssd::Op::Flush;
        cmd.addrIsVba = false;
        submitWithRetry(uq(tid, slot), cmd,
                        [this, fd, cb](const ssd::Completion &) {
            kernel_.sysFsync(proc_, fd, cb);
        });
    });
}

void
UserLib::fallocate(int fd, std::uint64_t off, std::uint64_t len,
                   kern::IntCb cb)
{
    kernel_.sysFallocate(proc_, fd, off, len,
                         [this, fd, cb = std::move(cb)](int rc) {
                             FileInfo *fi = info(fd);
                             if (fi && rc == 0) {
                                 const fs::Inode *node
                                     = kernel_.vfs().fs().inode(fi->ino);
                                 if (node) {
                                     fi->size = node->size;
                                     fi->preallocEnd = std::max(
                                         fi->preallocEnd, fi->size);
                                 }
                             }
                             cb(rc);
                         });
}

void
UserLib::ftruncate(int fd, std::uint64_t size, kern::IntCb cb)
{
    kernel_.sysFtruncate(proc_, fd, size,
                         [this, fd, size, cb = std::move(cb)](int rc) {
                             FileInfo *fi = info(fd);
                             if (fi && rc == 0) {
                                 fi->size = size;
                                 fi->preallocEnd = std::min(
                                     fi->preallocEnd, size);
                             }
                             cb(rc);
                         });
}

} // namespace bpd::bypassd
