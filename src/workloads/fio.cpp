#include "workloads/fio.hpp"

#include <functional>
#include <map>

#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "sim/logging.hpp"

namespace bpd::wl {

const char *
toString(Engine e)
{
    switch (e) {
      case Engine::Sync: return "sync";
      case Engine::Libaio: return "libaio";
      case Engine::IoUring: return "io_uring";
      case Engine::Spdk: return "spdk";
      case Engine::Bypassd: return "bypassd";
      case Engine::Fabric: return "fabric";
    }
    return "?";
}

namespace detail {

struct JobCtx
{
    unsigned idx = 0;
    kern::Process *proc = nullptr;
    bypassd::UserLib *lib = nullptr;
    std::unique_ptr<kern::IoUring> ring;
    int fd = -1;
    DevAddr rawBase = 0; // SPDK raw region
    DevId devId = 0;     // serving device (0 = unattributed)
    std::uint32_t fileId = obs::ReplayRec::kNoFile;
    sim::Rng rng{1};
    std::uint64_t cursor = 0;
    std::vector<std::uint8_t> buf;

    sim::Histogram lat;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    sim::MeanAccumulator user, kern, dev, xlat;
    std::uint32_t inflight = 0;
    bool stopped = false;
};

/**
 * Heap-allocated state of one armed job, so in-flight I/O completions
 * (which capture `this` plus a JobCtx pointer — inside the inline
 * callback budget) stay valid while the caller drives the simulation
 * between arm() and collect().
 */
struct FioRunState
{
    sys::System &s;
    const FioJob job;
    obs::Tracer *t;
    std::uint8_t eng;
    bool write, random;

    std::vector<std::unique_ptr<JobCtx>> ctxs;
    std::unique_ptr<spdk::SpdkDriver> spdkDrv;
    Time measureStart = 0;
    Time tEnd = 0;
    std::uint64_t blocks = 0;
    unsigned running = 0;

    FioRunState(sys::System &sys, const FioJob &j)
        : s(sys), job(j), t(sys.tracer()),
          eng(static_cast<std::uint8_t>(j.engine)),
          write(j.rw == RwMode::RandWrite || j.rw == RwMode::SeqWrite),
          random(j.rw == RwMode::RandRead || j.rw == RwMode::RandWrite)
    {
    }

    // Replay-stream recording (obs/trace.hpp): every workload-level op
    // the runner issues is recorded with its lane (job index) so
    // tools/trace_replay can re-drive the exact request stream.
    void
    mark(obs::ReplayRec::Op op, JobCtx &ctx, std::uint64_t offset = 0,
         std::uint64_t aux = 0, std::int64_t result = 0)
    {
        if (!t)
            return;
        obs::ReplayRec r;
        r.op = op;
        r.engine = eng;
        r.proc = ctx.proc->pasid();
        r.tid = ctx.idx;
        r.dev = ctx.devId;
        r.file = ctx.fileId;
        r.offset = offset;
        r.aux = aux;
        t->replayMark(r, result);
    }

    void arm();
    void issue(JobCtx &ctx);
    FioResult collect();
};

void
FioRunState::arm()
{
    sim::panicIf(job.numJobs == 0, "fio: numJobs must be > 0");
    sim::panicIf(job.bs == 0 || job.bs % kSectorBytes != 0,
                 "fio: bs must be a sector multiple");

    kern::Process *shared = nullptr;

    // ---- setup (simulated time passes, excluded from measurement) ----
    for (unsigned i = 0; i < job.numJobs; i++) {
        auto ctx = std::make_unique<JobCtx>();
        ctx->idx = i;
        ctx->rng = sim::Rng(job.seed * 7919 + i);
        ctx->buf.assign(job.bs, 0);
        for (auto &b : ctx->buf)
            b = static_cast<std::uint8_t>(ctx->rng.next());

        if (job.perProcess || i == 0) {
            ctx->proc = &s.newProcess(1000 + i, 1000);
            if (!job.perProcess)
                shared = ctx->proc;
        } else {
            ctx->proc = shared;
        }

        const std::string path
            = job.filePrefix + std::to_string(i) + ".dat";
        switch (job.engine) {
          case Engine::Spdk:
            // Raw regions in the upper half of the device.
            ctx->rawBase = s.cfg.deviceBytes / 2
                           + static_cast<DevAddr>(i) * job.fileBytes;
            sim::panicIf(ctx->rawBase + job.fileBytes
                             > s.cfg.deviceBytes,
                         "fio: spdk regions exceed device");
            break;
          case Engine::Fabric: {
            sim::panicIf(job.fabric == nullptr,
                         "fio: fabric engine without an initiator");
            // Raw regions of the REMOTE device, carved by the caller.
            ctx->rawBase = job.fabricBase
                           + static_cast<DevAddr>(i) * job.fileBytes;
            const std::uint64_t remoteBytes
                = job.fabric->target().system().cfg.deviceBytes;
            sim::panicIf(ctx->rawBase + job.fileBytes > remoteBytes,
                         "fio: fabric regions exceed remote device");
            if (t)
                t->replayUnsupported(
                    "fabric remote I/O (no replay engine)");
            break;
          }
          case Engine::Bypassd: {
            if (t)
                ctx->fileId = t->replayFile(path);
            const int cfd = s.kernel.setupCreateFile(*ctx->proc, path,
                                                     job.fileBytes, 0);
            sim::panicIf(cfd < 0, "fio: file setup failed");
            mark(obs::ReplayRec::Create, *ctx, job.fileBytes, 0, cfd);
            int rc = -1;
            std::uint32_t ri = 0;
            if (t) {
                obs::ReplayRec r;
                r.op = obs::ReplayRec::Close;
                r.engine = eng;
                r.proc = ctx->proc->pasid();
                r.tid = ctx->idx;
                r.file = ctx->fileId;
                ri = t->replayBegin(r);
            }
            obs::Tracer *tr = t;
            s.kernel.sysClose(*ctx->proc, cfd, [&rc, tr, ri](int r) {
                rc = r;
                if (tr)
                    tr->replayEnd(ri, r);
            });
            s.eq.run();
            ctx->lib = &s.userLib(*ctx->proc);
            int fd = -1;
            const std::uint32_t oflags
                = fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect;
            if (t) {
                obs::ReplayRec r;
                r.op = obs::ReplayRec::Open;
                r.engine = eng;
                r.proc = ctx->proc->pasid();
                r.tid = ctx->idx;
                r.file = ctx->fileId;
                r.aux = oflags;
                ri = t->replayBegin(r);
            }
            ctx->lib->open(path, oflags, 0644, [&fd, tr, ri](int f) {
                fd = f;
                if (tr)
                    tr->replayEnd(ri, f);
            });
            s.eq.run();
            sim::panicIf(fd < 0, "fio: bypassd open failed");
            sim::panicIf(!ctx->lib->isDirect(fd),
                         "fio: bypassd fd not direct");
            ctx->fd = fd;
            ctx->devId = s.deviceOfFile(path);
            ctx->lib->prepareThread(i);
            mark(obs::ReplayRec::PrepThread, *ctx);
            break;
          }
          default: {
            if (t)
                ctx->fileId = t->replayFile(path);
            const int fd = s.kernel.setupCreateFile(*ctx->proc, path,
                                                    job.fileBytes, 0);
            sim::panicIf(fd < 0, "fio: file setup failed");
            mark(obs::ReplayRec::Create, *ctx, job.fileBytes, 0, fd);
            ctx->fd = fd;
            ctx->devId = s.deviceOfFile(path);
            if (job.engine == Engine::IoUring) {
                ctx->ring = std::make_unique<kern::IoUring>(s.kernel,
                                                            *ctx->proc);
                mark(obs::ReplayRec::Open, *ctx);
            }
            break;
          }
        }
        ctxs.push_back(std::move(ctx));
    }

    if (job.engine == Engine::Spdk) {
        spdkDrv = std::make_unique<spdk::SpdkDriver>(
            s.eq, s.dev, s.kernel.cpu(),
            ctxs[0]->proc->pasid());
        sim::panicIf(!spdkDrv->init(), "fio: spdk claim failed");
        mark(obs::ReplayRec::Open, *ctxs[0]);
    }

    if (job.engine == Engine::Fabric
        && job.fabric->state() == fab::ConnState::Idle) {
        // Async connect: the closed loops below may start issuing
        // while the capsule is in flight; the initiator queues them
        // and flushes in order on the ack.
        job.fabric->connect(ctxs[0]->proc->pasid());
    }

    // Application threads occupy CPUs while the job runs.
    s.kernel.cpu().acquire(job.numJobs);
    mark(obs::ReplayRec::CpuAcquire, *ctxs[0], job.numJobs);

    measureStart = s.now() + job.warmup;
    tEnd = measureStart + job.runtime;
    blocks = job.fileBytes / job.bs;
    sim::panicIf(blocks == 0, "fio: file smaller than block size");

    running = job.numJobs * job.iodepth;

    for (auto &ctx : ctxs) {
        for (std::uint32_t d = 0; d < job.iodepth; d++)
            issue(*ctx);
    }
}

/** Closed-loop issue function per in-flight slot. */
void
FioRunState::issue(JobCtx &ctx)
{
    if (s.now() >= tEnd) {
        running--;
        return;
    }
    std::uint64_t blkIdx;
    if (random) {
        blkIdx = ctx.rng.nextUint(blocks);
    } else {
        blkIdx = ctx.cursor++ % blocks;
    }
    const std::uint64_t off
        = blkIdx * static_cast<std::uint64_t>(job.bs);
    const Time start = s.now();
    std::uint32_t ri = 0;
    if (t) {
        obs::ReplayRec r;
        r.op = write ? obs::ReplayRec::Write : obs::ReplayRec::Read;
        r.engine = eng;
        r.lane = static_cast<std::uint16_t>(ctx.idx);
        r.proc = ctx.proc->pasid();
        r.tid = ctx.idx;
        r.dev = ctx.devId;
        r.file = ctx.fileId;
        r.offset = job.engine == Engine::Spdk
                           || job.engine == Engine::Fabric
                       ? ctx.rawBase + off
                       : off;
        r.len = job.bs;
        ri = t->replayBegin(r);
    }
    // `this` is heap-pinned until collect(); &ctx likewise. The whole
    // capture is 28 bytes — comfortably inside the inline budget.
    auto done = [this, &ctx, start, ri](long long n, kern::IoTrace tr) {
        if (t)
            t->replayEnd(ri, n);
        sim::panicIf(n < 0, "fio: I/O failed");
        const Time now = s.now();
        if (start >= measureStart && now <= tEnd) {
            ctx.lat.record(now - start);
            ctx.ops++;
            ctx.bytes += static_cast<std::uint64_t>(n);
            ctx.user.add(static_cast<double>(tr.userNs));
            ctx.kern.add(static_cast<double>(tr.kernelNs));
            ctx.dev.add(static_cast<double>(tr.deviceNs));
            ctx.xlat.add(static_cast<double>(tr.translateNs));
        }
        issue(ctx);
    };

    switch (job.engine) {
      case Engine::Sync:
        if (write) {
            s.kernel.sysPwrite(*ctx.proc, ctx.fd, ctx.buf, off,
                               done);
        } else {
            s.kernel.sysPread(*ctx.proc, ctx.fd, ctx.buf, off,
                              done);
        }
        break;
      case Engine::Libaio:
        if (write)
            s.aio.pwrite(*ctx.proc, ctx.fd, ctx.buf, off, done);
        else
            s.aio.pread(*ctx.proc, ctx.fd, ctx.buf, off, done);
        break;
      case Engine::IoUring:
        if (write)
            ctx.ring->pwrite(ctx.fd, ctx.buf, off, done);
        else
            ctx.ring->pread(ctx.fd, ctx.buf, off, done);
        break;
      case Engine::Spdk:
        if (write) {
            spdkDrv->write(ctx.idx, ctx.rawBase + off, ctx.buf,
                           done);
        } else {
            spdkDrv->read(ctx.idx, ctx.rawBase + off, ctx.buf,
                          done);
        }
        break;
      case Engine::Bypassd:
        if (write) {
            ctx.lib->pwrite(ctx.idx, ctx.fd, ctx.buf, off, done);
        } else {
            ctx.lib->pread(ctx.idx, ctx.fd, ctx.buf, off, done);
        }
        break;
      case Engine::Fabric:
        if (write) {
            job.fabric->write(ctx.idx, ctx.rawBase + off, ctx.buf,
                              done);
        } else {
            job.fabric->read(ctx.idx, ctx.rawBase + off, ctx.buf,
                             done);
        }
        break;
    }
}

FioResult
FioRunState::collect()
{
    sim::panicIf(running != 0, "fio: jobs still running after drain");

    s.kernel.cpu().release(job.numJobs);
    mark(obs::ReplayRec::CpuRelease, *ctxs[0], job.numJobs);
    if (spdkDrv) {
        mark(obs::ReplayRec::Close, *ctxs[0]);
        spdkDrv->shutdown();
    }

    // ---- aggregate ----
    FioResult res;
    res.elapsed = job.runtime;
    sim::MeanAccumulator u, k, d, x;
    for (auto &ctx : ctxs) {
        res.latency.merge(ctx->lat);
        res.ops += ctx->ops;
        res.bytes += ctx->bytes;
        if (ctx->ops) {
            u.add(ctx->user.mean());
            k.add(ctx->kern.mean());
            d.add(ctx->dev.mean());
            x.add(ctx->xlat.mean());
        }
    }
    res.avgUserNs = u.mean();
    res.avgKernelNs = k.mean();
    res.avgDeviceNs = d.mean();
    res.avgTranslateNs = x.mean();

    std::map<TenantId, FioTenantSlice> slices;
    for (auto &ctx : ctxs) {
        FioTenantSlice &ts = slices[ctx->proc->pasid()];
        ts.tenant = ctx->proc->pasid();
        ts.ops += ctx->ops;
        ts.bytes += ctx->bytes;
    }
    for (auto &[id, ts] : slices) {
        if (const obs::TenantCounters *tc
            = s.tenantAccounting().find(id)) {
            ts.fmaps = tc->bypassdColdFmaps + tc->bypassdWarmFmaps;
            ts.revocations = tc->bypassdRevokedVictims;
        }
        res.tenants.push_back(ts);
    }
    return res;
}

} // namespace detail

FioPending::FioPending() = default;
FioPending::~FioPending() = default;
FioPending::FioPending(FioPending &&) noexcept = default;
FioPending &FioPending::operator=(FioPending &&) noexcept = default;

FioPending
FioRunner::arm(const FioJob &job)
{
    FioPending p;
    p.st_ = std::make_unique<detail::FioRunState>(s_, job);
    p.st_->arm();
    return p;
}

FioResult
FioRunner::collect(FioPending p)
{
    sim::panicIf(!p.st_, "fio: collect on an empty pending job");
    return p.st_->collect();
}

FioResult
FioRunner::run(const FioJob &job)
{
    FioPending p = arm(job);
    s_.run();
    return collect(std::move(p));
}

} // namespace bpd::wl
