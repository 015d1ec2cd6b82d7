/**
 * @file
 * The three benchmark workloads. Each is a set of closed-loop jobs
 * (every slot waits for its reply before issuing again) built on one
 * System or on a fabric Fleet, with host time taken around each set-up
 * phase, the measured event loop and the teardown.
 *
 *  - randread_bypassd: 24 BypassD QD1 4 KiB random readers over
 *    24 x 256 MiB files on one System (the Fig. 9 saturation cell).
 *  - tenant_mix_qos: QD1 BypassD victims, a QD16 BypassD aggressor
 *    held by a token-bucket IOPS cap, sync-engine 16 KiB writers with
 *    periodic fsync (one buffered, re-reading), a BypassD overwriter
 *    whose appends route to the kernel, and an io_uring reader, on one
 *    QoS-enabled System.
 *  - fabric_fleet: one fabric target and three clients on the sharded
 *    executor; each client mixes fabric reads, in-capsule writes and
 *    RDMA writes with local BypassD readers.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "kern/io_uring.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "system/fleet.hpp"
#include "system/system.hpp"

namespace simbench {

using namespace bpd;

namespace {

/** Offsets a job remembers for the host-cost probes. */
constexpr std::size_t kProbeOffsets = 4096;
/** Blocks read back per writing job to check their content. */
constexpr std::size_t kVerifyBlocks = 32;

enum class Kind {
    DirectRead,  //!< UserLib pread (BypassD direct path)
    DirectWrite, //!< UserLib pwrite: overwrites, every n-th op appends
    SyncWrite,   //!< kernel pwrite, periodic fsync, optional reads
    UringRead,   //!< io_uring pread
    FabricRead,  //!< fabric initiator read of a remote region
    FabricWrite, //!< fabric initiator write of a remote region
};

bool
isWrite(Kind k)
{
    return k == Kind::DirectWrite || k == Kind::SyncWrite
           || k == Kind::FabricWrite;
}

/** One closed-loop job: depth slots issuing back to back. */
struct Job
{
    Kind kind = Kind::DirectRead;
    kern::Process *proc = nullptr;
    bypassd::UserLib *lib = nullptr;
    std::unique_ptr<kern::IoUring> ring;
    fab::FabricInitiator *fabric = nullptr;
    std::string path;
    int fd = -1;
    Tid tid = 0;
    std::uint32_t bs = 4096;
    std::uint32_t depth = 1;
    std::uint64_t span = 0; //!< bytes random offsets are drawn from
    DevAddr base = 0;       //!< fabric: remote region base
    unsigned fsyncEvery = 0;
    unsigned appendEvery = 0;
    unsigned readEvery = 0; //!< SyncWrite: every n-th op is a pread
    bool buffered = false;  //!< SyncWrite: page-cache fd, not O_DIRECT
    bool sampled = false; //!< latency enters the reported population
    std::uint64_t salt = 0; //!< seeds the offsets and the write content
    sim::Rng rng{1};
    std::vector<std::uint8_t> buf;

    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t windowOps = 0;
    std::uint32_t running = 0;
    unsigned sinceFsync = 0;
    std::vector<std::uint64_t> offsets;
    /** Write jobs: offset -> content tag of the last completed write. */
    std::map<std::uint64_t, std::uint64_t> lastTag;
};

/** Deterministic content of a tagged write. */
void
fillTagged(std::span<std::uint8_t> b, std::uint64_t tag)
{
    for (std::size_t i = 0; i < b.size(); i++)
        b[i] = static_cast<std::uint8_t>((tag >> (8 * (i & 7))) ^ (i >> 3));
}

bool
matchesTag(std::span<const std::uint8_t> b, std::uint64_t tag)
{
    for (std::size_t i = 0; i < b.size(); i++)
        if (b[i]
            != static_cast<std::uint8_t>((tag >> (8 * (i & 7))) ^ (i >> 3)))
            return false;
    return true;
}

/**
 * The closed loops of one machine. Touched only by the thread running
 * that machine's event queue, so a fleet's loops need no locking.
 */
class Loop
{
  public:
    explicit Loop(sys::System &s) : s_(s) {}
    Loop(const Loop &) = delete;
    Loop &operator=(const Loop &) = delete;

    sys::System &sys() { return s_; }

    Job &
    add(Kind kind, kern::Process &p, std::uint64_t seed)
    {
        jobs.push_back(std::make_unique<Job>());
        Job &j = *jobs.back();
        j.kind = kind;
        j.proc = &p;
        j.salt = seed;
        j.rng = sim::Rng(seed);
        return j;
    }

    /** Prime every slot; the window is [measureStart, tEnd]. */
    void
    start(Time measureStart, Time tEnd)
    {
        measureStart_ = measureStart;
        tEnd_ = tEnd;
        // The queue depth at the window's end sizes the event probe.
        s_.eq.schedule(tEnd, [this] { pendingAtEnd = s_.eq.pending(); });
        for (auto &j : jobs) {
            j->buf.assign(static_cast<std::size_t>(j->depth) * j->bs, 0);
            j->running = j->depth;
            for (std::uint32_t d = 0; d < j->depth; d++)
                issue(*j, d);
        }
    }

    std::vector<std::unique_ptr<Job>> jobs;
    std::vector<std::uint32_t> lat;
    std::size_t pendingAtEnd = 0;

  private:
    void issue(Job &j, std::uint32_t slot);
    void finish(Job &j, std::uint32_t slot, Time start, bool ok);

    sys::System &s_;
    Time measureStart_ = 0;
    Time tEnd_ = 0;
};

void
Loop::issue(Job &j, std::uint32_t slot)
{
    if (s_.now() >= tEnd_) {
        j.running--;
        return;
    }
    const Time start = s_.now();
    std::span<std::uint8_t> b(j.buf.data() + std::size_t(slot) * j.bs, j.bs);
    j.issued++;
    if (j.fsyncEvery && j.sinceFsync == j.fsyncEvery) {
        j.sinceFsync = 0;
        s_.kernel.sysFsync(*j.proc, j.fd, [this, &j, slot, start](int rc) {
            finish(j, slot, start, rc == 0);
        });
        return;
    }
    const bool read = !isWrite(j.kind)
                      || (j.readEvery && j.issued % j.readEvery == 0);
    std::uint64_t off;
    if (j.appendEvery && j.issued % j.appendEvery == 0)
        off = j.lib->fileSize(j.fd);
    else
        off = j.rng.nextUint(j.span / j.bs) * j.bs;
    if (j.offsets.size() < kProbeOffsets)
        j.offsets.push_back(off);
    std::uint64_t tag = 0;
    if (!read) {
        tag = fnv(fnv(kFnvSeed, j.salt), j.issued) | 1;
        fillTagged(b, tag);
    }
    const std::uint32_t want = j.bs;
    auto done = [this, &j, slot, start, off, tag, want](long long n,
                                                       kern::IoTrace) {
        const bool ok = n == static_cast<long long>(want);
        if (ok && tag)
            j.lastTag[off] = tag;
        finish(j, slot, start, ok);
    };
    switch (j.kind) {
      case Kind::DirectRead:
        j.lib->pread(j.tid, j.fd, b, off, done);
        break;
      case Kind::DirectWrite:
        j.lib->pwrite(j.tid, j.fd, b, off, done);
        break;
      case Kind::SyncWrite:
        if (read) {
            s_.kernel.sysPread(*j.proc, j.fd, b, off, done);
        } else {
            j.sinceFsync++;
            s_.kernel.sysPwrite(*j.proc, j.fd, b, off, done);
        }
        break;
      case Kind::UringRead:
        j.ring->pread(j.fd, b, off, done);
        break;
      case Kind::FabricRead:
        j.fabric->read(j.tid, j.base + off, b, done);
        break;
      case Kind::FabricWrite:
        j.fabric->write(j.tid, j.base + off, b, done);
        break;
    }
}

void
Loop::finish(Job &j, std::uint32_t slot, Time start, bool ok)
{
    const Time now = s_.now();
    j.completed++;
    if (!ok)
        j.failed++;
    if (start >= measureStart_ && now <= tEnd_) {
        j.windowOps++;
        if (j.sampled)
            lat.push_back(static_cast<std::uint32_t>(
                std::min<Time>(now - start, 0xffffffffu)));
    }
    issue(j, slot);
}

Time
scaled(const Options &o, Time t)
{
    return std::max<Time>(kMs, static_cast<Time>(double(t) * o.scale));
}

void
instrument(sys::System &s, Mode mode, SpanFold &fold)
{
    if (mode == Mode::Plain)
        return;
    s.enableTenantAccounting();
    if (mode == Mode::Traced)
        s.enableTracing(obs::Level::Device).setStream(&fold);
}

int
createFile(sys::System &s, kern::Process &p, const std::string &path,
           std::uint64_t bytes)
{
    const int fd = s.kernel.setupCreateFile(p, path, bytes, 0);
    sim::panicIf(fd < 0, "simbench: cannot create " + path);
    return fd;
}

void
closeFd(sys::System &s, kern::Process &p, int fd)
{
    int rc = -1;
    s.kernel.sysClose(p, fd, [&rc](int r) { rc = r; });
    s.run();
    sim::panicIf(rc != 0, "simbench: close failed");
}

/** BypassD open (fmap) of an existing file; must come back direct. */
int
openDirect(sys::System &s, bypassd::UserLib &lib, const std::string &path,
           bool write)
{
    int fd = -1;
    const std::uint32_t flags
        = fs::kOpenRead | fs::kOpenDirect
          | (write ? std::uint32_t{fs::kOpenWrite} : 0u);
    lib.open(path, flags, 0644, [&fd](int f) { fd = f; });
    s.run();
    sim::panicIf(fd < 0 || !lib.isDirect(fd),
                 "simbench: BypassD open failed for " + path);
    return fd;
}

/** Fold per-job results into @p r; flag jobs that did not drain. */
void
collectLoop(Loop &loop, RepResult &r)
{
    for (auto &j : loop.jobs) {
        r.ios += j->completed;
        r.attempted += j->issued;
        r.failed += j->failed;
        r.windowOps += j->windowOps;
        if (j->running != 0 || j->completed != j->issued)
            r.breaches.push_back("job on " + j->path + " did not drain");
        r.digest = fnv(r.digest, j->issued);
        r.digest = fnv(r.digest, j->completed);
        r.digest = fnv(r.digest, j->failed);
        r.digest = fnv(r.digest, j->windowOps);
    }
    r.lat.insert(r.lat.end(), loop.lat.begin(), loop.lat.end());
    sys::System &s = loop.sys();
    r.digest = fnv(r.digest, s.now());
    r.digest = fnv(r.digest, s.eq.executed());
    r.digest = fnv(r.digest, s.dev.totalOps());
    r.digest = fnv(r.digest, s.dev.readBytes());
    r.digest = fnv(r.digest, s.dev.writeBytes());
}

/** Fold the reported latency population into the digest. */
void
digestLatency(RepResult &r)
{
    std::vector<std::uint32_t> v = r.lat;
    std::sort(v.begin(), v.end());
    r.digest = fnv(r.digest, v.size());
    for (std::uint32_t x : v)
        r.digest = fnv(r.digest, x);
}

void
checkTenantSums(sys::System &s, RepResult &r)
{
    const std::string err = s.verifyTenantSums();
    if (!err.empty())
        r.breaches.push_back("tenant sums: " + err);
}

/**
 * Read back up to kVerifyBlocks written blocks with kernel preads (a
 * buffered fd reads through the page cache, as its writes went).
 */
void
verifyWrites(sys::System &s, Job &j, RepResult &r)
{
    const int fd = j.kind == Kind::SyncWrite
                       ? j.fd
                       : s.kernel.setupOpen(*j.proc, j.path,
                                            fs::kOpenRead | fs::kOpenDirect);
    sim::panicIf(fd < 0, "simbench: cannot reopen " + j.path);
    std::vector<std::uint8_t> b(j.bs);
    std::size_t n = 0;
    for (const auto &[off, tag] : j.lastTag) {
        if (n++ == kVerifyBlocks)
            break;
        long long got = -1;
        s.kernel.sysPread(*j.proc, fd, b, off,
                          [&got](long long res, kern::IoTrace) { got = res; });
        s.run();
        if (got != static_cast<long long>(j.bs) || !matchesTag(b, tag)) {
            r.breaches.push_back(sim::strf(
                "%s: data at offset %llu does not match the last write",
                j.path.c_str(), static_cast<unsigned long long>(off)));
            return;
        }
    }
    if (n == 0)
        r.breaches.push_back(j.path + ": no write completed");
}

/** Host-timed event loop; every machine's counters before and after. */
template <typename RunFn>
void
measure(RepResult &r, const std::vector<sys::System *> &machines,
        const std::vector<bypassd::UserLib *> &libs,
        std::vector<std::unique_ptr<SpanFold>> &folds, RunFn &&run)
{
    Counters before;
    for (sys::System *s : machines)
        before.addMachine(*s);
    for (bypassd::UserLib *l : libs)
        before.addLib(*l);
    for (auto &f : folds)
        f->arm(true);
    const double t0 = hostNow();
    run();
    r.runS = hostNow() - t0;
    for (auto &f : folds) {
        f->arm(false);
        r.spans.merge(*f);
    }
    for (sys::System *s : machines)
        r.total.addMachine(*s);
    for (bypassd::UserLib *l : libs)
        r.total.addLib(*l);
    r.loop = r.total.since(before);
}

// ------------------------------------------------------ randread_bypassd

void
randreadBypassd(const Options &o, Mode mode, RepResult &r)
{
    constexpr unsigned kJobs = 24;
    constexpr std::uint64_t kFile = 256ull << 20;
    const Time warmup = 1 * kMs;
    const Time runtime = scaled(o, 150 * kMs);

    const double t0 = hostNow();
    std::vector<std::unique_ptr<SpanFold>> folds;
    folds.push_back(std::make_unique<SpanFold>());
    sys::SystemConfig cfg;
    cfg.deviceBytes = 16ull << 30;
    cfg.seed = o.seed;
    auto s = std::make_unique<sys::System>(cfg);
    instrument(*s, mode, *folds[0]);
    kern::Process &proc = s->newProcess(1000, 1000);
    bypassd::UserLib &lib = s->userLib(proc);
    auto loop = std::make_unique<Loop>(*s);
    r.systemS = hostNow() - t0;

    double t = hostNow();
    for (unsigned i = 0; i < kJobs; i++) {
        Job &j = loop->add(Kind::DirectRead, proc, o.seed * 7919 + i);
        j.path = sim::strf("/randread%u.dat", i);
        closeFd(*s, proc, createFile(*s, proc, j.path, kFile));
    }
    r.filesS = hostNow() - t;

    t = hostNow();
    for (unsigned i = 0; i < kJobs; i++) {
        Job &j = *loop->jobs[i];
        j.lib = &lib;
        j.fd = openDirect(*s, lib, j.path, false);
        j.tid = i;
        lib.prepareThread(i);
        j.span = kFile;
        j.sampled = true;
    }
    r.fmapS = hostNow() - t;

    s->kernel.cpu().acquire(kJobs);
    const Time measureStart = s->now() + warmup;
    loop->start(measureStart, measureStart + runtime);
    r.windowNs = runtime;
    r.setupS = hostNow() - t0;

    measure(r, {s.get()}, {&lib}, folds, [&] { s->run(); });
    s->kernel.cpu().release(kJobs);

    collectLoop(*loop, r);
    digestLatency(r);
    checkTenantSums(*s, r);
    if (mode == Mode::Traced) {
        ProbeSite site{s.get(), &proc, loop->jobs[0]->path,
                       loop->jobs[0]->offsets, loop->pendingAtEnd};
        r.probe = runProbes(site);
    }

    t = hostNow();
    loop.reset();
    s.reset();
    r.teardownS = hostNow() - t;
}

// -------------------------------------------------------- tenant_mix_qos

/** Aggressor token-bucket cap (IOPS) the check holds it to. */
constexpr double kAggressorCapIops = 100000.0;

void
tenantMixQos(const Options &o, Mode mode, RepResult &r)
{
    constexpr unsigned kVictims = 4;
    constexpr unsigned kWriters = 2;
    constexpr std::uint64_t kSmall = 64ull << 20;
    constexpr std::uint64_t kLarge = 256ull << 20;
    // Written blocks become resident in the block store, and the first
    // write of a block page-faults on the host: small write spans keep
    // peak RSS modest and host time free of fault storms.
    constexpr std::uint64_t kWriteSpan = 8ull << 20;
    const Time warmup = 2 * kMs;
    const Time runtime = scaled(o, 60 * kMs);

    const double t0 = hostNow();
    std::vector<std::unique_ptr<SpanFold>> folds;
    folds.push_back(std::make_unique<SpanFold>());
    sys::SystemConfig cfg;
    cfg.deviceBytes = 16ull << 30;
    cfg.seed = o.seed;
    // A page cache smaller than the buffered writer's file, so its
    // reads both hit and miss and dirty pages get evicted.
    cfg.kernel.pageCacheBytes = 4ull << 20;
    auto s = std::make_unique<sys::System>(cfg);
    instrument(*s, mode, *folds[0]);
    qos::Registry &qos = s->enableQos();
    auto loop = std::make_unique<Loop>(*s);
    std::vector<bypassd::UserLib *> libs;
    auto job = [&](Kind kind, std::uint32_t uid, const std::string &path,
                   std::uint64_t salt) -> Job & {
        kern::Process &p = s->newProcess(uid, uid);
        Job &j = loop->add(kind, p, o.seed * 104729 + salt);
        j.path = path;
        if (kind == Kind::DirectRead || kind == Kind::DirectWrite) {
            j.lib = &s->userLib(p);
            libs.push_back(j.lib);
        }
        return j;
    };
    for (unsigned i = 0; i < kVictims; i++) {
        Job &v = job(Kind::DirectRead, 2000 + i,
                     sim::strf("/victim%u.dat", i), i);
        v.span = kSmall;
        v.sampled = true;
    }
    Job &aggr = job(Kind::DirectRead, 3000, "/aggressor.dat", 10);
    aggr.span = kLarge;
    aggr.depth = 16;
    for (unsigned i = 0; i < kWriters; i++) {
        Job &w = job(Kind::SyncWrite, 4000 + i, sim::strf("/log%u.dat", i),
                     20 + i);
        w.span = kWriteSpan;
        w.bs = 16384;
        w.fsyncEvery = 16;
        // Writer 0 goes through the page cache and re-reads 1 op in 4.
        w.buffered = i == 0;
        w.readEvery = i == 0 ? 4 : 0;
    }
    Job &app = job(Kind::DirectWrite, 5000, "/table.dat", 30);
    app.span = kWriteSpan;
    app.appendEvery = 8;
    Job &scan = job(Kind::UringRead, 6000, "/scan.dat", 40);
    scan.span = kSmall;
    scan.depth = 4;

    // Victims get a larger weighted-RR share; the aggressor is capped.
    for (unsigned i = 0; i < kVictims; i++) {
        qos::TenantLimit w;
        w.weight = 4;
        qos.setLimit(loop->jobs[i]->proc->pasid(), w);
    }
    qos::TenantLimit cap;
    cap.iopsLimit = static_cast<std::uint64_t>(kAggressorCapIops);
    cap.burstOps = 16;
    qos.setLimit(aggr.proc->pasid(), cap);
    r.systemS = hostNow() - t0;

    double t = hostNow();
    for (auto &j : loop->jobs) {
        const int fd = createFile(*s, *j->proc, j->path, j->span);
        if (j->kind == Kind::SyncWrite && !j->buffered)
            j->fd = fd; // O_DIRECT read-write descriptor
        else
            closeFd(*s, *j->proc, fd);
    }
    r.filesS = hostNow() - t;

    t = hostNow();
    for (auto &j : loop->jobs) {
        if (j->lib) {
            j->fd = openDirect(*s, *j->lib, j->path,
                               j->kind == Kind::DirectWrite);
            j->lib->prepareThread(0);
        } else if (j->kind == Kind::UringRead) {
            j->fd = s->kernel.setupOpen(*j->proc, j->path,
                                        fs::kOpenRead | fs::kOpenDirect);
            sim::panicIf(j->fd < 0, "simbench: io_uring open failed");
            j->ring = std::make_unique<kern::IoUring>(s->kernel, *j->proc);
        } else if (j->buffered) {
            j->fd = s->kernel.setupOpen(*j->proc, j->path,
                                        fs::kOpenRead | fs::kOpenWrite);
            sim::panicIf(j->fd < 0, "simbench: buffered open failed");
        }
    }
    r.fmapS = hostNow() - t;

    const unsigned threads = static_cast<unsigned>(loop->jobs.size());
    s->kernel.cpu().acquire(threads);
    const Time measureStart = s->now() + warmup;
    loop->start(measureStart, measureStart + runtime);
    r.windowNs = runtime;
    r.setupS = hostNow() - t0;

    measure(r, {s.get()}, libs, folds, [&] { s->run(); });
    s->kernel.cpu().release(threads);

    collectLoop(*loop, r);
    digestLatency(r);
    checkTenantSums(*s, r);
    const double aggrIops
        = double(aggr.windowOps) / (double(runtime) / double(kSec));
    r.checks.emplace_back("aggressor_iops", aggrIops);
    r.checks.emplace_back("aggressor_cap_iops", kAggressorCapIops);
    r.digest = fnv(r.digest, s->qos()->throttles());
    if (mode == Mode::Traced) {
        ProbeSite site{s.get(), loop->jobs[0]->proc, loop->jobs[0]->path,
                       loop->jobs[0]->offsets, loop->pendingAtEnd};
        r.probe = runProbes(site);
    }
    for (auto &j : loop->jobs)
        if (isWrite(j->kind))
            verifyWrites(*s, *j, r);

    t = hostNow();
    loop.reset();
    s.reset();
    r.teardownS = hostNow() - t;
}

// ---------------------------------------------------------- fabric_fleet

void
fabricFleet(const Options &o, Mode mode, RepResult &r)
{
    constexpr unsigned kClients = 3;
    constexpr unsigned kLocalReaders = 1;
    // Remote write regions stay small for the same reason as in
    // tenant_mix_qos: written blocks become resident on the host.
    constexpr std::uint64_t kRegion = 4ull << 20;
    constexpr std::uint64_t kLocalFile = 256ull << 20;
    const Time warmup = 1 * kMs;
    const Time runtime = scaled(o, 40 * kMs);

    const double t0 = hostNow();
    std::vector<std::unique_ptr<SpanFold>> folds;
    sys::FleetConfig fc;
    fc.systems = kClients + 1;
    fc.shards = o.shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 8ull << 30;
    fc.seed = o.seed;
    auto fleet = std::make_unique<sys::Fleet>(fc);
    std::vector<sys::System *> machines;
    for (unsigned i = 0; i < fleet->size(); i++) {
        folds.push_back(std::make_unique<SpanFold>());
        instrument(fleet->system(i), mode, *folds.back());
        machines.push_back(&fleet->system(i));
    }
    fab::FabricProfile prof;
    auto target = std::make_unique<fab::FabricTarget>(fleet->target(), prof);
    target->bind(fleet->executor(), fleet->domainOf(0));
    sim::panicIf(!target->serve(), "simbench: fabric target claim failed");
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    std::vector<std::unique_ptr<Loop>> loops;
    std::vector<kern::Process *> procs;
    std::vector<bypassd::UserLib *> libs;
    for (unsigned c = 1; c <= kClients; c++) {
        sys::System &client = fleet->system(c);
        inis.push_back(std::make_unique<fab::FabricInitiator>(client, *target));
        inis.back()->bind(fleet->executor(), fleet->domainOf(c));
        loops.push_back(std::make_unique<Loop>(client));
        procs.push_back(&client.newProcess(1000 + c, 1000));
        libs.push_back(&client.userLib(*procs.back()));
    }
    r.systemS = hostNow() - t0;

    double t = hostNow();
    for (unsigned c = 1; c <= kClients; c++) {
        sys::System &client = fleet->system(c);
        Loop &loop = *loops[c - 1];
        kern::Process &p = *procs[c - 1];
        const Kind shapes[] = {Kind::FabricRead, Kind::FabricWrite,
                               Kind::FabricWrite};
        for (unsigned k = 0; k < 3; k++) {
            Job &j = loop.add(shapes[k], p, o.seed * 15485863 + c * 16 + k);
            j.path = sim::strf("client%u:fabric%u", c, k);
            j.fabric = inis[c - 1].get();
            j.tid = k;
            j.bs = k == 2 ? 16384 : 4096; // 16 KiB writes go via RDMA
            j.span = kRegion;
            j.base = fc.deviceBytes / 2
                     + DevAddr((c - 1) * 3 + k) * kRegion;
            j.sampled = true;
        }
        for (unsigned k = 0; k < kLocalReaders; k++) {
            Job &j = loop.add(Kind::DirectRead, p,
                              o.seed * 15485863 + c * 16 + 8 + k);
            j.path = sim::strf("/local%u_%u.dat", c, k);
            j.lib = libs[c - 1];
            j.tid = k;
            j.span = kLocalFile;
            closeFd(client, p, createFile(client, p, j.path, kLocalFile));
        }
    }
    r.filesS = hostNow() - t;

    t = hostNow();
    for (unsigned c = 1; c <= kClients; c++) {
        for (auto &j : loops[c - 1]->jobs) {
            if (j->kind != Kind::DirectRead)
                continue;
            j->fd = openDirect(fleet->system(c), *j->lib, j->path, false);
            j->lib->prepareThread(j->tid);
        }
    }
    r.fmapS = hostNow() - t;

    t = hostNow();
    unsigned connected = 0;
    for (unsigned c = 1; c <= kClients; c++)
        inis[c - 1]->connect(procs[c - 1]->pasid(),
                             [&connected](fab::ConnectStatus st) {
                                 connected += st == fab::ConnectStatus::Ok;
                             });
    fleet->executor().run();
    sim::panicIf(connected != kClients, "simbench: fabric connect failed");
    // Align every machine clock so the window starts together.
    fleet->settle();
    r.connectS = hostNow() - t;

    const Time measureStart = fleet->system(1).now() + warmup;
    const Time tEnd = measureStart + runtime;
    for (unsigned c = 1; c <= kClients; c++) {
        fleet->system(c).kernel.cpu().acquire(
            static_cast<unsigned>(loops[c - 1]->jobs.size()));
        loops[c - 1]->start(measureStart, tEnd);
    }
    fleet->start(tEnd);
    r.windowNs = runtime;
    r.setupS = hostNow() - t0;

    const sim::SimExecutor &ex = fleet->executor();
    const std::uint64_t windows0 = ex.windows();
    const std::uint64_t messages0 = ex.delivered();
    std::vector<std::uint64_t> shard0;
    double stall0 = 0;
    for (unsigned i = 0; i < ex.shardCount(); i++) {
        shard0.push_back(ex.shardEvents(i));
        stall0 += ex.shardStallSec(i);
    }
    measure(r, machines, libs, folds, [&] { fleet->run(); });
    r.exec.windows = ex.windows() - windows0;
    r.exec.messages = ex.delivered() - messages0;
    double stall = 0;
    for (unsigned i = 0; i < ex.shardCount(); i++) {
        r.exec.shardEvents.push_back(ex.shardEvents(i) - shard0[i]);
        stall += ex.shardStallSec(i);
    }
    r.exec.stallSec = stall - stall0;

    std::uint64_t fabricOps = 0;
    for (unsigned c = 1; c <= kClients; c++) {
        sys::System &client = fleet->system(c);
        client.kernel.cpu().release(
            static_cast<unsigned>(loops[c - 1]->jobs.size()));
        collectLoop(*loops[c - 1], r);
        for (auto &j : loops[c - 1]->jobs)
            if (j->fabric)
                fabricOps += j->completed;
        if (inis[c - 1]->pendingIos() != 0)
            r.breaches.push_back(sim::strf("client %u: fabric I/O left "
                                           "pending", c));
        checkTenantSums(client, r);
    }
    sys::System &tsys = fleet->target();
    checkTenantSums(tsys, r);
    digestLatency(r);
    r.digest = fnv(r.digest, tsys.dev.totalOps());
    r.digest = fnv(r.digest, tsys.now());
    r.digest = fnv(r.digest, tsys.eq.executed());
    r.digest = fnv(r.digest, fleet->controllerDigest());
    r.digest = fnv(r.digest, fleet->beacons());
    for (const auto &[id, info] : target->connections()) {
        r.digest = fnv(r.digest, id);
        r.digest = fnv(r.digest, info.ops);
        r.digest = fnv(r.digest, info.readBytes);
        r.digest = fnv(r.digest, info.writeBytes);
    }
    r.checks.emplace_back("target_device_ops", double(tsys.dev.totalOps()));
    r.checks.emplace_back("client_fabric_ops", double(fabricOps));
    r.fabric.capsules = target->capsules();
    r.fabric.rdmaTransfers = target->rdmaTransfers();
    r.fabric.overflowParks = target->overflowParks();
    r.fabric.staleCapsules = target->staleCapsules();
    if (mode == Mode::Traced) {
        Loop &l1 = *loops[0];
        const Job &reader = *l1.jobs[3];
        ProbeSite site{&fleet->system(1), reader.proc, reader.path,
                       reader.offsets, l1.pendingAtEnd};
        r.probe = runProbes(site);
    }
    for (auto &l : loops)
        for (auto &j : l->jobs)
            if (j->kind == Kind::FabricWrite && j->lastTag.empty())
                r.breaches.push_back(j->path + ": no write completed");

    t = hostNow();
    loops.clear();
    inis.clear();
    target.reset();
    fleet.reset();
    r.teardownS = hostNow() - t;
}

struct Entry
{
    const char *name;
    void (*fn)(const Options &, Mode, RepResult &);
};

constexpr Entry kWorkloads[] = {
    {"randread_bypassd", randreadBypassd},
    {"tenant_mix_qos", tenantMixQos},
    {"fabric_fleet", fabricFleet},
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : kWorkloads)
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

RepResult
runRep(const Options &o, Mode mode)
{
    for (const Entry &e : kWorkloads) {
        if (o.workload == e.name) {
            RepResult r;
            e.fn(o, mode, r);
            return r;
        }
    }
    sim::panic("simbench: unknown workload " + o.workload);
}

} // namespace simbench
