/**
 * @file
 * Layer-side measurement: counter snapshots from public accessors, the
 * span fold, the host-cost probes and the per-layer metric table.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory_resource>
#include <tuple>

#include "bench.hpp"
#include "sim/logging.hpp"
#include "system/system.hpp"

namespace simbench {

using namespace bpd;

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ------------------------------------------------------ host calibration

double
calibrationSeconds()
{
    // The kernel's memory is its own: the heap array and the block pool
    // are created on the first call and reused, so neither the state of
    // the process heap a rep leaves behind nor a simulator change to its
    // allocation pattern can move the kernel's time.
    constexpr std::size_t kDepth = 4096, kLive = 1024;
    static std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
    static std::pmr::unsynchronized_pool_resource pool;
    static std::vector<std::pair<void *, std::size_t>> live(kLive);
    heap.reserve(kDepth);

    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::uint64_t acc = 0;
    const double t0 = hostNow();

    // Timed-heap churn at a steady depth, like the event queue.
    heap.clear();
    for (std::uint32_t i = 0; i < kDepth; i++)
        heap.emplace_back(next() & 0xffffff, i);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (int i = 0; i < 200000; i++) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const auto [when, id] = heap.back();
        acc += id;
        heap.back() = {when + (next() & 0xffff), id};
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    // Small-block allocation churn, like completion callbacks.
    for (int i = 0; i < 200000; i++) {
        auto &[p, bytes] = live[next() & (kLive - 1)];
        if (p)
            pool.deallocate(p, bytes);
        bytes = 48 + (i & 63);
        p = pool.allocate(bytes);
        static_cast<char *>(p)[0] = static_cast<char>(i);
        acc += static_cast<unsigned char>(static_cast<char *>(p)[0]);
    }
    for (auto &[p, bytes] : live) {
        if (p)
            pool.deallocate(p, bytes);
        p = nullptr;
    }

    const double secs = hostNow() - t0;
    sim::panicIf(acc == 0, "simbench: calibration computed nothing");
    return secs;
}

// ---------------------------------------------------------------- counters

void
Counters::addMachine(sys::System &s)
{
    events += s.eq.executed();
    for (std::size_t i = 0; i < s.devices.size(); i++) {
        ssd::DeviceSlot &slot = s.devices.slot(i);
        vbaTranslations += slot.iommu.vbaTranslations();
        vbaFaults += slot.iommu.vbaFaults();
        walkFrames += slot.iommu.framesRead();
        walkCacheHits += slot.iommu.walkCache().hits();
        walkCacheMisses += slot.iommu.walkCache().misses();
        devOps += slot.dev.totalOps();
        devReadBytes += slot.dev.readBytes();
        devWriteBytes += slot.dev.writeBytes();
    }
    syscalls += s.kernel.syscallCount();
    extentLookups += s.ext4.extentLookups();
    journalCommits += s.ext4.journal().committedTxns();
    journalRecords += s.ext4.journal().records();
    metadataOps += s.ext4.metadataOps();
    blocksZeroed += s.ext4.blocksZeroed();
    pageCacheHits += s.kernel.pageCache().hits();
    pageCacheMisses += s.kernel.pageCache().misses();
    coldFmaps += s.module.coldFmaps();
    warmFmaps += s.module.warmFmaps();
    if (const qos::Registry *q = s.qos()) {
        qosAdmits += q->admits();
        qosThrottles += q->throttles();
        qosThrottledBytes += q->throttledBytes();
    }
}

void
Counters::addLib(const bypassd::UserLib &lib)
{
    directOps += lib.directReads() + lib.directWrites();
    fallbackOps += lib.kernelFallbackOps();
    appendsRouted += lib.appendsRouted();
}

Counters
Counters::since(const Counters &b) const
{
    Counters d;
    d.events = events - b.events;
    d.vbaTranslations = vbaTranslations - b.vbaTranslations;
    d.vbaFaults = vbaFaults - b.vbaFaults;
    d.walkFrames = walkFrames - b.walkFrames;
    d.walkCacheHits = walkCacheHits - b.walkCacheHits;
    d.walkCacheMisses = walkCacheMisses - b.walkCacheMisses;
    d.devOps = devOps - b.devOps;
    d.devReadBytes = devReadBytes - b.devReadBytes;
    d.devWriteBytes = devWriteBytes - b.devWriteBytes;
    d.syscalls = syscalls - b.syscalls;
    d.extentLookups = extentLookups - b.extentLookups;
    d.journalCommits = journalCommits - b.journalCommits;
    d.journalRecords = journalRecords - b.journalRecords;
    d.metadataOps = metadataOps - b.metadataOps;
    d.blocksZeroed = blocksZeroed - b.blocksZeroed;
    d.pageCacheHits = pageCacheHits - b.pageCacheHits;
    d.pageCacheMisses = pageCacheMisses - b.pageCacheMisses;
    d.directOps = directOps - b.directOps;
    d.fallbackOps = fallbackOps - b.fallbackOps;
    d.appendsRouted = appendsRouted - b.appendsRouted;
    d.coldFmaps = coldFmaps - b.coldFmaps;
    d.warmFmaps = warmFmaps - b.warmFmaps;
    d.qosAdmits = qosAdmits - b.qosAdmits;
    d.qosThrottles = qosThrottles - b.qosThrottles;
    d.qosThrottledBytes = qosThrottledBytes - b.qosThrottledBytes;
    return d;
}

// --------------------------------------------------------------- span fold

namespace {

std::int64_t
argOf(const obs::SpanRec &rec, const char *key)
{
    for (unsigned i = 0; i < rec.nargs; i++)
        if (std::strcmp(rec.args[i].key, key) == 0)
            return rec.args[i].value;
    return 0;
}

bool
startsWith(const char *s, const char *prefix)
{
    return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/** Request envelopes carry the Table 1 breakdown as user_ns/kernel_ns. */
bool
isEnvelope(const obs::SpanRec &rec)
{
    return rec.nargs == 5 && std::strcmp(rec.args[0].key, "user_ns") == 0;
}

} // namespace

void
SpanFold::onSpan(const obs::SpanRec &rec, const std::vector<std::string> &)
{
    if (!armed_ || rec.phase != 'X')
        return;
    const Time dur = rec.end - rec.start;
    const char *n = rec.name;
    if (isEnvelope(rec)) {
        envKernel.n++;
        envKernel.ns += static_cast<std::uint64_t>(argOf(rec, "kernel_ns"));
        if (startsWith(n, "bypassd.")) {
            bypassdUser.n++;
            bypassdUser.ns
                += static_cast<std::uint64_t>(argOf(rec, "user_ns"));
        }
    } else if (std::strcmp(n, "iommu.ats_translate") == 0) {
        ats.n++;
        ats.ns += dur;
    } else if (std::strcmp(n, "nvme.cmd") == 0) {
        nvmeCmds++;
    } else if (std::strcmp(n, "nvme.sq_wait") == 0) {
        sqWaits.push_back(static_cast<std::uint32_t>(
            std::min<Time>(dur, 0xffffffffu)));
    } else if (std::strcmp(n, "nvme.media") == 0) {
        media.n++;
        media.ns += dur;
    } else if (std::strcmp(n, "fabric.capsule") == 0) {
        capsule.n++;
        capsule.ns += dur;
    }
}

void
SpanFold::merge(const SpanFold &o)
{
    for (auto [mine, theirs] :
         {std::pair{&ats, &o.ats}, std::pair{&media, &o.media},
          std::pair{&capsule, &o.capsule},
          std::pair{&envKernel, &o.envKernel},
          std::pair{&bypassdUser, &o.bypassdUser}}) {
        mine->n += theirs->n;
        mine->ns += theirs->ns;
    }
    nvmeCmds += o.nvmeCmds;
    sqWaits.insert(sqWaits.end(), o.sqWaits.begin(), o.sqWaits.end());
}

// ------------------------------------------------------------------ probes

namespace {

/** Calls per probe round; rounds per probe (the median is reported). */
constexpr std::size_t kProbeCalls = 100000;
constexpr int kProbeRounds = 5;

/** Host ns per call of @p body(i), median over kProbeRounds rounds. */
template <typename Fn>
double
timePerCall(Fn &&body)
{
    std::vector<double> rounds;
    for (int r = 0; r < kProbeRounds; r++) {
        const double t0 = hostNow();
        for (std::size_t i = 0; i < kProbeCalls; i++)
            body(i);
        rounds.push_back((hostNow() - t0) * 1e9 / kProbeCalls);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[rounds.size() / 2];
}

} // namespace

ProbeResult
runProbes(const ProbeSite &site)
{
    sys::System &s = *site.sys;
    kern::Process &p = *site.proc;
    sim::panicIf(site.offsets.empty(), "simbench: probe without offsets");

    InodeNum ino = 0;
    sim::panicIf(s.ext4.resolve(site.path, &ino) != fs::FsStatus::Ok,
                 "simbench: probe file vanished");
    const fs::Inode *node = s.ext4.inode(ino);
    // The process already holds this mapping, so fmap returns its VBA.
    const bypassd::FmapResult fm = s.module.fmap(p, ino, false);
    sim::panicIf(fm.vba == 0, "simbench: probe file lost its mapping");
    iommu::Iommu &mmu = s.devices.slot(fm.slot).iommu;
    const mem::PageTable &pt = p.aspace().pageTable();
    const std::vector<std::uint64_t> &offs = site.offsets;

    std::uint64_t sink = 0;
    ProbeResult r;
    r.translateNs = timePerCall([&](std::size_t i) {
        const iommu::TransResult t = mmu.translateVbaSync(
            p.pasid(), fm.vba + offs[i % offs.size()], 4096, false, fm.dev);
        sink += t.latency + t.segs.size();
    });
    r.walkNs = timePerCall([&](std::size_t i) {
        sink += pt.walk(fm.vba + offs[i % offs.size()]).leaf;
    });
    r.extentNs = timePerCall([&](std::size_t i) {
        const auto e
            = node->extents.lookup(offs[i % offs.size()] / kBlockBytes);
        sink += e ? e->pblk : 0;
    });

    // Schedule/run pairs on the machine's own queue, held at the depth
    // it had at the end of the measured window by far-future fillers.
    sim::EventQueue &eq = s.eq;
    std::vector<sim::EventId> fillers;
    for (std::size_t i = 0; i < site.pendingDepth; i++)
        fillers.push_back(eq.schedule(eq.now() + kSec * 1000 + i, [] {}));
    r.eventNs = timePerCall([&](std::size_t i) {
        eq.after(1 + (i & 63), [&sink] { sink++; });
        eq.runOne();
    });
    for (sim::EventId id : fillers)
        eq.cancel(id);

    // Keep the probed calls observable so none is optimized away.
    sim::panicIf(sink == 0, "simbench: probes computed nothing");
    return r;
}

// ------------------------------------------------------------ layer table

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

std::size_t
nearestRank(std::size_t n, double q)
{
    const auto k = static_cast<std::size_t>(std::ceil(q * double(n)));
    return std::min(k == 0 ? std::size_t{0} : k - 1, n - 1);
}

double
percentileOf(std::vector<std::uint32_t> v, double q, std::size_t zeros)
{
    const std::size_t n = v.size() + zeros;
    if (n == 0)
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = nearestRank(n, q);
    return rank < zeros ? 0.0 : static_cast<double>(v[rank - zeros]);
}

std::vector<std::tuple<std::string, std::string, double>>
layerMetrics(const RepResult &r)
{
    const Counters &t = r.total;
    const Counters &l = r.loop;
    const double ios = static_cast<double>(r.ios);
    const SpanFold &sp = r.spans;
    // Commands that never waited emit no sq_wait span: they count as 0.
    const std::size_t noWait = sp.nvmeCmds > sp.sqWaits.size()
                                   ? sp.nvmeCmds - sp.sqWaits.size()
                                   : 0;

    double maxShard = 0, sumShard = 0;
    for (std::uint64_t e : r.exec.shardEvents) {
        maxShard = std::max(maxShard, static_cast<double>(e));
        sumShard += static_cast<double>(e);
    }
    const double meanShard
        = r.exec.shardEvents.empty()
              ? 0
              : sumShard / static_cast<double>(r.exec.shardEvents.size());

    return {
        {"sim.events_per_io", "count", ratio(double(l.events), ios)},
        {"sim.events_per_host_s", "1/s", ratio(double(l.events), r.runS)},
        {"sim.host_ns_per_event", "ns/call", r.probe.eventNs},
        {"exec.windows", "count", double(r.exec.windows)},
        {"exec.events_per_window", "count",
         ratio(sumShard, double(r.exec.windows))},
        {"exec.messages", "count", double(r.exec.messages)},
        {"exec.barrier_stall_s", "s", r.exec.stallSec},
        {"exec.shard_imbalance", "ratio", ratio(maxShard, meanShard)},
        {"iommu.translations_per_io", "count",
         ratio(double(l.vbaTranslations), ios)},
        {"iommu.walk_frames_per_translation", "count",
         ratio(double(l.walkFrames), double(l.vbaTranslations))},
        {"iommu.walk_cache_hit_ratio", "ratio",
         ratio(double(l.walkCacheHits),
               double(l.walkCacheHits + l.walkCacheMisses))},
        {"iommu.faults", "count", double(t.vbaFaults)},
        {"iommu.xlate_sim_ns", "ns", sp.ats.mean()},
        {"iommu.host_ns_per_translate", "ns/call", r.probe.translateNs},
        {"mem.host_ns_per_walk", "ns/call", r.probe.walkNs},
        {"nvme.cmds_per_io", "count", ratio(double(l.devOps), ios)},
        {"nvme.sq_wait_sim_ns_p50", "ns",
         percentileOf(sp.sqWaits, 0.50, noWait)},
        {"nvme.sq_wait_sim_ns_p99", "ns",
         percentileOf(sp.sqWaits, 0.99, noWait)},
        {"nvme.media_sim_ns", "ns", sp.media.mean()},
        {"nvme.read_bytes", "B", double(l.devReadBytes)},
        {"nvme.write_bytes", "B", double(l.devWriteBytes)},
        {"kern.syscalls_per_io", "count", ratio(double(l.syscalls), ios)},
        {"kern.cpu_sim_ns", "ns", sp.envKernel.mean()},
        {"fs.extent_lookups_per_io", "count",
         ratio(double(l.extentLookups), ios)},
        {"fs.journal_commits", "count", double(t.journalCommits)},
        {"fs.journal_records", "count", double(t.journalRecords)},
        {"fs.metadata_ops", "count", double(t.metadataOps)},
        {"fs.blocks_zeroed", "count", double(t.blocksZeroed)},
        {"fs.page_cache_hit_ratio", "ratio",
         ratio(double(l.pageCacheHits),
               double(l.pageCacheHits + l.pageCacheMisses))},
        {"fs.host_ns_per_extent_lookup", "ns/call", r.probe.extentNs},
        {"bypassd.direct_ratio", "ratio",
         ratio(double(l.directOps), double(l.directOps + l.fallbackOps))},
        {"bypassd.cold_fmaps", "count", double(t.coldFmaps)},
        {"bypassd.warm_fmaps", "count", double(t.warmFmaps)},
        {"bypassd.appends_routed", "count", double(t.appendsRouted)},
        {"bypassd.user_sim_ns", "ns", sp.bypassdUser.mean()},
        {"qos.admits", "count", double(t.qosAdmits)},
        {"qos.throttles", "count", double(t.qosThrottles)},
        {"qos.throttle_ratio", "ratio",
         ratio(double(t.qosThrottles), double(t.qosAdmits))},
        {"qos.throttled_bytes", "B", double(t.qosThrottledBytes)},
        {"fabric.capsules", "count", double(r.fabric.capsules)},
        {"fabric.rdma_transfers", "count", double(r.fabric.rdmaTransfers)},
        {"fabric.overflow_parks", "count", double(r.fabric.overflowParks)},
        {"fabric.stale_capsules", "count", double(r.fabric.staleCapsules)},
        {"fabric.sim_ns", "ns", sp.capsule.mean()},
        {"setup.system_s", "s", r.systemS},
        {"setup.files_s", "s", r.filesS},
        {"setup.fmap_s", "s", r.fmapS},
        {"setup.connect_s", "s", r.connectS},
        {"teardown_s", "s", r.teardownS},
    };
}

} // namespace simbench
