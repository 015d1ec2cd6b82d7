#include "obs/replay.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>

#include "kern/io_uring.hpp"
#include "obs/json.hpp"
#include "sim/logging.hpp"
#include "spdk/spdk.hpp"
#include "ssd/block_store.hpp"

namespace bpd::obs {

namespace {

using Op = ReplayRec::Op;

bool
isDataOp(std::uint8_t op)
{
    return op == ReplayRec::Read || op == ReplayRec::Write
           || op == ReplayRec::Fsync;
}

/** Round @p v up to the block store's extent size. */
std::uint64_t
alignExtent(std::uint64_t v)
{
    constexpr std::uint64_t e = ssd::BlockStore::kExtentBytes;
    return (v + e - 1) / e * e;
}

/**
 * File→raw-region mapping (trace_replay --engine spdk): rewrite a
 * file-backed capture so it drives the exclusive userspace driver.
 * Every recorded file becomes a contiguous extent-aligned slab of
 * raw device bytes, assigned in first-touch order starting past any
 * raw addresses already in the stream, and data ops are rewritten to
 * DevAddr = regionBase + offset with engine = Spdk. Ops that depend
 * on fs semantics with no raw equivalent are refused: data ops
 * reaching past a file's recorded create size (EOF growth) and
 * mid-workload kernel file opens (the exclusive claim disables the
 * kernel queues). Fsync becomes a no-op barrier — the lane chain
 * already orders it — unless opt.strict asks for a refusal instead.
 */
bool
mapOntoSpdk(const RecordedProcess &rec, const ReplayOptions &opt,
            std::uint64_t deviceBytes, std::vector<ReplayRec> &ops,
            std::vector<RegionMapEntry> &map, std::string &error)
{
    struct FileInfo
    {
        std::uint64_t createdBytes = 0; //!< 0 = no Create record seen
        std::uint64_t maxEnd = 0;       //!< max(offset + len) over data ops
    };
    std::map<std::uint32_t, FileInfo> infos;
    std::vector<std::uint32_t> firstTouch;
    std::uint64_t rawEnd = 0;
    std::set<std::uint32_t> dataProcs;

    auto laneDropped = [&](const ReplayRec &r) {
        return opt.lanes && r.lane != ReplayRec::kMainLane
               && r.lane >= opt.lanes;
    };
    auto touch = [&](std::uint32_t f) -> FileInfo & {
        auto [it, fresh] = infos.try_emplace(f);
        if (fresh)
            firstTouch.push_back(f);
        return it->second;
    };
    auto path = [&](std::uint32_t f) {
        return f < rec.files.size()
                   ? rec.files[f]
                   : "<file " + std::to_string(f) + ">";
    };

    for (const ReplayRec &r : rec.ops) {
        if (laneDropped(r))
            continue;
        const bool hasFile = r.file != ReplayRec::kNoFile;
        if (r.op == ReplayRec::Create && hasFile) {
            // Create records carry the file size in the offset cell.
            FileInfo &fi = touch(r.file);
            fi.createdBytes = std::max(fi.createdBytes, r.offset);
        } else if (r.op == ReplayRec::Fsync) {
            if (opt.strict) {
                error = "--strict: fsync on \"" + path(r.file)
                        + "\" has no raw equivalent on the spdk path";
                return false;
            }
            dataProcs.insert(r.proc);
        } else if (isDataOp(r.op)) {
            dataProcs.insert(r.proc);
            if (hasFile)
                touch(r.file).maxEnd
                    = std::max(touch(r.file).maxEnd, r.offset + r.len);
            else
                rawEnd = std::max(rawEnd, r.offset + r.len);
        } else if ((r.op == ReplayRec::Open || r.op == ReplayRec::Close)
                   && r.lane != ReplayRec::kMainLane
                   && static_cast<wl::Engine>(r.engine)
                          != wl::Engine::Spdk) {
            // e.g. fig12's intruder open: a kernel file op in the
            // middle of the stream needs the fs and the kernel
            // queues, both disabled under an exclusive spdk claim.
            error = "stream performs a kernel file "
                    + std::string(r.op == ReplayRec::Open ? "open"
                                                          : "close")
                    + " of \"" + path(r.file)
                    + "\" mid-workload; no raw equivalent under an "
                      "exclusive spdk claim";
            return false;
        }
    }
    for (const auto &[f, fi] : infos) {
        if (fi.createdBytes && fi.maxEnd > fi.createdBytes) {
            error = sim::strf(
                "data ops on \"%s\" reach byte %llu past its recorded "
                "create size %llu; EOF/growth semantics have no raw "
                "equivalent",
                path(f).c_str(), (unsigned long long)fi.maxEnd,
                (unsigned long long)fi.createdBytes);
            return false;
        }
    }
    if (dataProcs.size() > 1) {
        error = sim::strf("stream issues data ops from %zu processes; "
                          "the spdk claim is exclusive to one",
                          dataProcs.size());
        return false;
    }

    // Deterministic first-touch layout, extent-aligned, past the raw
    // addresses the capture already uses.
    std::uint64_t cursor = alignExtent(rawEnd);
    std::map<std::uint32_t, std::size_t> slotOf;
    for (std::uint32_t f : firstTouch) {
        const FileInfo &fi = infos[f];
        RegionMapEntry e;
        e.file = f;
        e.path = path(f);
        e.base = cursor;
        e.bytes = alignExtent(std::max<std::uint64_t>(
            std::max(fi.createdBytes, fi.maxEnd), 1));
        cursor += e.bytes;
        slotOf[f] = map.size();
        map.push_back(std::move(e));
    }
    if (deviceBytes && cursor > deviceBytes) {
        error = sim::strf("mapped regions need %llu bytes but the "
                          "recorded device has %llu",
                          (unsigned long long)cursor,
                          (unsigned long long)deviceBytes);
        return false;
    }

    for (ReplayRec r : rec.ops) {
        if (laneDropped(r))
            continue;
        if (opt.lanes
            && (r.op == ReplayRec::CpuAcquire
                || r.op == ReplayRec::CpuRelease))
            r.offset = std::min<std::uint64_t>(r.offset, opt.lanes);
        switch (static_cast<Op>(r.op)) {
          case ReplayRec::Create:
          case ReplayRec::Open:
          case ReplayRec::PrepThread:
          case ReplayRec::Close:
            // Engine and fs setup: there is no file system on the raw
            // path and the replayer claims the spdk driver lazily.
            break;
          case ReplayRec::Read:
          case ReplayRec::Write:
          case ReplayRec::Fsync:
            if (r.op != ReplayRec::Fsync
                && r.file != ReplayRec::kNoFile) {
                RegionMapEntry &e = map[slotOf.at(r.file)];
                r.offset += e.base;
                e.ops++;
            }
            r.engine = static_cast<std::uint8_t>(wl::Engine::Spdk);
            ops.push_back(r);
            break;
          default: ops.push_back(r);
        }
    }
    return true;
}

/**
 * Apply lane capping and engine-override rewriting to the recorded
 * stream. Under an override, main-lane Open/PrepThread/Close records
 * are engine-specific setup and are dropped (the replayer resolves
 * handles for the target engine lazily); lane-scoped ones (e.g. the
 * fig12 intruder's buffered open) are semantic workload steps and
 * survive untouched. SPDK as the target engine goes through
 * mapOntoSpdk instead, which lays files out as raw device regions.
 */
bool
transformOps(const RecordedProcess &rec, const ReplayOptions &opt,
             std::uint64_t deviceBytes, std::vector<ReplayRec> &ops,
             std::vector<RegionMapEntry> &map, std::string &error)
{
    const bool override_ = opt.engine >= 0;
    if (override_
        && opt.engine == static_cast<int>(wl::Engine::Spdk)) {
        if (!mapOntoSpdk(rec, opt, deviceBytes, ops, map, error))
            return false;
    } else {
        for (ReplayRec r : rec.ops) {
            if (opt.lanes && r.lane != ReplayRec::kMainLane
                && r.lane >= opt.lanes)
                continue;
            if (opt.lanes
                && (r.op == ReplayRec::CpuAcquire
                    || r.op == ReplayRec::CpuRelease))
                r.offset = std::min<std::uint64_t>(r.offset, opt.lanes);
            if (override_) {
                if ((r.op == ReplayRec::Open
                     || r.op == ReplayRec::PrepThread
                     || r.op == ReplayRec::Close)
                    && r.lane == ReplayRec::kMainLane)
                    continue;
                if (isDataOp(r.op)) {
                    if (r.file == ReplayRec::kNoFile) {
                        error = "raw-address (spdk) records cannot be "
                                "replayed under a file-engine override";
                        return false;
                    }
                    r.engine = static_cast<std::uint8_t>(opt.engine);
                }
            }
            ops.push_back(r);
        }
    }
    if (ops.empty()) {
        error = "no replayable records after filtering";
        return false;
    }
    return true;
}

/**
 * Re-drives one transformed record stream against a fresh System.
 *
 * Scheduling model (see replay.hpp): main-lane records are barriers
 * over everything before them; lane records chain per (proc, lane)
 * and additionally wait on the last preceding barrier. Records whose
 * recorded think-time gap is zero are issued inline from the
 * completing dependency, in record order, so the replay reproduces
 * the capture's same-timestamp event ordering.
 */
class Replayer
{
  public:
    Replayer(const RecordedProcess &rec, const ReplayOptions &opt,
             sys::SystemConfig cfg, std::vector<ReplayRec> ops)
        : rec_(rec), opt_(opt), cfg_(cfg), s_(cfg), ops_(std::move(ops)),
          out_(ops_)
    {
    }

    bool
    run(ReplayResult &res, std::string &error)
    {
        buildGraph();
        std::uint64_t maxLen = 0;
        for (const ReplayRec &r : ops_)
            maxLen = std::max(maxLen, r.len);
        buf_.assign(std::max<std::uint64_t>(maxLen, 1), 0xA5);

        // Roots (no dependencies) start at their absolute recorded
        // issue time — lane-chain heads and dependency-free barriers.
        for (std::size_t i = 0; i < ops_.size(); i++) {
            if (depsLeft_[i] == 0)
                s_.eq.schedule(ops_[i].issue,
                               [this, i] { runNode(i); });
        }
        s_.eq.run();

        if (!failed_ && completed_ != ops_.size()) {
            failed_ = true;
            error_ = sim::strf(
                "replay stalled: %llu of %llu records completed",
                (unsigned long long)completed_,
                (unsigned long long)ops_.size());
        }
        if (failed_) {
            error = error_;
            return false;
        }
        res.digest = replayDigest(out_);
        res.events = s_.eq.executed();
        res.simNs = s_.now();
        res.ops = dataOps_;
        res.bytes = dataBytes_;
        res.latency = latency_;
        res.counters = curatedCounters(s_);
        res.config = configToMap(cfg_);

        // Issue-time drift, recorded vs replayed, grouped per lane
        // (ops_ holds the recorded times, out_ the replayed ones, in
        // the same record order).
        std::map<Key, LaneDrift> drift;
        std::map<Key, double> absSum;
        for (std::size_t i = 0; i < ops_.size(); i++) {
            const Key k{ops_[i].proc, ops_[i].lane};
            LaneDrift &d = drift[k];
            d.proc = ops_[i].proc;
            d.lane = ops_[i].lane;
            d.ops++;
            const Time a = out_[i].issue > ops_[i].issue
                               ? out_[i].issue - ops_[i].issue
                               : ops_[i].issue - out_[i].issue;
            absSum[k] += static_cast<double>(a);
            d.maxAbsNs = std::max(d.maxAbsNs, a);
        }
        for (auto &[k, d] : drift) {
            d.meanAbsNs = absSum[k] / static_cast<double>(d.ops);
            res.laneDrift.push_back(d);
        }
        return true;
    }

  private:
    using Key = std::pair<std::uint32_t, std::uint32_t>;

    // ---- dependency graph ------------------------------------------

    void
    buildGraph()
    {
        const std::size_t n = ops_.size();
        chainSucc_.assign(n, -1);
        depsLeft_.assign(n, 0);
        gap_.assign(n, 0);
        isBarrier_.assign(n, 0);
        barrierSucc_.assign(n, {});

        std::map<std::uint64_t, std::vector<std::size_t>> unclaimed;
        std::vector<Time> completes; // recorded, in record order
        int lastBarrier = -1;

        for (std::size_t i = 0; i < n; i++) {
            const ReplayRec &r = ops_[i];
            if (r.lane == ReplayRec::kMainLane) {
                isBarrier_[i] = 1;
                // A barrier depends on every earlier record that had
                // *completed* by its recorded issue time. Records still
                // in flight at capture time (e.g. a pread racing the
                // fig12 intruder's process creation) are concurrent,
                // not dependencies — waiting on them would shift the
                // whole main-lane timeline.
                Time depComplete = 0;
                std::size_t ndeps = 0;
                for (Time c : completes) {
                    if (c <= r.issue) {
                        ndeps++;
                        depComplete = std::max(depComplete, c);
                    }
                }
                depsLeft_[i] = static_cast<int>(ndeps);
                gap_[i] = r.issue > depComplete ? r.issue - depComplete
                                                : 0;
                if (ndeps)
                    pendingBarriers_.push_back(i);
                lastBarrier = static_cast<int>(i);
            } else {
                const std::uint64_t key
                    = (static_cast<std::uint64_t>(r.proc) << 16)
                      | r.lane;
                auto &cands = unclaimed[key];
                int pick = -1;
                // Closed-loop chaining: prefer the predecessor whose
                // recorded completion coincides with this issue; fall
                // back to FIFO among already-complete slots (iodepth
                // greater than one).
                for (std::size_t c = 0; c < cands.size(); c++) {
                    if (ops_[cands[c]].complete == r.issue) {
                        pick = static_cast<int>(c);
                        break;
                    }
                }
                if (pick < 0) {
                    for (std::size_t c = 0; c < cands.size(); c++) {
                        if (ops_[cands[c]].complete <= r.issue) {
                            pick = static_cast<int>(c);
                            break;
                        }
                    }
                }
                Time depComplete = 0;
                if (pick >= 0) {
                    const std::size_t pred = cands[pick];
                    cands.erase(cands.begin() + pick);
                    chainSucc_[pred] = static_cast<int>(i);
                    depsLeft_[i]++;
                    depComplete = ops_[pred].complete;
                }
                if (lastBarrier >= 0) {
                    barrierSucc_[lastBarrier].push_back(i);
                    depsLeft_[i]++;
                    depComplete = std::max(
                        depComplete, ops_[lastBarrier].complete);
                }
                gap_[i] = r.issue > depComplete ? r.issue - depComplete
                                                : 0;
                cands.push_back(i);
            }
            completes.push_back(r.complete);
        }
    }

    void
    onComplete(std::size_t i)
    {
        completed_++;
        if (chainSucc_[i] >= 0)
            depResolved(static_cast<std::size_t>(chainSucc_[i]));
        if (isBarrier_[i]) {
            for (std::size_t succ : barrierSucc_[i])
                depResolved(succ);
        }
        // Barriers count this record as a dependency iff its recorded
        // completion predates their recorded issue (see buildGraph).
        const Time c = ops_[i].complete;
        for (std::size_t b = 0; b < pendingBarriers_.size();) {
            const std::size_t bi = pendingBarriers_[b];
            if (bi > i && c <= ops_[bi].issue) {
                if (--depsLeft_[bi] == 0) {
                    pendingBarriers_.erase(pendingBarriers_.begin()
                                           + b);
                    scheduleNode(bi);
                    continue;
                }
            }
            b++;
        }
    }

    void
    depResolved(std::size_t i)
    {
        if (--depsLeft_[i] == 0)
            scheduleNode(i);
    }

    void
    scheduleNode(std::size_t i)
    {
        if (gap_[i] == 0)
            makeReady(i);
        else
            s_.eq.after(gap_[i], [this, i] { runNode(i); });
    }

    /** Run zero-gap records inline, smallest record index first. */
    void
    makeReady(std::size_t i)
    {
        ready_.push(i);
        if (draining_)
            return;
        draining_ = true;
        while (!ready_.empty()) {
            const std::size_t j = ready_.top();
            ready_.pop();
            runNode(j);
        }
        draining_ = false;
    }

    // ---- execution --------------------------------------------------

    void
    fail(const std::string &msg)
    {
        if (!failed_) {
            failed_ = true;
            error_ = msg;
        }
    }

    kern::Process *
    proc(std::uint32_t recorded)
    {
        auto it = procs_.find(recorded);
        if (it == procs_.end()) {
            fail(sim::strf("record references unknown process %u "
                           "(no NewProcess record)",
                           recorded));
            return nullptr;
        }
        return it->second;
    }

    const std::string &
    file(std::uint32_t idx)
    {
        static const std::string bad = "/replay.bad";
        if (idx >= rec_.files.size()) {
            fail(sim::strf("record references unknown file %u", idx));
            return bad;
        }
        return rec_.files[idx];
    }

    void
    finish(std::size_t i, std::int64_t result)
    {
        out_[i].complete = s_.now();
        out_[i].result = result;
        if (isDataOp(ops_[i].op)) {
            dataOps_++;
            if (result > 0)
                dataBytes_ += static_cast<std::uint64_t>(result);
            latency_.record(out_[i].complete - out_[i].issue);
        }
        onComplete(i);
    }

    void
    runNode(std::size_t i)
    {
        if (failed_)
            return;
        const ReplayRec &r = ops_[i];
        out_[i].issue = s_.now();
        out_[i].complete = out_[i].issue;
        switch (static_cast<Op>(r.op)) {
          case ReplayRec::NewProcess: {
            kern::Process &p = s_.newProcess(
                static_cast<std::uint32_t>(r.aux >> 32),
                static_cast<std::uint32_t>(r.aux));
            procs_[r.proc] = &p;
            finish(i, p.pasid());
            break;
          }
          case ReplayRec::Create: {
            kern::Process *p = proc(r.proc);
            if (!p)
                return;
            const int fd = s_.kernel.setupCreateFile(*p, file(r.file),
                                                     r.offset, r.aux);
            if (fd < 0)
                return fail("replay: setupCreateFile failed");
            kfd_[{r.proc, r.file}] = fd;
            finish(i, fd);
            break;
          }
          case ReplayRec::Open: runOpen(i); break;
          case ReplayRec::PrepThread: {
            kern::Process *p = proc(r.proc);
            if (!p)
                return;
            s_.userLib(*p).prepareThread(r.tid);
            prepared_.insert({r.proc, r.tid});
            finish(i, 0);
            break;
          }
          case ReplayRec::Close: runClose(i); break;
          case ReplayRec::Read:
          case ReplayRec::Write:
          case ReplayRec::Fsync: runData(i); break;
          case ReplayRec::CpuAcquire:
            s_.kernel.cpu().acquire(
                static_cast<unsigned>(r.offset));
            finish(i, 0);
            break;
          case ReplayRec::CpuRelease:
            s_.kernel.cpu().release(
                static_cast<unsigned>(r.offset));
            finish(i, 0);
            break;
          default:
            fail(sim::strf("replay: unknown op %u", r.op));
        }
    }

    void
    runOpen(std::size_t i)
    {
        const ReplayRec &r = ops_[i];
        kern::Process *p = proc(r.proc);
        if (!p)
            return;
        switch (static_cast<wl::Engine>(r.engine)) {
          case wl::Engine::Bypassd: {
            const Key key{r.proc, r.file};
            s_.userLib(*p).open(
                file(r.file), static_cast<std::uint32_t>(r.aux), 0644,
                [this, i, key](int fd) {
                    if (fd < 0)
                        return fail("replay: bypassd open failed");
                    bfd_[key] = fd;
                    finish(i, fd);
                });
            break;
          }
          case wl::Engine::IoUring:
            rings_[{r.proc, r.tid}]
                = std::make_unique<kern::IoUring>(s_.kernel, *p);
            finish(i, 0);
            break;
          case wl::Engine::Spdk: {
            auto drv = std::make_unique<spdk::SpdkDriver>(
                s_.eq, s_.dev, s_.kernel.cpu(), p->pasid());
            if (!drv->init())
                return fail("replay: spdk claim failed");
            spdks_[r.proc] = std::move(drv);
            finish(i, 0);
            break;
          }
          default: { // Sync / Libaio: a kernel open
            const Key key{r.proc, r.file};
            s_.kernel.sysOpen(
                *p, file(r.file), static_cast<std::uint32_t>(r.aux),
                0644, [this, i, key](int fd) {
                    if (fd < 0)
                        return fail("replay: open failed");
                    kfd_[key] = fd;
                    finish(i, fd);
                });
            break;
          }
        }
    }

    void
    runClose(std::size_t i)
    {
        const ReplayRec &r = ops_[i];
        if (static_cast<wl::Engine>(r.engine) == wl::Engine::Spdk) {
            auto it = spdks_.find(r.proc);
            if (it != spdks_.end())
                it->second->shutdown();
            finish(i, 0);
            return;
        }
        kern::Process *p = proc(r.proc);
        if (!p)
            return;
        auto it = kfd_.find({r.proc, r.file});
        if (it == kfd_.end()) {
            finish(i, 0); // nothing open on the kernel path
            return;
        }
        const int fd = it->second;
        kfd_.erase(it);
        s_.kernel.sysClose(*p, fd,
                           [this, i](int rc) { finish(i, rc); });
    }

    /** Kernel-path fd for (proc, file); lazily opened under override. */
    int
    kernelFd(kern::Process &p, std::uint32_t procId, std::uint32_t f)
    {
        auto it = kfd_.find({procId, f});
        if (it != kfd_.end())
            return it->second;
        const int fd = s_.kernel.setupOpen(
            p, file(f),
            fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect);
        if (fd >= 0)
            kfd_[{procId, f}] = fd;
        return fd;
    }

    /**
     * Run @p cont with the BypassD fd for (proc, file), opening the
     * shim handle lazily when the stream was captured under a
     * different engine (the recorded setup opens were dropped).
     */
    void
    withBypassdFd(std::size_t i, kern::Process &p,
                  std::function<void(int)> cont)
    {
        const ReplayRec &r = ops_[i];
        if (opt_.engine >= 0 && !prepared_.count({r.proc, r.tid})) {
            s_.userLib(p).prepareThread(r.tid);
            prepared_.insert({r.proc, r.tid});
        }
        const Key key{r.proc, r.file};
        auto it = bfd_.find(key);
        if (it != bfd_.end()) {
            cont(it->second);
            return;
        }
        auto &lz = lazy_[key];
        lz.waiting.push_back(std::move(cont));
        if (lz.opening)
            return;
        lz.opening = true;
        s_.userLib(p).open(
            file(r.file),
            fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect, 0644,
            [this, key](int fd) {
                if (fd < 0)
                    return fail("replay: lazy bypassd open failed");
                bfd_[key] = fd;
                auto waiting = std::move(lazy_[key].waiting);
                lazy_.erase(key);
                for (auto &w : waiting)
                    w(fd);
            });
    }

    void
    runData(std::size_t i)
    {
        const ReplayRec &r = ops_[i];
        kern::Process *p = proc(r.proc);
        if (!p)
            return;
        auto cb = [this, i](long long n, kern::IoTrace) {
            finish(i, n);
        };
        auto icb = [this, i](int rc) {
            finish(i, rc);
        };
        std::span<std::uint8_t> b(buf_.data(), r.len);
        const bool isWrite = r.op == ReplayRec::Write;
        switch (static_cast<wl::Engine>(r.engine)) {
          case wl::Engine::Sync: {
            if (r.op == ReplayRec::Fsync) {
                s_.kernel.sysFsync(*p, kernelFd(*p, r.proc, r.file),
                                   icb);
            } else if (isWrite) {
                s_.kernel.sysPwrite(*p, kernelFd(*p, r.proc, r.file),
                                    b, r.offset, cb);
            } else {
                s_.kernel.sysPread(*p, kernelFd(*p, r.proc, r.file), b,
                                   r.offset, cb);
            }
            break;
          }
          case wl::Engine::Libaio: {
            const int fd = kernelFd(*p, r.proc, r.file);
            if (r.op == ReplayRec::Fsync)
                s_.kernel.sysFsync(*p, fd, icb);
            else if (isWrite)
                s_.aio.pwrite(*p, fd, b, r.offset, cb);
            else
                s_.aio.pread(*p, fd, b, r.offset, cb);
            break;
          }
          case wl::Engine::IoUring: {
            const Key rkey{r.proc, r.tid};
            auto it = rings_.find(rkey);
            if (it == rings_.end())
                it = rings_
                         .emplace(rkey,
                                  std::make_unique<kern::IoUring>(
                                      s_.kernel, *p))
                         .first;
            const int fd = kernelFd(*p, r.proc, r.file);
            if (r.op == ReplayRec::Fsync)
                s_.kernel.sysFsync(*p, fd, icb);
            else if (isWrite)
                it->second->pwrite(fd, b, r.offset, cb);
            else
                it->second->pread(fd, b, r.offset, cb);
            break;
          }
          case wl::Engine::Spdk: {
            if (r.op == ReplayRec::Fsync) {
                if (opt_.engine == static_cast<int>(wl::Engine::Spdk))
                    // Mapped fsync: the lane chain already orders it
                    // and raw spdk has no durability command, so the
                    // barrier completes immediately.
                    finish(i, 0);
                else
                    fail("replay: fsync has no spdk equivalent");
                break;
            }
            auto it = spdks_.find(r.proc);
            if (it == spdks_.end()) {
                // Lazily claim for streams mapped from file engines
                // (their recorded setup opens were dropped).
                auto drv = std::make_unique<spdk::SpdkDriver>(
                    s_.eq, s_.dev, s_.kernel.cpu(), p->pasid());
                if (!drv->init())
                    return fail("replay: spdk exclusive claim failed "
                                "(device already owned)");
                it = spdks_.emplace(r.proc, std::move(drv)).first;
            }
            if (isWrite)
                it->second->write(r.tid, r.offset, b, cb);
            else
                it->second->read(r.tid, r.offset, b, cb);
            break;
          }
          case wl::Engine::Bypassd: {
            withBypassdFd(i, *p, [this, i, r, p, b, cb,
                                  icb](int fd) {
                if (r.op == ReplayRec::Fsync)
                    s_.userLib(*p).fsync(r.tid, fd, icb);
                else if (r.op == ReplayRec::Write)
                    s_.userLib(*p).pwrite(r.tid, fd, b, r.offset, cb);
                else
                    s_.userLib(*p).pread(r.tid, fd, b, r.offset, cb);
            });
            break;
          }
          default:
            fail(sim::strf("replay: data record with engine %u",
                           r.engine));
        }
    }

    const RecordedProcess &rec_;
    const ReplayOptions &opt_;
    sys::SystemConfig cfg_;
    sys::System s_;
    std::vector<ReplayRec> ops_;
    std::vector<ReplayRec> out_;

    std::vector<int> chainSucc_;
    std::vector<int> depsLeft_;
    std::vector<Time> gap_;
    std::vector<char> isBarrier_;
    std::vector<std::vector<std::size_t>> barrierSucc_;
    std::vector<std::size_t> pendingBarriers_; //!< deps not yet met
    std::size_t completed_ = 0;

    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready_;
    bool draining_ = false;

    bool failed_ = false;
    std::string error_;

    std::map<std::uint32_t, kern::Process *> procs_;
    std::map<Key, int> kfd_;
    std::map<Key, int> bfd_;
    std::map<Key, std::unique_ptr<kern::IoUring>> rings_;
    std::map<std::uint32_t, std::unique_ptr<spdk::SpdkDriver>> spdks_;
    std::set<Key> prepared_;
    struct Lazy
    {
        bool opening = false;
        std::vector<std::function<void(int)>> waiting;
    };
    std::map<Key, Lazy> lazy_;

    std::vector<std::uint8_t> buf_;
    std::uint64_t dataOps_ = 0;
    std::uint64_t dataBytes_ = 0;
    sim::Histogram latency_;
};

} // namespace

bool
loadRecordedTrace(const std::string &path, RecordedTrace &out,
                  std::string &error)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::string text(static_cast<std::size_t>(in.tellg()), '\0');
    in.seekg(0);
    if (!in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
        error = "cannot read " + path;
        return false;
    }

    // The spans are checked but not kept: only "replay" is read.
    json::Value rep;
    if (!json::parseMember(text, "replay", rep, error))
        return false;
    if (rep.type == json::Value::Type::Null)
        return true; // trace predates replay capture, or none recorded
    if (!rep.isArray()) {
        error = "\"replay\" is not an array";
        return false;
    }
    for (const json::Value &pv : rep.arr) {
        RecordedProcess p;
        if (const json::Value *v = pv.find("process");
            v && v->isString())
            p.name = v->str;
        if (const json::Value *v = pv.find("pid"); v && v->isNumber())
            p.pid = static_cast<unsigned>(v->number);
        if (const json::Value *v = pv.find("partial"))
            p.partial = v->type == json::Value::Type::Bool && v->boolean;
        if (const json::Value *v = pv.find("missing");
            v && v->isArray()) {
            for (const json::Value &m : v->arr)
                if (m.isString())
                    p.missing.push_back(m.str);
        }
        if (const json::Value *v = pv.find("config"); v && v->isObject()) {
            p.hasMeta = true;
            for (const auto &[k, val] : v->obj)
                if (val.isNumber())
                    p.config.emplace_back(k, val.number);
        }
        if (const json::Value *v = pv.find("counters");
            v && v->isObject()) {
            for (const auto &[k, val] : v->obj)
                if (val.isNumber())
                    p.counters.emplace_back(k, val.asU64());
        }
        if (const json::Value *v = pv.find("digest"); v && v->isString())
            p.digest = std::strtoull(v->str.c_str(), nullptr, 16);
        if (const json::Value *v = pv.find("events"); v && v->isNumber())
            p.events = v->asU64();
        if (const json::Value *v = pv.find("sim_ns"); v && v->isNumber())
            p.simNs = static_cast<Time>(v->asU64());
        if (const json::Value *v = pv.find("files"); v && v->isArray()) {
            for (const json::Value &fv : v->arr)
                if (fv.isString())
                    p.files.push_back(fv.str);
        }
        if (const json::Value *v = pv.find("ops"); v && v->isArray()) {
            p.ops.reserve(v->arr.size());
            for (const json::Value &row : v->arr) {
                // 14 cells since the device column was added, 13 since
                // the tenant column; 12-cell rows are the oldest legacy
                // traces where tenant == proc (a process is a tenant)
                // and 13-cell ones predate device attribution (dev 0).
                if (!row.isArray()
                    || row.arr.size() < 12 || row.arr.size() > 14) {
                    error = "malformed ops row in process \"" + p.name
                            + "\"";
                    return false;
                }
                for (const json::Value &cell : row.arr) {
                    if (!cell.isNumber()) {
                        error = "non-numeric ops cell in process \""
                                + p.name + "\"";
                        return false;
                    }
                }
                const auto &a = row.arr;
                const std::size_t t = a.size() >= 13 ? 1 : 0;
                // Exact integer reads: the exporter writes these cells
                // with %PRIu64/%PRId64, and offset/aux/len above 2^53
                // would silently round through the parser's double.
                ReplayRec r;
                r.op = static_cast<std::uint8_t>(a[0].asU64());
                r.engine = static_cast<std::uint8_t>(a[1].asU64());
                r.lane = static_cast<std::uint16_t>(a[2].asU64());
                r.proc = static_cast<std::uint32_t>(a[3].asU64());
                r.tenant = t ? static_cast<TenantId>(a[4].asU64())
                             : static_cast<TenantId>(r.proc);
                r.tid = static_cast<std::uint32_t>(a[4 + t].asU64());
                r.file = static_cast<std::uint32_t>(a[5 + t].asU64());
                r.offset = a[6 + t].asU64();
                r.len = a[7 + t].asU64();
                r.aux = a[8 + t].asU64();
                r.issue = static_cast<Time>(a[9 + t].asU64());
                r.complete = static_cast<Time>(a[10 + t].asU64());
                r.result = a[11 + t].asI64();
                r.dev = a.size() == 14
                            ? static_cast<DevId>(a[13].asU64())
                            : 0;
                p.ops.push_back(r);
            }
        }
        out.processes.push_back(std::move(p));
    }
    return true;
}

bool
replayRun(const RecordedProcess &rec, const ReplayOptions &opt,
          ReplayResult &out, std::string &error)
{
    if (rec.partial) {
        std::string what;
        for (const std::string &m : rec.missing)
            what += (what.empty() ? "" : ", ") + m;
        error = "trace is partial (unreplayable ops: "
                + (what.empty() ? std::string("unknown") : what) + ")";
        return false;
    }
    if (rec.ops.empty()) {
        error = "process \"" + rec.name + "\" has no replay records";
        return false;
    }

    sys::SystemConfig cfg
        = rec.hasMeta ? configFromMap(rec.config) : sys::SystemConfig{};
    if (opt.walkCacheEntries >= 0)
        cfg.iommu.walkCacheEntries
            = static_cast<unsigned>(opt.walkCacheEntries);
    if (opt.ssdReadNs >= 0)
        cfg.ssd.readBaseNs = static_cast<Time>(opt.ssdReadNs);
    if (opt.ssdWriteNs >= 0)
        cfg.ssd.writeBaseNs = static_cast<Time>(opt.ssdWriteNs);

    std::vector<ReplayRec> ops;
    std::vector<RegionMapEntry> regions;
    if (!transformOps(rec, opt, cfg.deviceBytes, ops, regions, error))
        return false;
    out.regionMap = std::move(regions);

    sim::setVerbose(false);
    Replayer rp(rec, opt, cfg, std::move(ops));
    return rp.run(out, error);
}

} // namespace bpd::obs
