/**
 * @file
 * Trace-driven replay (src/obs/replay.*): the round-trip contract —
 * capture a traced run, export it, parse it back, re-drive it through a
 * fresh System, and require bit-identical stream digests and curated
 * counters — plus cross-configuration replay (engine override,
 * walk-cache sizing, lane capping), SPDK-target raw-region mapping,
 * and the refusal paths.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "sim/logging.hpp"
#include "ssd/block_store.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

namespace {

struct CapturedRun
{
    obs::TraceData data;
    obs::ReplayMeta meta;
};

/** Run @p job traced, snapshot trace + replay metadata like the bench
 *  binaries' ObsCapture does. */
CapturedRun
captureFio(const wl::FioJob &job, std::uint64_t seed = 7)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = seed;
    sys::System s(cfg);
    s.enableTracing(obs::Level::Requests);
    wl::FioRunner runner(s);
    runner.run(job);

    CapturedRun cap;
    cap.data = s.tracer()->data();
    cap.meta.config = obs::configToMap(s.cfg);
    cap.meta.counters = obs::curatedCounters(s);
    cap.meta.digest = obs::replayDigest(cap.data.replay);
    cap.meta.events = s.eq.executed();
    cap.meta.simNs = s.now();
    return cap;
}

/** Export to a temp file and parse back; expects one replay stream. */
obs::RecordedProcess
roundTripLoad(const CapturedRun &cap, const std::string &tag)
{
    const std::string path
        = ::testing::TempDir() + "bpd_replay_" + tag + ".json";
    obs::TraceWriter w;
    EXPECT_TRUE(w.open(path));
    w.append(tag, cap.data, &cap.meta);
    EXPECT_TRUE(w.close());

    obs::RecordedTrace trace;
    std::string err;
    EXPECT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    std::remove(path.c_str());
    EXPECT_EQ(trace.processes.size(), 1u);
    return trace.processes.empty() ? obs::RecordedProcess{}
                                   : trace.processes[0];
}

wl::FioJob
smallJob(wl::Engine e, wl::RwMode rw)
{
    wl::FioJob job;
    job.engine = e;
    job.rw = rw;
    job.bs = 4096;
    job.numJobs = 2;
    job.runtime = 500 * kUs;
    job.warmup = 50 * kUs;
    job.fileBytes = 2ull << 20;
    job.seed = 11;
    job.filePrefix = "/replay";
    return job;
}

void
expectRoundTrip(const obs::RecordedProcess &rec)
{
    ASSERT_TRUE(rec.hasMeta);
    ASSERT_FALSE(rec.partial);
    obs::ReplayResult res;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, {}, res, err)) << err;
    EXPECT_EQ(res.digest, rec.digest)
        << "replayed stream diverged from capture";
    for (const auto &[k, v] : res.counters) {
        for (const auto &[rk, rv] : rec.counters)
            if (rk == k)
                EXPECT_EQ(v, rv) << "counter " << k;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Round trip: identical config => bit-identical digests and counters
// ---------------------------------------------------------------------

TEST(ReplayRoundTrip, SyncRandRead)
{
    const CapturedRun cap
        = captureFio(smallJob(wl::Engine::Sync, wl::RwMode::RandRead));
    expectRoundTrip(roundTripLoad(cap, "sync_rr"));
}

TEST(ReplayRoundTrip, BypassdRandRead)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    expectRoundTrip(roundTripLoad(cap, "bpd_rr"));
}

TEST(ReplayRoundTrip, BypassdRandWriteExercisesJournal)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Bypassd, wl::RwMode::RandWrite));
    const obs::RecordedProcess rec = roundTripLoad(cap, "bpd_rw");
    bool journaled = false;
    for (const auto &[k, v] : rec.counters)
        if (k == "journal_commits" && v > 0)
            journaled = true;
    EXPECT_TRUE(journaled);
    expectRoundTrip(rec);
}

TEST(ReplayRoundTrip, IoUringRandRead)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::IoUring, wl::RwMode::RandRead));
    expectRoundTrip(roundTripLoad(cap, "uring_rr"));
}

TEST(ReplayRoundTrip, LibaioRandRead)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Libaio, wl::RwMode::RandRead));
    expectRoundTrip(roundTripLoad(cap, "aio_rr"));
}

// ---------------------------------------------------------------------
// Cross-configuration replay
// ---------------------------------------------------------------------

TEST(ReplayCrossConfig, BypassdStreamUnderIoUring)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    const obs::RecordedProcess rec = roundTripLoad(cap, "xcfg");

    std::uint64_t dataOps = 0;
    for (const auto &r : rec.ops)
        if (r.op == obs::ReplayRec::Read
            || r.op == obs::ReplayRec::Write
            || r.op == obs::ReplayRec::Fsync)
            dataOps++;

    obs::ReplayOptions opt;
    opt.engine = static_cast<int>(wl::Engine::IoUring);
    obs::ReplayResult res;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, opt, res, err)) << err;
    // Same request stream, different data path: every data op is
    // re-driven, but timing (and hence the digest) diverges.
    EXPECT_EQ(res.ops, dataOps);
    EXPECT_NE(res.digest, rec.digest);
    // The kernel path does not touch the IOMMU's VBA machinery.
    for (const auto &[k, v] : res.counters)
        if (k == "vba_translations")
            EXPECT_EQ(v, 0u);
}

TEST(ReplayCrossConfig, WalkCacheSizingChangesTimingOnly)
{
    // Two 8 MiB files span 8 walk-cache regions (2 MiB each), more
    // than a 4-entry walk cache holds.
    wl::FioJob job = smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead);
    job.fileBytes = 8ull << 20;
    const CapturedRun cap = captureFio(job);
    const obs::RecordedProcess rec = roundTripLoad(cap, "walk_cache");

    obs::ReplayOptions opt;
    opt.walkCacheEntries = 4;
    obs::ReplayResult res;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, opt, res, err)) << err;
    obs::ReplayResult base;
    ASSERT_TRUE(obs::replayRun(rec, {}, base, err)) << err;
    // The same ops, re-timed: upper-level walks now miss the cache.
    EXPECT_EQ(res.ops, base.ops);
    EXPECT_NE(res.digest, base.digest);
}

TEST(ReplayCrossConfig, LaneCapReplaysSubset)
{
    wl::FioJob job = smallJob(wl::Engine::Sync, wl::RwMode::RandRead);
    job.numJobs = 4;
    const CapturedRun cap = captureFio(job);
    const obs::RecordedProcess rec = roundTripLoad(cap, "lanes");

    obs::ReplayOptions opt;
    opt.lanes = 1;
    obs::ReplayResult capped, full;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, opt, capped, err)) << err;
    ASSERT_TRUE(obs::replayRun(rec, {}, full, err)) << err;
    EXPECT_GT(capped.ops, 0u);
    EXPECT_LT(capped.ops, full.ops);
}

// ---------------------------------------------------------------------
// SPDK as a replay target: file captures map onto raw device regions
// ---------------------------------------------------------------------

namespace {

std::uint64_t
countDataOps(const obs::RecordedProcess &rec)
{
    std::uint64_t n = 0;
    for (const auto &r : rec.ops)
        if (r.op == obs::ReplayRec::Read || r.op == obs::ReplayRec::Write
            || r.op == obs::ReplayRec::Fsync)
            n++;
    return n;
}

void
expectSpdkMappedReplay(const obs::RecordedProcess &rec)
{
    obs::ReplayOptions opt;
    opt.engine = static_cast<int>(wl::Engine::Spdk);
    obs::ReplayResult res;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, opt, res, err)) << err;

    // Every recorded data op re-drives on the raw path (replayRun
    // fails on any stalled record, so equality means 100% completed).
    EXPECT_GT(res.ops, 0u);
    EXPECT_EQ(res.ops, countDataOps(rec));

    // Raw path: no fs, no VBA machinery.
    for (const auto &[k, v] : res.counters) {
        if (k == "vba_translations")
            EXPECT_EQ(v, 0u);
        if (k == "device_ops")
            EXPECT_GT(v, 0u);
    }

    // One region per recorded file, extent-aligned and disjoint.
    ASSERT_EQ(res.regionMap.size(), rec.files.size());
    std::uint64_t prevEnd = 0;
    for (const auto &e : res.regionMap) {
        EXPECT_EQ(e.base % ssd::BlockStore::kExtentBytes, 0u);
        EXPECT_EQ(e.bytes % ssd::BlockStore::kExtentBytes, 0u);
        EXPECT_GE(e.base, prevEnd);
        EXPECT_GT(e.ops, 0u);
        prevEnd = e.base + e.bytes;
    }
}

} // namespace

TEST(ReplaySpdkTarget, BypassdCaptureMapsOntoSpdk)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    expectSpdkMappedReplay(roundTripLoad(cap, "spdk_bpd"));
}

TEST(ReplaySpdkTarget, SyncCaptureMapsOntoSpdk)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));
    expectSpdkMappedReplay(roundTripLoad(cap, "spdk_sync"));
}

TEST(ReplaySpdkTarget, FsyncIsBarrierUnlessStrict)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));
    obs::RecordedProcess rec = roundTripLoad(cap, "spdk_fsync");

    // No recording site emits fsync records today; append one to the
    // stream, modeled on the last recorded data op.
    obs::ReplayRec fsrec;
    for (const auto &r : rec.ops)
        if (r.op == obs::ReplayRec::Write)
            fsrec = r;
    ASSERT_EQ(fsrec.op, obs::ReplayRec::Write);
    fsrec.op = obs::ReplayRec::Fsync;
    fsrec.offset = 0;
    fsrec.len = 0;
    fsrec.issue = rec.ops.back().complete + kUs;
    fsrec.complete = fsrec.issue + kUs;
    fsrec.result = 0;
    rec.ops.push_back(fsrec);

    obs::ReplayOptions opt;
    opt.engine = static_cast<int>(wl::Engine::Spdk);
    obs::ReplayResult res;
    std::string err;
    ASSERT_TRUE(obs::replayRun(rec, opt, res, err)) << err;
    EXPECT_EQ(res.ops, countDataOps(rec)); // fsync barrier completed

    opt.strict = true;
    obs::ReplayResult strictRes;
    EXPECT_FALSE(obs::replayRun(rec, opt, strictRes, err));
    EXPECT_NE(err.find("fsync"), std::string::npos) << err;
}

TEST(ReplaySpdkTarget, AppendGrowthRefused)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));
    obs::RecordedProcess rec = roundTripLoad(cap, "spdk_growth");

    // A write reaching past the recorded create size needs EOF-growth
    // semantics the raw path cannot provide.
    obs::ReplayRec grow;
    for (const auto &r : rec.ops)
        if (r.op == obs::ReplayRec::Write)
            grow = r;
    ASSERT_EQ(grow.op, obs::ReplayRec::Write);
    grow.offset = 2ull << 20; // == smallJob fileBytes, so past EOF
    grow.issue = rec.ops.back().complete + kUs;
    grow.complete = grow.issue + kUs;
    rec.ops.push_back(grow);

    obs::ReplayOptions opt;
    opt.engine = static_cast<int>(wl::Engine::Spdk);
    obs::ReplayResult res;
    std::string err;
    EXPECT_FALSE(obs::replayRun(rec, opt, res, err));
    EXPECT_NE(err.find("create size"), std::string::npos) << err;
}

TEST(ReplaySpdkTarget, MappingDeterministicAcrossLoads)
{
    const CapturedRun cap = captureFio(
        smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    const obs::RecordedProcess a = roundTripLoad(cap, "spdk_det_a");
    const obs::RecordedProcess b = roundTripLoad(cap, "spdk_det_b");

    obs::ReplayOptions opt;
    opt.engine = static_cast<int>(wl::Engine::Spdk);
    obs::ReplayResult ra, rb;
    std::string err;
    ASSERT_TRUE(obs::replayRun(a, opt, ra, err)) << err;
    ASSERT_TRUE(obs::replayRun(b, opt, rb, err)) << err;

    EXPECT_EQ(ra.digest, rb.digest);
    ASSERT_EQ(ra.regionMap.size(), rb.regionMap.size());
    for (std::size_t i = 0; i < ra.regionMap.size(); i++) {
        EXPECT_EQ(ra.regionMap[i].file, rb.regionMap[i].file);
        EXPECT_EQ(ra.regionMap[i].path, rb.regionMap[i].path);
        EXPECT_EQ(ra.regionMap[i].base, rb.regionMap[i].base);
        EXPECT_EQ(ra.regionMap[i].bytes, rb.regionMap[i].bytes);
        EXPECT_EQ(ra.regionMap[i].ops, rb.regionMap[i].ops);
    }
}

// ---------------------------------------------------------------------
// Refusal paths
// ---------------------------------------------------------------------

TEST(ReplayRefusal, PartialStream)
{
    const CapturedRun cap
        = captureFio(smallJob(wl::Engine::Sync, wl::RwMode::RandRead));
    obs::RecordedProcess rec = roundTripLoad(cap, "partial");
    rec.partial = true;
    rec.missing.push_back("xrp.chain");
    obs::ReplayResult res;
    std::string err;
    EXPECT_FALSE(obs::replayRun(rec, {}, res, err));
    EXPECT_NE(err.find("xrp.chain"), std::string::npos);
}

TEST(ReplayRefusal, EmptyStream)
{
    obs::RecordedProcess rec;
    rec.name = "empty";
    obs::ReplayResult res;
    std::string err;
    EXPECT_FALSE(obs::replayRun(rec, {}, res, err));
}

// ---------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------

TEST(ReplayLoad, TraceWithoutReplaySectionYieldsNoProcesses)
{
    const std::string path
        = ::testing::TempDir() + "bpd_replay_nosec.json";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}", f);
    std::fclose(f);

    obs::RecordedTrace trace;
    std::string err;
    ASSERT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    EXPECT_TRUE(trace.processes.empty());
    std::remove(path.c_str());
}

TEST(ReplayLoad, MalformedOpsRowRejected)
{
    const std::string path
        = ::testing::TempDir() + "bpd_replay_badrow.json";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"traceEvents\":[],\"displayTimeUnit\":\"ns\","
               "\"replay\":[{\"process\":\"x\",\"pid\":1,"
               "\"files\":[],\"ops\":[[1,2,3]]}]}",
               f);
    std::fclose(f);

    obs::RecordedTrace trace;
    std::string err;
    EXPECT_FALSE(obs::loadRecordedTrace(path, trace, err));
    std::remove(path.c_str());
}

TEST(ReplayLoad, U64FieldsRoundTripExactly)
{
    // offset and aux exceed a double's 53-bit mantissa: a strtod-only
    // parse would round them and corrupt the stream digest.
    obs::TraceData data;
    data.files.push_back("/big");
    obs::ReplayRec r;
    r.op = obs::ReplayRec::Read;
    r.engine = static_cast<std::uint8_t>(wl::Engine::Sync);
    r.lane = 0;
    r.proc = 1;
    r.tenant = 1;
    r.tid = 3;
    r.file = 0;
    r.offset = (1ull << 53) + 1;
    r.len = 4096;
    r.aux = 0xFFFFFFFFFFFFFFFFull;
    r.issue = (1ull << 61) + 7;
    r.complete = (1ull << 61) + 9;
    r.result = -((std::int64_t{1} << 53) + 1);
    data.replay.push_back(r);

    obs::ReplayMeta meta;
    meta.digest = obs::replayDigest(data.replay);

    const std::string path
        = ::testing::TempDir() + "bpd_replay_u64.json";
    obs::TraceWriter w;
    ASSERT_TRUE(w.open(path));
    w.append("u64", data, &meta);
    ASSERT_TRUE(w.close());
    obs::RecordedTrace trace;
    std::string err;
    ASSERT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    std::remove(path.c_str());

    ASSERT_EQ(trace.processes.size(), 1u);
    const obs::RecordedProcess &p = trace.processes[0];
    ASSERT_EQ(p.ops.size(), 1u);
    EXPECT_EQ(p.ops[0].offset, (1ull << 53) + 1);
    EXPECT_EQ(p.ops[0].aux, 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(p.ops[0].issue, (1ull << 61) + 7);
    EXPECT_EQ(p.ops[0].complete, (1ull << 61) + 9);
    EXPECT_EQ(p.ops[0].result, r.result);
    EXPECT_EQ(obs::replayDigest(p.ops), p.digest)
        << "loaded stream no longer matches the recorded digest";
}

TEST(ReplayLoad, UnicodeEscapedPathsDecodeToUtf8)
{
    const std::string path
        = ::testing::TempDir() + "bpd_replay_uni.json";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // BMP escapes plus an emoji surrogate pair in the file name.
    std::fputs(
        "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\","
        "\"replay\":[{\"process\":\"x\",\"pid\":1,"
        "\"files\":[\"/d\\u00e9j\\u00e0/\\uD83D\\uDE00.dat\"],"
        "\"ops\":[[1,0,0,1,1,0,0,4096,4096,0,10,20,4096]]}]}",
        f);
    std::fclose(f);

    obs::RecordedTrace trace;
    std::string err;
    ASSERT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(trace.processes.size(), 1u);
    ASSERT_EQ(trace.processes[0].files.size(), 1u);
    EXPECT_EQ(trace.processes[0].files[0],
              "/d\xC3\xA9j\xC3\xA0/\xF0\x9F\x98\x80.dat");
}

TEST(ReplayLoad, ConfigRoundTripsThroughMap)
{
    sys::SystemConfig cfg;
    cfg.seed = 1234;
    cfg.iommu.walkCacheEntries = 96;
    cfg.ssd.readBaseNs = 7777;
    auto map = obs::configToMap(cfg);
    // Keys this build no longer knows (an older capture's IOTLB size)
    // are ignored, so such captures still load.
    map.emplace_back("iommu_iotlb_entries", 96);
    map.emplace_back("iommu_iotlb_ways", 4);
    const sys::SystemConfig back = obs::configFromMap(map);
    EXPECT_EQ(back.seed, 1234u);
    EXPECT_EQ(back.iommu.walkCacheEntries, 96u);
    EXPECT_EQ(back.ssd.readBaseNs, 7777u);
    EXPECT_EQ(obs::configToMap(back), obs::configToMap(cfg));
}
