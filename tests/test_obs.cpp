/**
 * @file
 * Tests of the observability subsystem (src/obs/): metrics registry
 * snapshot/merge/JSON, tracer recording semantics (cached tracks,
 * the kern::openRequest envelope), span invariants on a real traced
 * BypassD run, Chrome trace-event export round-trip through the
 * bundled JSON parser, the one trace writer (spilled vs retained
 * spans, fleets at 1 and 2 shards, dropped spans), the JSON writer
 * and the bench-v1 document.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "system/fleet.hpp"
#include "system/system.hpp"
#include "tests/helpers.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, FindOrCreateReturnsStableHandles)
{
    obs::MetricsRegistry reg;
    obs::Counter &c1 = reg.counter("ssd", "ops");
    c1.add(3);
    obs::Counter &c2 = reg.counter("ssd", "ops");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 3u);

    obs::Gauge &g = reg.gauge("sim", "now_ns");
    g.set(42.5);
    EXPECT_DOUBLE_EQ(reg.gauge("sim", "now_ns").value(), 42.5);

    sim::Histogram &h = reg.histogram("obs", "req_total_ns");
    h.record(1000);
    EXPECT_EQ(reg.histogram("obs", "req_total_ns").count(), 1u);
}

TEST(Metrics, SnapshotCapturesAllKinds)
{
    obs::MetricsRegistry reg;
    reg.counter("a", "c").add(7);
    reg.gauge("a", "g").set(1.25);
    reg.histogram("a", "h").record(512);

    const obs::MetricsSnapshot s = reg.snapshot();
    ASSERT_EQ(s.counters.count("a.c"), 1u);
    EXPECT_EQ(s.counters.at("a.c"), 7u);
    ASSERT_EQ(s.gauges.count("a.g"), 1u);
    EXPECT_DOUBLE_EQ(s.gauges.at("a.g"), 1.25);
    ASSERT_EQ(s.histograms.count("a.h"), 1u);
    EXPECT_EQ(s.histograms.at("a.h").count(), 1u);
}

TEST(Metrics, MergeSumsCountersAndMergesHistogramsExactly)
{
    obs::MetricsRegistry a, b;
    a.counter("m", "c").add(10);
    b.counter("m", "c").add(5);
    b.counter("m", "only_b").add(2);
    a.gauge("m", "g").set(1.0);
    b.gauge("m", "g").set(2.0);
    for (int i = 0; i < 100; i++)
        a.histogram("m", "h").record(100);
    for (int i = 0; i < 100; i++)
        b.histogram("m", "h").record(10000);

    obs::MetricsSnapshot s = a.snapshot();
    s.merge(b.snapshot());

    EXPECT_EQ(s.counters.at("m.c"), 15u);
    EXPECT_EQ(s.counters.at("m.only_b"), 2u);
    EXPECT_DOUBLE_EQ(s.gauges.at("m.g"), 2.0); // overwrite semantics
    // Histograms are carried whole, so the merged percentile is exact:
    // 200 samples, half at 100 and half at 10000.
    const sim::Histogram &h = s.histograms.at("m.h");
    EXPECT_EQ(h.count(), 200u);
    EXPECT_LE(h.percentile(25), 150.0);
    EXPECT_GE(h.percentile(75), 5000.0);
}

TEST(Metrics, ToJsonRoundTripsThroughParser)
{
    obs::MetricsRegistry reg;
    reg.counter("ssd", "ops").add(123);
    reg.gauge("sim", "now_ns").set(5e9);
    sim::Histogram &h = reg.histogram("obs", "req_total_ns");
    for (int i = 1; i <= 1000; i++)
        h.record(static_cast<std::uint64_t>(i));

    const std::string text = reg.snapshot().toJson();
    obs::json::Value root;
    std::string err;
    ASSERT_TRUE(obs::json::parse(text, root, err)) << err;
    ASSERT_TRUE(root.isObject());

    const obs::json::Value *counters = root.find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    const obs::json::Value *ops = counters->find("ssd.ops");
    ASSERT_TRUE(ops && ops->isNumber());
    EXPECT_EQ(static_cast<std::uint64_t>(ops->number), 123u);

    const obs::json::Value *gauges = root.find("gauges");
    ASSERT_TRUE(gauges && gauges->isObject());
    const obs::json::Value *now = gauges->find("sim.now_ns");
    ASSERT_TRUE(now && now->isNumber());
    EXPECT_DOUBLE_EQ(now->number, 5e9);

    const obs::json::Value *hists = root.find("histograms");
    ASSERT_TRUE(hists && hists->isObject());
    const obs::json::Value *ht = hists->find("obs.req_total_ns");
    ASSERT_TRUE(ht && ht->isObject());
    const obs::json::Value *count = ht->find("count");
    ASSERT_TRUE(count && count->isNumber());
    EXPECT_EQ(static_cast<std::uint64_t>(count->number), 1000u);
}

// ---------------------------------------------------------------------
// Tracer recording semantics
// ---------------------------------------------------------------------

TEST(Tracer, RecordsSpansInstantsAndRequests)
{
    sim::EventQueue eq;
    obs::MetricsRegistry reg;
    obs::Tracer t(eq, obs::Level::Device, &reg);

    EXPECT_TRUE(t.wants(obs::Level::Requests));
    EXPECT_TRUE(t.wants(obs::Level::Device));

    const std::uint16_t track = t.track("test");
    EXPECT_EQ(t.track("test"), track); // interned, not duplicated

    const obs::TraceId id1 = t.newTrace();
    const obs::TraceId id2 = t.newTrace();
    EXPECT_NE(id1, 0u);
    EXPECT_GT(id2, id1);

    t.span(track, "layer.op", id1, 100, 250, {{"bytes", 4096}});
    t.instant(track, "layer.event", id1);
    obs::RequestBreakdown b;
    b.userNs = 10;
    b.kernelNs = 20;
    b.translateNs = 30;
    b.deviceNs = 40;
    b.bytes = 4096;
    t.request(track, "engine.pread", id1, 100, 300, b);

    ASSERT_EQ(t.spanCount(), 3u);
    const obs::SpanRec &span = t.data().spans[0];
    EXPECT_STREQ(span.name, "layer.op");
    EXPECT_EQ(span.phase, 'X');
    EXPECT_EQ(span.start, 100u);
    EXPECT_EQ(span.end, 250u);
    ASSERT_EQ(span.nargs, 1u);
    EXPECT_STREQ(span.args[0].key, "bytes");
    EXPECT_EQ(span.args[0].value, 4096);

    EXPECT_EQ(t.data().spans[1].phase, 'i');
    EXPECT_EQ(t.data().spans[1].start, t.data().spans[1].end);

    // The request envelope carries the Table-1 axes as args and feeds
    // the obs.req_*_ns histograms.
    const obs::SpanRec &env = t.data().spans[2];
    std::map<std::string, std::int64_t> args;
    for (unsigned i = 0; i < env.nargs; i++)
        args[env.args[i].key] = env.args[i].value;
    EXPECT_EQ(args.at("user_ns"), 10);
    EXPECT_EQ(args.at("kernel_ns"), 20);
    EXPECT_EQ(args.at("xlate_ns"), 30);
    EXPECT_EQ(args.at("device_ns"), 40);
    EXPECT_EQ(args.at("bytes"), 4096);
    EXPECT_EQ(reg.snapshot().histograms.at("obs.req_total_ns").count(),
              1u);
}

TEST(Tracer, LevelGatesVerbosity)
{
    sim::EventQueue eq;
    obs::Tracer t(eq, obs::Level::Requests);
    EXPECT_TRUE(t.wants(obs::Level::Requests));
    EXPECT_FALSE(t.wants(obs::Level::Layers));
    EXPECT_FALSE(t.wants(obs::Level::Device));
}

TEST(Tracer, LiteralTracksInternEachNameOnce)
{
    // The literal-keyed caches return the same id as interning the
    // built name, also for a copy of the literal at another address.
    sim::EventQueue eq;
    obs::Tracer t(eq, obs::Level::Requests);
    const std::uint16_t q3 = t.track("nvme.q", 3);
    EXPECT_EQ(t.data().tracks.at(q3), "nvme.q3");
    EXPECT_EQ(t.track("nvme.q", 3), q3);
    EXPECT_EQ(t.track(std::string("nvme.q3")), q3);
    const char prefix[] = "nvme.q";
    EXPECT_EQ(t.track(prefix, 3), q3);
    EXPECT_NE(t.track("nvme.q", 4), q3);

    const std::uint16_t fs = t.track("fs");
    EXPECT_EQ(t.data().tracks.at(fs), "fs");
    EXPECT_EQ(t.track("fs"), fs);
    EXPECT_EQ(t.track(std::string("fs")), fs);
    const char name[] = "fs";
    EXPECT_EQ(t.track(name), fs);
    EXPECT_EQ(t.data().tracks.size(), 4u); // misc, nvme.q3, nvme.q4, fs
}

TEST(Tracer, OpenRequestRecordsTheEnvelopeAtCompletion)
{
    sim::EventQueue eq;
    obs::Tracer t(eq, obs::Level::Requests);
    int calls = 0;
    auto cb = [&](long long, kern::IoTrace) { calls++; };

    // Tracing off: no trace id, the tenant kept, nothing recorded.
    kern::Request off = kern::openRequest(nullptr, 5, "x.read", "x.p", 1, cb);
    EXPECT_EQ(off.trace(), 0u);
    EXPECT_EQ(off.tenant(), 5u);
    off.finish(0, kern::IoTrace{});
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(t.spanCount(), 0u);

    // Tracing on: the envelope spans submission to finish(), on the
    // numbered track, owned by the tenant, with the IoTrace breakdown.
    eq.schedule(100, [&] {
        kern::Request req = kern::openRequest(&t, 5, "x.read", "x.p", 1, cb);
        EXPECT_NE(req.trace(), 0u);
        EXPECT_EQ(t.tenantOf(req.trace()), 5u);
        EXPECT_EQ(req.tenant(), 5u);
        eq.schedule(350, [req = std::move(req)]() mutable {
            kern::IoTrace tr;
            tr.userNs = 50;
            tr.kernelNs = 120;
            tr.deviceNs = 80;
            req.finish(4096, tr);
        });
    });
    eq.run();
    EXPECT_EQ(calls, 2);
    ASSERT_EQ(t.spanCount(), 1u);
    const obs::SpanRec &env = t.data().spans[0];
    EXPECT_STREQ(env.name, "x.read");
    EXPECT_EQ(t.data().tracks.at(env.track), "x.p1");
    EXPECT_EQ(env.start, 100u);
    EXPECT_EQ(env.end, 350u);
    EXPECT_EQ(env.tenant, 5u);
    std::map<std::string, std::int64_t> args;
    for (unsigned i = 0; i < env.nargs; i++)
        args[env.args[i].key] = env.args[i].value;
    EXPECT_EQ(args.at("user_ns"), 50);
    EXPECT_EQ(args.at("kernel_ns"), 120);
    EXPECT_EQ(args.at("xlate_ns"), 0);
    EXPECT_EQ(args.at("device_ns"), 80);
    EXPECT_EQ(args.at("bytes"), 4096);
}

// ---------------------------------------------------------------------
// Span invariants on a real traced run
// ---------------------------------------------------------------------

namespace {

/** Small traced run over @p engines (sync + BypassD by default). */
sys::System *
tracedRun(obs::Level level,
          std::initializer_list<wl::Engine> engines
          = {wl::Engine::Sync, wl::Engine::Bypassd},
          wl::RwMode rw = wl::RwMode::RandRead)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 99;
    auto *s = new sys::System(cfg);
    s->enableTracing(level);
    wl::FioRunner runner(*s);
    int jobNum = 0;
    for (wl::Engine e : engines) {
        wl::FioJob job;
        job.engine = e;
        job.rw = rw;
        job.bs = 4096;
        job.numJobs = 2;
        job.runtime = 1 * kMs;
        job.warmup = 100 * kUs;
        job.fileBytes = 4ull << 20;
        job.seed = 99 + jobNum;
        job.filePrefix = sim::strf("/obs%d", jobNum);
        jobNum++;
        runner.run(job);
    }
    return s;
}

bool
isEnvelope(const obs::SpanRec &rec)
{
    for (unsigned i = 0; i < rec.nargs; i++) {
        if (std::string(rec.args[i].key) == "user_ns")
            return true;
    }
    return false;
}

/** Map of request-id -> envelope, asserting the own-envelope rule. */
std::map<obs::TraceId, const obs::SpanRec *>
collectEnvelopes(const obs::TraceData &d)
{
    std::map<obs::TraceId, const obs::SpanRec *> envelopes;
    for (const obs::SpanRec &rec : d.spans) {
        if (!isEnvelope(rec))
            continue;
        EXPECT_NE(rec.trace, 0u);
        EXPECT_EQ(envelopes.count(rec.trace), 0u);
        envelopes[rec.trace] = &rec;
    }
    return envelopes;
}

/** Count device spans named @p name nesting inside their envelope. */
std::size_t
countNested(const obs::TraceData &d,
            const std::map<obs::TraceId, const obs::SpanRec *> &envelopes,
            const char *name)
{
    std::size_t nested = 0;
    for (const obs::SpanRec &rec : d.spans) {
        if (std::string(rec.name) != name || rec.trace == 0)
            continue;
        auto it = envelopes.find(rec.trace);
        if (it == envelopes.end())
            continue;
        EXPECT_GE(rec.start, it->second->start);
        EXPECT_LE(rec.end, it->second->end);
        nested++;
    }
    return nested;
}

} // namespace

TEST(TracedRun, SpanInvariantsHold)
{
    std::unique_ptr<sys::System> s(tracedRun(obs::Level::Device));
    const obs::Tracer *t = s->tracer();
    ASSERT_NE(t, nullptr);
    const obs::TraceData &d = t->data();
    ASSERT_GT(d.spans.size(), 100u);
    ASSERT_GE(d.tracks.size(), 1u);

    std::map<obs::TraceId, const obs::SpanRec *> envelopes;
    for (const obs::SpanRec &rec : d.spans) {
        ASSERT_NE(rec.name, nullptr);
        EXPECT_LE(rec.start, rec.end);
        EXPECT_LE(rec.end, s->now());
        EXPECT_LT(rec.track, d.tracks.size());
        EXPECT_LE(rec.nargs, obs::SpanRec::kMaxArgs);
        if (rec.phase == 'i')
            EXPECT_EQ(rec.start, rec.end);
        else
            EXPECT_EQ(rec.phase, 'X');
        if (isEnvelope(rec)) {
            EXPECT_NE(rec.trace, 0u);
            // Exactly one envelope per request id (own-envelope rule).
            EXPECT_EQ(envelopes.count(rec.trace), 0u);
            envelopes[rec.trace] = &rec;
        }
    }
    ASSERT_GT(envelopes.size(), 50u);

    // Both engines produced envelopes.
    std::set<std::string> envNames;
    for (const auto &[id, rec] : envelopes)
        envNames.insert(rec->name);
    EXPECT_EQ(envNames.count("sync.pread"), 1u);
    EXPECT_EQ(envNames.count("bypassd.pread"), 1u);

    // Device-level nvme.cmd spans nest inside their request envelope.
    std::size_t nested = 0;
    for (const obs::SpanRec &rec : d.spans) {
        if (std::string(rec.name) != "nvme.cmd" || rec.trace == 0)
            continue;
        auto it = envelopes.find(rec.trace);
        if (it == envelopes.end())
            continue;
        EXPECT_GE(rec.start, it->second->start);
        EXPECT_LE(rec.end, it->second->end);
        nested++;
    }
    EXPECT_GT(nested, 50u);
}

TEST(TracedRun, RequestsLevelOmitsDeviceDetail)
{
    std::unique_ptr<sys::System> s(tracedRun(obs::Level::Requests));
    const obs::TraceData &d = s->tracer()->data();
    std::size_t envelopes = 0;
    for (const obs::SpanRec &rec : d.spans) {
        EXPECT_TRUE(std::string(rec.name) != "nvme.cmd"
                    && std::string(rec.name) != "nvme.media"
                    && std::string(rec.name) != "iommu.ats_translate")
            << rec.name;
        if (isEnvelope(rec))
            envelopes++;
    }
    EXPECT_GT(envelopes, 50u);
}

TEST(TracedRun, AsyncEngineEnvelopesNestDeviceSpans)
{
    std::unique_ptr<sys::System> s(tracedRun(
        obs::Level::Device,
        {wl::Engine::Libaio, wl::Engine::IoUring, wl::Engine::Spdk}));
    const obs::TraceData &d = s->tracer()->data();
    const auto envelopes = collectEnvelopes(d);
    ASSERT_GT(envelopes.size(), 50u);

    // All three async engines produced their own envelope type.
    std::set<std::string> envNames;
    for (const auto &[id, rec] : envelopes)
        envNames.insert(rec->name);
    EXPECT_EQ(envNames.count("libaio.pread"), 1u);
    EXPECT_EQ(envNames.count("uring.pread"), 1u);
    EXPECT_EQ(envNames.count("spdk.read"), 1u);

    // Device-level nvme.cmd spans nest inside the envelopes of the
    // kernel engines and of SPDK's raw path alike.
    EXPECT_GT(countNested(d, envelopes, "nvme.cmd"), 50u);
}

TEST(TracedRun, FmapSpansPrecedeBypassdRequests)
{
    std::unique_ptr<sys::System> s(
        tracedRun(obs::Level::Device, {wl::Engine::Bypassd}));
    const obs::TraceData &d = s->tracer()->data();

    // Earliest BypassD request envelope: fmap happens at open time,
    // strictly before the I/O loop starts issuing.
    Time firstReq = s->now();
    for (const obs::SpanRec &rec : d.spans) {
        if (isEnvelope(rec) && std::string(rec.name) == "bypassd.pread")
            firstReq = std::min(firstReq, rec.start);
    }

    std::size_t cold = 0, warm = 0;
    for (const obs::SpanRec &rec : d.spans) {
        const std::string name = rec.name;
        if (name != "bypassd.fmap_cold" && name != "bypassd.fmap_warm")
            continue;
        (name == "bypassd.fmap_cold" ? cold : warm)++;
        EXPECT_EQ(rec.phase, 'X');
        EXPECT_LT(rec.start, rec.end); // fmap cost modelled as duration
        EXPECT_LE(rec.end, firstReq);
        bool hasBytes = false;
        for (unsigned i = 0; i < rec.nargs; i++) {
            if (std::string(rec.args[i].key) == "bytes") {
                hasBytes = true;
                EXPECT_GT(rec.args[i].value, 0);
            }
        }
        EXPECT_TRUE(hasBytes);
    }
    // One cold fmap per job file; counts agree with the module.
    EXPECT_EQ(cold, s->module.coldFmaps());
    EXPECT_EQ(warm, s->module.warmFmaps());
    EXPECT_GT(cold + warm, 0u);
}

TEST(TracedRun, JournalCommitInstantsMatchJournalAtLayersLevel)
{
    std::unique_ptr<sys::System> s(
        tracedRun(obs::Level::Layers,
                  {wl::Engine::Sync, wl::Engine::Bypassd},
                  wl::RwMode::RandWrite));
    const obs::TraceData &d = s->tracer()->data();
    std::size_t commits = 0;
    for (const obs::SpanRec &rec : d.spans) {
        if (std::string(rec.name) != "journal.commit")
            continue;
        EXPECT_EQ(rec.phase, 'i');
        ASSERT_EQ(rec.nargs, 1u);
        EXPECT_STREQ(rec.args[0].key, "records");
        EXPECT_GE(rec.args[0].value, 1);
        commits++;
    }
    EXPECT_GT(commits, 0u);
    EXPECT_EQ(commits, s->ext4.journal().committedTxns());

    // At Requests level the journal instants (and fmap spans) are
    // suppressed along with the rest of the layer detail.
    std::unique_ptr<sys::System> r(
        tracedRun(obs::Level::Requests,
                  {wl::Engine::Sync, wl::Engine::Bypassd},
                  wl::RwMode::RandWrite));
    for (const obs::SpanRec &rec : r->tracer()->data().spans) {
        const std::string name = rec.name;
        EXPECT_TRUE(name != "journal.commit"
                    && name != "bypassd.fmap_cold"
                    && name != "bypassd.fmap_warm")
            << name;
    }
}

TEST(TracedRun, FaultedBypassdReadFinishesInTheKernelUnderOneEnvelope)
{
    // A kernel-interface open revokes direct access. The next BypassD
    // pread faults, re-fmaps to VBA 0 and completes through the kernel,
    // and stays one bypassd.pread request: the kernel opens no
    // sync.pread envelope for it.
    sim::setVerbose(false);
    sys::System s(test::smallConfig());
    s.enableTracing(obs::Level::Device);
    kern::Process &a = s.newProcess();
    bypassd::UserLib &lib = s.userLib(a);
    test::kClose(s, a, s.kernel.setupCreateFile(a, "/f", 1 << 20, 7));
    const int fd
        = test::ulOpen(s, lib, "/f", fs::kOpenRead | fs::kOpenDirect);
    ASSERT_TRUE(lib.isDirect(fd));
    kern::Process &b = s.newProcess();
    ASSERT_GE(test::kOpen(s, b, "/f", fs::kOpenRead), 0);

    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(test::ulPread(s, lib, 0, fd, buf, 0).n, 4096);
    EXPECT_EQ(lib.iommuFaults(), 1u);
    EXPECT_FALSE(lib.isDirect(fd));

    std::vector<const obs::SpanRec *> envelopes;
    std::set<obs::TraceId> faultTraces, kernelTraces;
    for (const obs::SpanRec &rec : s.tracer()->data().spans) {
        const std::string name = rec.name;
        if (isEnvelope(rec))
            envelopes.push_back(&rec);
        if (name == "bypassd.iommu_fault")
            faultTraces.insert(rec.trace);
        if (name == "kern.vfs_submit" || name == "kern.exit")
            kernelTraces.insert(rec.trace);
    }
    ASSERT_EQ(envelopes.size(), 1u);
    EXPECT_STREQ(envelopes[0]->name, "bypassd.pread");
    // The fault and the kernel leg belong to the same request.
    EXPECT_EQ(faultTraces, std::set<obs::TraceId>{envelopes[0]->trace});
    EXPECT_EQ(kernelTraces, std::set<obs::TraceId>{envelopes[0]->trace});
}

// ---------------------------------------------------------------------
// Chrome trace-event export round-trip
// ---------------------------------------------------------------------

TEST(Export, ChromeTraceRoundTripsThroughParser)
{
    std::unique_ptr<sys::System> s(tracedRun(obs::Level::Device));
    s->collectMetrics();
    const obs::TraceData data = s->tracer()->data();
    const obs::MetricsSnapshot snap = s->metrics.snapshot();
    s.reset();  // records must outlive the emitting System

    const std::string path = ::testing::TempDir() + "bpd_obs_trace.json";
    obs::TraceWriter w;
    ASSERT_TRUE(w.open(path));
    w.append("testrun", data);
    ASSERT_TRUE(w.close());

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    obs::json::Value root;
    std::string err;
    ASSERT_TRUE(obs::json::parse(text, root, err)) << err;
    ASSERT_TRUE(root.isObject());
    const obs::json::Value *events = root.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    std::size_t complete = 0, instant = 0, meta = 0;
    for (const obs::json::Value &ev : events->arr) {
        ASSERT_TRUE(ev.isObject());
        const obs::json::Value *ph = ev.find("ph");
        ASSERT_TRUE(ph && ph->isString());
        if (ph->str == "X") {
            complete++;
            const obs::json::Value *dur = ev.find("dur");
            ASSERT_TRUE(dur && dur->isNumber());
            EXPECT_GE(dur->number, 0.0);
        } else if (ph->str == "i") {
            instant++;
        } else {
            EXPECT_EQ(ph->str, "M");
            meta++;
        }
    }
    // Every recorded span/instant appears exactly once; metadata names
    // the process and each track-thread.
    std::size_t wantComplete = 0, wantInstant = 0;
    for (const obs::SpanRec &rec : data.spans)
        (rec.phase == 'X' ? wantComplete : wantInstant)++;
    EXPECT_EQ(complete, wantComplete);
    EXPECT_EQ(instant, wantInstant);
    EXPECT_EQ(meta, 1 + data.tracks.size());

    // Metrics dump round-trips too.
    const std::string mpath
        = ::testing::TempDir() + "bpd_obs_metrics.json";
    ASSERT_TRUE(obs::writeMetricsFile(mpath, {{"testrun", snap}}));
    std::FILE *mf = std::fopen(mpath.c_str(), "rb");
    ASSERT_NE(mf, nullptr);
    std::string mtext;
    while ((n = std::fread(buf, 1, sizeof(buf), mf)) > 0)
        mtext.append(buf, n);
    std::fclose(mf);
    std::remove(mpath.c_str());

    obs::json::Value mroot;
    ASSERT_TRUE(obs::json::parse(mtext, mroot, err)) << err;
    const obs::json::Value *runs = mroot.find("runs");
    ASSERT_TRUE(runs && runs->isObject());
    const obs::json::Value *run = runs->find("testrun");
    ASSERT_TRUE(run && run->isObject());
    const obs::json::Value *counters = run->find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    const obs::json::Value *ops = counters->find("ssd.ops");
    ASSERT_TRUE(ops && ops->isNumber());
    EXPECT_GT(ops->number, 0.0);
}

// ---------------------------------------------------------------------
// The one trace writer: spilled spans, fleets, dropped spans
// ---------------------------------------------------------------------

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A traced BypassD random-read run of some 20k spans, streamed to
 *  @p sink when one is given. */
std::unique_ptr<sys::System>
spanHeavyRun(obs::SpanSink *sink)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 5;
    auto s = std::make_unique<sys::System>(cfg);
    s->enableTracing(obs::Level::Device).setStream(sink);
    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 4;
    job.runtime = 4 * kMs;
    job.warmup = 100 * kUs;
    job.fileBytes = 4ull << 20;
    job.seed = 3;
    job.filePrefix = "/spill";
    wl::FioRunner(*s).run(job);
    s->tracer()->setStream(nullptr);
    return s;
}

obs::ReplayMeta
metaOf(sys::System &s)
{
    obs::ReplayMeta meta;
    meta.digest = obs::replayDigest(s.tracer()->data().replay);
    meta.events = s.eq.executed();
    meta.simNs = s.now();
    return meta;
}

/** A small second process, so pids and separators are checked too. */
obs::TraceData
tinyTrace()
{
    sim::EventQueue eq;
    obs::Tracer t(eq, obs::Level::Device);
    t.span(t.track("tiny"), "tiny.op", t.newTrace(7), 10, 20,
           {{"bytes", 512}});
    return t.data();
}

} // namespace

TEST(TraceWriter, SpilledRunWritesTheSameBytesAsRetained)
{
    const std::string pathA = ::testing::TempDir() + "bpd_retained.json";
    const std::string pathB = ::testing::TempDir() + "bpd_spilled.json";
    const obs::TraceData tiny = tinyTrace();

    std::unique_ptr<sys::System> a = spanHeavyRun(nullptr);
    obs::TraceWriter retained;
    ASSERT_TRUE(retained.open(pathA));
    const obs::ReplayMeta metaA = metaOf(*a);
    retained.append("run", a->tracer()->data(), &metaA);
    retained.append("tiny", tiny);
    ASSERT_TRUE(retained.close());

    obs::TraceWriter spilled;
    ASSERT_TRUE(spilled.open(pathB));
    std::unique_ptr<obs::SpanSpill> sink = spilled.sink();
    std::unique_ptr<sys::System> b = spanHeavyRun(sink.get());
    EXPECT_TRUE(b->tracer()->data().spans.empty());
    EXPECT_EQ(sink->size(), a->tracer()->data().spans.size());
    EXPECT_GT(sink->size(), 3 * obs::SpanSpill::kBufferSpans);
    const obs::ReplayMeta metaB = metaOf(*b);
    spilled.append("run", b->tracer()->data(), &metaB, sink.get());
    spilled.append("tiny", tiny);
    ASSERT_TRUE(spilled.close());

    const std::string textA = readFile(pathA);
    std::remove(pathA.c_str());
    const std::string textB = readFile(pathB);
    std::remove(pathB.c_str());
    EXPECT_GT(textA.size(), 1000000u);
    EXPECT_TRUE(textA == textB) << "spilled trace differs from retained";
}

TEST(TraceWriter, FailedSpillFailsTheTraceInsteadOfShorteningIt)
{
    const std::string path = ::testing::TempDir() + "bpd_failed_spill.json";
    obs::TraceWriter w;
    ASSERT_TRUE(w.open(path));
    std::unique_ptr<obs::SpanSpill> sink = w.sink();
    sim::EventQueue eq;
    obs::Tracer t(eq, obs::Level::Device);
    t.setStream(sink.get());
    const std::uint16_t track = t.track("spill");

    // A zero file-size limit makes every spill write fail (EFBIG, with
    // SIGXFSZ ignored).
    struct rlimit old = {};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old), 0);
    struct rlimit none = old;
    none.rlim_cur = 0;
    const auto oldHandler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &none), 0);
    for (Time i = 0; i < 2 * obs::SpanSpill::kBufferSpans; i++)
        t.span(track, "spill.op", t.newTrace(), i, i + 1);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old), 0);
    std::signal(SIGXFSZ, oldHandler);

    t.setStream(nullptr);
    EXPECT_LT(sink->size(), t.spanCount());
    w.append("run", t.data(), nullptr, sink.get());
    EXPECT_FALSE(w.close());
    EXPECT_FALSE(std::ifstream(path).good()) << "partial trace left behind";
}

TEST(TraceWriter, SinkOfAWriterNotOpenKeepsNothing)
{
    obs::TraceWriter w;
    std::unique_ptr<obs::SpanSpill> sink = w.sink();
    std::unique_ptr<sys::System> s = spanHeavyRun(sink.get());
    EXPECT_GT(s->tracer()->spanCount(), 0u);
    EXPECT_TRUE(s->tracer()->data().spans.empty());
    EXPECT_EQ(sink->size(), 0u);
    w.append("run", s->tracer()->data(), nullptr, sink.get());
    EXPECT_TRUE(w.close());
}

namespace {

/** Run two fleet machines at @p shards under bench::ObsCapture --trace
 *  and return the trace file's bytes. */
std::string
tracedFleet(unsigned shards)
{
    sim::setVerbose(false);
    bench::ObsCapture obs;
    obs.tracePath = ::testing::TempDir()
                    + sim::strf("bpd_fleet_trace_s%u.json", shards);
    sys::FleetConfig fc;
    fc.systems = 2;
    fc.shards = shards;
    fc.deviceBytes = 1ull << 30;
    sys::Fleet fleet(fc);

    std::vector<std::unique_ptr<wl::FioRunner>> runners;
    std::vector<wl::FioPending> pending;
    Time horizon = 0;
    for (unsigned i = 0; i < fleet.size(); i++) {
        sys::System &s = fleet.system(i);
        obs.attach(s);
        wl::FioJob j;
        j.engine = wl::Engine::Bypassd;
        j.rw = wl::RwMode::RandRead;
        j.bs = 4096;
        j.numJobs = 4;
        j.runtime = 3 * kMs;
        j.warmup = 100 * kUs;
        j.fileBytes = 4ull << 20;
        j.seed = 1 + i;
        j.filePrefix = sim::strf("/fleet%u_f", i);
        runners.push_back(std::make_unique<wl::FioRunner>(s));
        pending.push_back(runners.back()->arm(j));
        horizon = std::max(horizon, s.now() + j.warmup + j.runtime);
    }
    fleet.start(horizon);
    fleet.run();
    for (unsigned i = 0; i < fleet.size(); i++) {
        runners[i]->collect(std::move(pending[i]));
        EXPECT_GT(fleet.system(i).tracer()->spanCount(),
                  obs::SpanSpill::kBufferSpans);
        obs.capture(sim::strf("fleet/sys%u", i), fleet.system(i));
    }
    EXPECT_TRUE(obs.write());
    const std::string text = readFile(obs.tracePath);
    std::remove(obs.tracePath.c_str());
    return text;
}

} // namespace

TEST(FleetTrace, TwoShardsWriteTheSameBytesAsOne)
{
    const std::string one = tracedFleet(1);
    const std::string two = tracedFleet(2);
    EXPECT_GT(one.size(), 1000000u);
    EXPECT_TRUE(one == two) << "fleet trace depends on the shard count";
}

TEST(ObsCapture, MetricsOnlyCaptureKeepsNoSpans)
{
    bench::ObsCapture obs;
    obs.metricsPath = ::testing::TempDir() + "bpd_metrics_only.json";
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    sys::System s(cfg);
    obs.attach(s);
    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.runtime = 500 * kUs;
    job.fileBytes = 2ull << 20;
    wl::FioRunner(s).run(job);
    EXPECT_GT(s.tracer()->spanCount(), 0u);
    EXPECT_TRUE(s.tracer()->data().spans.empty());
    obs.capture("run", s);
    EXPECT_TRUE(obs.write());
    EXPECT_FALSE(readFile(obs.metricsPath).empty());
    std::remove(obs.metricsPath.c_str());
}

// ---------------------------------------------------------------------
// Bundled JSON parser corner cases
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsEscapesAndNesting)
{
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(
        R"({"a": [1, -2.5, 3e2], "s": "x\n\"y\"", "t": true,)"
        R"( "nil": null, "o": {"k": 7}})",
        v, err))
        << err;
    const obs::json::Value *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->arr.size(), 3u);
    EXPECT_DOUBLE_EQ(a->arr[0].number, 1.0);
    EXPECT_DOUBLE_EQ(a->arr[1].number, -2.5);
    EXPECT_DOUBLE_EQ(a->arr[2].number, 300.0);
    const obs::json::Value *str = v.find("s");
    ASSERT_TRUE(str && str->isString());
    EXPECT_EQ(str->str, "x\n\"y\"");
    const obs::json::Value *o = v.find("o");
    ASSERT_TRUE(o && o->isObject());
    const obs::json::Value *k = o->find("k");
    ASSERT_TRUE(k && k->isNumber());
    EXPECT_DOUBLE_EQ(k->number, 7.0);
}

TEST(Json, RejectsMalformedInput)
{
    obs::json::Value v;
    std::string err;
    EXPECT_FALSE(obs::json::parse("{", v, err));
    EXPECT_FALSE(obs::json::parse("[1,]", v, err));
    EXPECT_FALSE(obs::json::parse("{\"a\": }", v, err));
    EXPECT_FALSE(obs::json::parse("tru", v, err));
    EXPECT_FALSE(obs::json::parse("{} trailing", v, err));
    // RFC 8259: control characters inside strings must be escaped.
    EXPECT_FALSE(obs::json::parse("\"a\tb\"", v, err));
    EXPECT_FALSE(obs::json::parse("{\"k\": \"a\nb\"}", v, err));
    EXPECT_FALSE(obs::json::parse(R"("\q")", v, err));
}

TEST(Json, MemberParseKeepsOneMemberAndChecksTheRest)
{
    using obs::json::parseMember;
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(parseMember(
        R"({"traceEvents": [{"a": 1}, {"b": [2, "x"]}], "replay": [1, 2]})",
        "replay", v, err))
        << err;
    ASSERT_TRUE(v.isArray());
    EXPECT_EQ(v.arr.size(), 2u);
    ASSERT_TRUE(parseMember(R"({"a": 1})", "replay", v, err)) << err;
    EXPECT_EQ(v.type, obs::json::Value::Type::Null);

    // A malformed element inside a skipped array is still an error.
    EXPECT_FALSE(parseMember(R"({"traceEvents": [{"a": 1}, {"b": }],)"
                             R"( "replay": []})",
                             "replay", v, err));
    EXPECT_FALSE(parseMember("{\"traceEvents\": [\"a\tb\"], \"replay\": []}",
                             "replay", v, err));
    EXPECT_FALSE(parseMember(R"({"replay": []} trailing)", "replay", v,
                             err));
    EXPECT_FALSE(parseMember("[1]", "replay", v, err));
}

TEST(Json, WriterRoundTripsParsedDocument)
{
    const std::string doc
        = R"({"a": [1, -2.5, 3e2, [], {}, [{"n": null, "t": true}]],)"
          R"( "max": 18446744073709551615, "f": false,)"
          R"( "s": "q\"b\\s\n\t\u0001\u00e9\/",)"
          R"( "o": {"k": {"deep": [0.125, "x"]}, "": 0}})";
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(doc, v, err)) << err;

    obs::json::Writer w;
    w.value(v);
    obs::json::Value back;
    ASSERT_TRUE(obs::json::parse(w.text(), back, err))
        << err << "\n" << w.text();
    EXPECT_TRUE(back == v) << w.text();
    EXPECT_EQ(back.find("max")->asU64(), UINT64_MAX);
    EXPECT_EQ(back.find("s")->str, "q\"b\\s\n\t\x01\xc3\xa9/");
}

TEST(BenchJson, EscapesLabelNameAndStringFields)
{
    const std::string nasty = "a \"quoted\" \\ and\nnewline";
    obs::BenchJson bj;
    obs::BenchJson::Scenario &sc = bj.add("name " + nasty);
    obs::BenchJson::fieldS(sc, "s", "value " + nasty);
    obs::BenchJson::field(sc, "n", UINT64_MAX);

    const std::string path = ::testing::TempDir() + "bpd_bench_json.json";
    ASSERT_TRUE(bj.write(path, "label " + nasty));
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    std::remove(path.c_str());

    obs::json::Value root;
    std::string err;
    ASSERT_TRUE(obs::json::parse(text.str(), root, err)) << err;
    EXPECT_EQ(root.find("schema")->str, "bypassd-bench-v1");
    EXPECT_EQ(root.find("label")->str, "label " + nasty);
    const obs::json::Value &row = root.find("scenarios")->arr.at(0);
    EXPECT_EQ(row.find("name")->str, "name " + nasty);
    EXPECT_EQ(row.find("s")->str, "value " + nasty);
    EXPECT_EQ(row.find("n")->asU64(), UINT64_MAX);
}
