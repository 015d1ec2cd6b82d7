/**
 * @file
 * Fig. 11: I/O scheduling in the device — 4 KiB random-read latency of
 * a foreground process while 1..16 background reader processes hammer
 * the device. BypassD relies on the device's round-robin arbitration
 * across queues for fairness.
 *
 * Every cell runs with per-tenant attribution on and asserts the
 * attribution invariant (sum over tenants == system totals,
 * bit-exactly) after the drive loop — this is the fairness gate CI
 * runs. With --out, a bypassd-bench-v1 JSON is written whose scenarios
 * carry per-tenant iops/fmap/revocation fields next to the system
 * totals. The drive loops record replay streams, so a --trace capture
 * of this bench is replayable with trace_replay.
 */

#include <functional>

#include "bench/common.hpp"
#include "bench/recording.hpp"

using namespace bpd;
using namespace bpd::wl;

namespace {

struct Reader
{
    kern::Process *proc = nullptr;
    bypassd::UserLib *lib = nullptr;
    int fd = -1;
    std::uint32_t fileId = obs::ReplayRec::kNoFile;
    std::vector<std::uint8_t> buf;
    sim::Rng rng{0};
};

std::unique_ptr<Reader>
makeReader(sys::System &s, bench::Recorder &rec, const std::string &path,
           std::uint64_t bytes, std::uint32_t uid, std::uint64_t seed,
           bool viaBypassd)
{
    auto r = std::make_unique<Reader>();
    r->proc = &s.newProcess(uid, uid);
    r->fileId = rec.file(path);
    const int cfd
        = rec.createFile(*r->proc, r->fileId, path, bytes, 0,
                         viaBypassd ? Engine::Bypassd : Engine::Sync);
    sim::panicIf(cfd < 0, "reader file setup failed");
    if (viaBypassd) {
        int rc = -1;
        rec.sysClose(*r->proc, cfd, r->fileId, [&rc](int x) { rc = x; },
                     Engine::Bypassd);
        s.run();
        r->lib = &s.userLib(*r->proc);
        int fd = -1;
        rec.open(*r->lib, *r->proc, r->fileId, path,
                 fs::kOpenRead | fs::kOpenDirect,
                 [&fd](int f) { fd = f; });
        s.run();
        sim::panicIf(fd < 0, "reader open failed");
        r->fd = fd;
    } else {
        r->fd = cfd;
    }
    r->buf.assign(4096, 0);
    r->rng = sim::Rng(seed);
    return r;
}

double
foregroundLatency(Engine fgEngine, unsigned backgroundReaders,
                  bench::ObsCapture &obs, bench::BenchJson *out)
{
    const std::string label = sim::strf(
        "fig11_%s_%ubg", toString(fgEngine), backgroundReaders);
    auto s = bench::makeSystem(64ull << 30);
    obs.attach(*s);
    s->enableTenantAccounting();
    bench::Recorder rec(*s);
    constexpr std::uint64_t kFile = 256ull << 20;

    // Background readers always use the BypassD interface (they model
    // other tenants sharing the device).
    std::vector<std::unique_ptr<Reader>> bgs;
    for (unsigned i = 0; i < backgroundReaders; i++) {
        bgs.push_back(makeReader(*s, rec,
                                 "/bg" + std::to_string(i) + ".dat",
                                 kFile, 3000 + i, 100 + i, true));
    }
    auto fg = makeReader(*s, rec, "/fg.dat", kFile, 2000, 77,
                         fgEngine == Engine::Bypassd);

    const Time start = s->now();
    const Time measureStart = start + 1 * kMs;
    const Time tEnd = measureStart + 8 * kMs;
    rec.cpuAcquire(*fg->proc, backgroundReaders + 1);

    // The drive loops live on this frame: s->run() below drains them.
    // Background load: queue depth 4 per process until tEnd.
    std::vector<std::function<void()>> bgLoops(bgs.size());
    for (std::size_t i = 0; i < bgs.size(); i++) {
        Reader *bg = bgs[i].get();
        std::function<void()> &loop = bgLoops[i];
        loop = [bg, &loop, tEnd, &s, &rec]() {
            if (s->now() >= tEnd)
                return;
            const std::uint64_t off
                = bg->rng.nextUint(kFile / 4096) * 4096;
            rec.pread(*bg->lib, *bg->proc, 0, bg->fd, bg->buf, off, 0,
                      bg->fileId,
                      [&loop](long long, kern::IoTrace) { loop(); });
        };
        for (int d = 0; d < 4; d++)
            loop();
    }

    // Foreground: QD1 4 KiB random reads; record measured-window ops.
    auto lat = std::make_shared<sim::Histogram>();
    Reader *f = fg.get();
    std::function<void()> fgLoop = [f, &fgLoop, lat, measureStart, tEnd,
                                    fgEngine, &s, &rec]() {
        if (s->now() >= tEnd)
            return;
        const std::uint64_t off = f->rng.nextUint(kFile / 4096) * 4096;
        const Time t0 = s->now();
        auto done = [&fgLoop, lat, t0, measureStart, tEnd,
                     &s](long long n, kern::IoTrace) {
            sim::panicIf(n < 0, "foreground read failed");
            if (t0 >= measureStart && s->now() <= tEnd)
                lat->record(s->now() - t0);
            fgLoop();
        };
        if (fgEngine == Engine::Bypassd)
            rec.pread(*f->lib, *f->proc, 0, f->fd, f->buf, off, 0,
                      f->fileId, done);
        else
            rec.sysPread(*f->proc, f->fd, f->buf, off, 0, f->fileId,
                         done);
    };
    fgLoop();

    s->run();
    rec.cpuRelease(*fg->proc, backgroundReaders + 1);
    // The fairness gate: attribution must sum exactly to the totals.
    bench::checkTenantSums(*s);
    obs.capture(label, *s);

    if (out) {
        bench::BenchJson::Scenario &sc = out->add(label);
        const double simSec = static_cast<double>(s->now()) / 1e9;
        bench::BenchJson::field(sc, "events", s->eq.executed());
        bench::BenchJson::field(sc, "sim_ns", s->now());
        bench::BenchJson::fieldF(sc, "fg_mean_lat_ns", lat->mean());
        bench::BenchJson::field(sc, "device_ops", s->dev.totalOps());
        bench::BenchJson::field(sc, "syscalls",
                                s->kernel.syscallCount());
        bench::tenantFields(sc, *s, simSec);
    }
    return lat->mean();
}

/**
 * The QoS gate (PR 10): three victim tenants run QD-1 BypassD reads
 * while an aggressor tenant hammers at QD-16. Uncapped, round-robin
 * arbitration alone lets the aggressor eat most of the device (the
 * ROADMAP's complaint about fig11). With a 50k IOPS token-bucket cap on
 * the aggressor the gate demands two things at once:
 *   1. the cap holds: aggressor completion rate within ±5% of 50k, and
 *   2. the victims keep their SLO: merged p99 within 1.5x of the
 *      no-aggressor baseline (measured with the same QoS registry
 *      enabled, so the baseline also covers digest-neutral wiring).
 * Returns false — and main exits non-zero — on any breach.
 */
bool
runQosGate(bench::ObsCapture &obs, bench::BenchJson *out)
{
    constexpr std::uint64_t kFile = 256ull << 20;
    constexpr double kCapIops = 50000.0;
    constexpr unsigned kVictims = 3;

    double baseP99 = 0, cappedP99 = 0, aggrIops = 0;
    std::uint64_t throttles = 0;

    for (int phase = 0; phase < 2; phase++) {
        const bool withAggressor = phase == 1;
        const std::string label
            = withAggressor ? "fig11_qos_capped" : "fig11_qos_base";
        auto s = bench::makeSystem(64ull << 30);
        obs.attach(*s);
        s->enableTenantAccounting();
        // Both cells enable QoS; the baseline simply sets no limits
        // (an unlimited registry admits without touching state).
        qos::Registry &qos = s->enableQos();
        bench::Recorder rec(*s);

        std::vector<std::unique_ptr<Reader>> victims;
        for (unsigned i = 0; i < kVictims; i++) {
            victims.push_back(
                makeReader(*s, rec, "/victim" + std::to_string(i) + ".dat",
                           kFile, 2000 + i, 77 + i, true));
        }
        std::unique_ptr<Reader> aggr;
        if (withAggressor) {
            aggr = makeReader(*s, rec, "/aggr.dat", kFile, 3000, 100,
                              true);
            qos::TenantLimit lim;
            lim.iopsLimit = static_cast<std::uint64_t>(kCapIops);
            lim.burstOps = 8; // tight bucket: ±8 ops of slack per window
            qos.setLimit(aggr->proc->pasid(), lim);
        }

        const Time start = s->now();
        const Time measureStart = start + 1 * kMs;
        const Time tEnd = measureStart + 8 * kMs;
        const unsigned nProcs = kVictims + (withAggressor ? 1 : 0);
        rec.cpuAcquire(*victims[0]->proc, nProcs);

        // The drive loops live on this frame: s->run() drains them.
        auto lat = std::make_shared<sim::Histogram>();
        std::vector<std::function<void()>> victimLoops(victims.size());
        for (std::size_t i = 0; i < victims.size(); i++) {
            Reader *v = victims[i].get();
            std::function<void()> &loop = victimLoops[i];
            loop = [v, &loop, lat, measureStart, tEnd, &s, &rec]() {
                if (s->now() >= tEnd)
                    return;
                const std::uint64_t off
                    = v->rng.nextUint(kFile / 4096) * 4096;
                const Time t0 = s->now();
                rec.pread(*v->lib, *v->proc, 0, v->fd, v->buf, off, 0,
                          v->fileId,
                          [&loop, lat, t0, measureStart, tEnd,
                           &s](long long n, kern::IoTrace) {
                              sim::panicIf(n < 0, "victim read failed");
                              if (t0 >= measureStart && s->now() <= tEnd)
                                  lat->record(s->now() - t0);
                              loop();
                          });
            };
            loop();
        }

        auto aggrOps = std::make_shared<std::uint64_t>(0);
        std::function<void()> aggrLoop;
        if (withAggressor) {
            Reader *a = aggr.get();
            aggrLoop = [a, &aggrLoop, aggrOps, measureStart, tEnd, &s,
                        &rec]() {
                if (s->now() >= tEnd)
                    return;
                const std::uint64_t off
                    = a->rng.nextUint(kFile / 4096) * 4096;
                rec.pread(*a->lib, *a->proc, 0, a->fd, a->buf, off, 0,
                          a->fileId,
                          [&aggrLoop, aggrOps, measureStart, tEnd,
                           &s](long long n, kern::IoTrace) {
                              sim::panicIf(n < 0, "aggressor read failed");
                              if (s->now() > measureStart
                                  && s->now() <= tEnd)
                                  (*aggrOps)++;
                              aggrLoop();
                          });
            };
            for (int d = 0; d < 16; d++)
                aggrLoop();
        }

        s->run();
        rec.cpuRelease(*victims[0]->proc, nProcs);
        bench::checkTenantSums(*s);
        obs.capture(label, *s);

        const double winSec
            = static_cast<double>(tEnd - measureStart) / 1e9;
        if (withAggressor) {
            cappedP99 = static_cast<double>(lat->p99());
            aggrIops = static_cast<double>(*aggrOps) / winSec;
            throttles = s->qos()->throttles();
        } else {
            baseP99 = static_cast<double>(lat->p99());
        }

        if (out) {
            bench::BenchJson::Scenario &sc = out->add(label);
            const double simSec = static_cast<double>(s->now()) / 1e9;
            bench::BenchJson::field(sc, "events", s->eq.executed());
            bench::BenchJson::field(sc, "sim_ns", s->now());
            bench::BenchJson::fieldF(sc, "victim_p99_ns",
                                     static_cast<double>(lat->p99()));
            bench::BenchJson::fieldF(sc, "victim_mean_ns", lat->mean());
            bench::BenchJson::field(sc, "device_ops", s->dev.totalOps());
            bench::BenchJson::field(sc, "qos_throttles",
                                    s->qos()->throttles());
            bench::BenchJson::field(sc, "qos_throttled_bytes",
                                    s->qos()->throttledBytes());
            if (withAggressor)
                bench::BenchJson::fieldF(sc, "aggr_iops", aggrIops);
            bench::tenantFields(sc, *s, simSec);
        }
    }

    const double capErr = (aggrIops - kCapIops) / kCapIops;
    const bool capHolds = capErr >= -0.05 && capErr <= 0.05;
    const bool sloHolds = cappedP99 <= 1.5 * baseP99;
    std::printf("\nQoS gate: aggressor %.0f IOPS vs cap %.0f (%+.1f%%, "
                "%llu throttles) -> %s\n",
                aggrIops, kCapIops, capErr * 100.0,
                (unsigned long long)throttles,
                capHolds ? "ok" : "BREACH");
    std::printf("QoS gate: victim p99 %.0f ns vs baseline %.0f ns "
                "(%.2fx, bound 1.50x) -> %s\n",
                cappedP99, baseP99,
                baseP99 > 0 ? cappedP99 / baseP99 : 0.0,
                sloHolds ? "ok" : "BREACH");
    return capHolds && sloHolds;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsCapture obs;
    std::string outPath;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: fig11_fairness [--out FILE] "
                         "[--trace FILE] [--metrics FILE] "
                         "[--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Fig. 11",
                  "4KB random-read latency with background readers");

    bench::BenchJson json;
    bench::BenchJson *out = outPath.empty() ? nullptr : &json;
    const unsigned readers[] = {0, 1, 2, 4, 8, 12, 16};
    std::printf("%-10s", "engine");
    for (unsigned n : readers)
        std::printf(" %8s", sim::strf("%ubg", n).c_str());
    std::printf("   (us)\n");
    for (Engine e : {Engine::Sync, Engine::Bypassd}) {
        std::printf("%-10s", toString(e));
        for (unsigned n : readers)
            std::printf(" %8.1f",
                        foregroundLatency(e, n, obs, out) / 1e3);
        std::printf("\n");
    }
    std::printf("\nPaper shape: latency grows with device load, but "
                "BypassD stays below\nthe kernel baseline even with 16 "
                "background readers — the device's\nround-robin queue "
                "arbitration balances the load.\n");
    const bool qosOk = runQosGate(obs, out);
    if (out && !json.write(outPath, "fig11"))
        return 1;
    if (!obs.write())
        return 1;
    return qosOk ? 0 : 1;
}
