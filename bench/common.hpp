/**
 * @file
 * Shared helpers for the per-figure/table benchmark binaries: aligned
 * table printing and system/job construction shortcuts.
 */

#ifndef BPD_BENCH_COMMON_HPP
#define BPD_BENCH_COMMON_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "sim/fnv.hpp"
#include "sim/logging.hpp"
#include "sim/stats.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

namespace bpd::bench {

using sim::fnv;
using sim::kFnvSeed;

/** Fold a latency histogram's shape into the digest @p h. */
inline std::uint64_t
hashHistogram(std::uint64_t h, const sim::Histogram &hist)
{
    h = fnv(h, hist.count());
    h = fnv(h, hist.min());
    h = fnv(h, hist.max());
    h = fnv(h, hist.p50());
    h = fnv(h, hist.p99());
    h = fnv(h, hist.p999());
    return h;
}

/** Host wall-clock seconds (steady clock), for run-time fields. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Print a banner naming the experiment and the paper artifact. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("\n==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

/** Print one row of right-aligned cells after a left label. */
inline void
row(const std::string &label, const std::vector<std::string> &cells,
    int labelWidth = 22, int cellWidth = 11)
{
    std::printf("%-*s", labelWidth, label.c_str());
    for (const auto &c : cells)
        std::printf("%*s", cellWidth, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(const char *f, double v)
{
    return sim::strf(f, v);
}

/** Fresh default system (quiet). */
inline std::unique_ptr<sys::System>
makeSystem(std::uint64_t deviceBytes = 32ull << 30,
           std::uint64_t seed = 42)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = deviceBytes;
    cfg.seed = seed;
    return std::make_unique<sys::System>(cfg);
}

/** Run one fio job on a fresh system. */
inline wl::FioResult
runFio(const wl::FioJob &job, sys::SystemConfig cfg = {})
{
    sim::setVerbose(false);
    if (cfg.deviceBytes == (sys::SystemConfig{}).deviceBytes)
        cfg.deviceBytes = 64ull << 30;
    sys::System s(cfg);
    wl::FioRunner runner(s);
    return runner.run(job);
}

/**
 * Shared --trace/--metrics plumbing for the bench binaries. Each traced
 * run (a System lifetime) gets a span sink of its own at attach() and
 * becomes one Perfetto process of the trace file at capture(); spans
 * spill to disk rather than accumulate in RSS, and without --trace
 * they are dropped. All runs merge into one metrics document.
 *
 * Any capture also turns on per-tenant attribution: tenant accounting
 * only observes the simulation (digests are unchanged), and enabling it
 * on every traced run means the CI traced-vs-untraced digest gate
 * doubles as the accounting-on/off neutrality gate.
 */
struct ObsCapture
{
    std::string tracePath;
    std::string metricsPath;
    obs::Level level = obs::Level::Device;
    std::vector<obs::MetricsRun> runs;

    bool enabled() const
    {
        return !tracePath.empty() || !metricsPath.empty();
    }

    /**
     * Consume "--trace FILE", "--metrics FILE" or "--trace-level N" at
     * argv[i]. Returns how many argv slots were consumed (0 when the
     * argument is not one of ours).
     */
    int
    parseArg(int argc, char **argv, int i)
    {
        const std::string a = argv[i];
        if (a == "--trace" && i + 1 < argc) {
            tracePath = argv[i + 1];
            return 2;
        }
        if (a == "--metrics" && i + 1 < argc) {
            metricsPath = argv[i + 1];
            return 2;
        }
        if (a == "--trace-level" && i + 1 < argc) {
            const int v = std::atoi(argv[i + 1]);
            level = v <= 1 ? obs::Level::Requests
                           : (v == 2 ? obs::Level::Layers
                                     : obs::Level::Device);
            return 2;
        }
        return 0;
    }

    /** Enable tracing and tenant accounting on @p s when capture was
     *  requested. */
    void
    attach(sys::System &s)
    {
        if (!enabled())
            return;
        attach(s.enableTracing(level));
        s.enableTenantAccounting();
    }

    /** Give @p t (a System's or a standalone one) its span sink. */
    void
    attach(obs::Tracer &t)
    {
        if (!enabled())
            return;
        std::unique_ptr<obs::SpanSpill> &sink = sinks_[&t];
        sink = writer().sink();
        t.setStream(sink.get());
    }

    /** Append @p s's trace and snapshot its metrics under @p label. */
    void
    capture(const std::string &label, sys::System &s)
    {
        if (!enabled())
            return;
        s.collectMetrics();
        if (obs::Tracer *t = s.tracer()) {
            obs::ReplayMeta meta;
            meta.config = obs::configToMap(s.cfg);
            meta.counters = obs::curatedCounters(s);
            append(label, *t, s.eq, meta);
        }
        runs.push_back(obs::MetricsRun{label, s.metrics.snapshot()});
    }

    /** capture() for a standalone tracer over @p eq whose metrics are
     *  in @p reg. */
    void
    capture(const std::string &label, obs::Tracer &t,
            const sim::EventQueue &eq, const obs::MetricsRegistry &reg)
    {
        if (!enabled())
            return;
        append(label, t, eq, obs::ReplayMeta{});
        runs.push_back(obs::MetricsRun{label, reg.snapshot()});
    }

    /** Finish the requested output files; false on I/O error. */
    bool
    write()
    {
        bool ok = true;
        if (!tracePath.empty()) {
            if (writer().close()) {
                std::printf("wrote %s\n", tracePath.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n",
                             tracePath.c_str());
                ok = false;
            }
        }
        if (!metricsPath.empty()) {
            if (obs::writeMetricsFile(metricsPath, runs))
                std::printf("wrote %s\n", metricsPath.c_str());
            else
                ok = false;
        }
        return ok;
    }

  private:
    /** The trace writer, opened on first use when --trace was given. */
    obs::TraceWriter &
    writer()
    {
        if (!tracePath.empty() && !opened_) {
            opened_ = true;
            writer_.open(tracePath);
        }
        return writer_;
    }

    /** Detach @p t's sink and append the run as one process. */
    void
    append(const std::string &label, obs::Tracer &t,
           const sim::EventQueue &eq, obs::ReplayMeta meta)
    {
        meta.digest = obs::replayDigest(t.data().replay);
        meta.events = eq.executed();
        meta.simNs = eq.now();
        t.setStream(nullptr);
        auto it = sinks_.find(&t);
        writer().append(label, t.data(), &meta,
                        it == sinks_.end() ? nullptr : it->second.get());
        if (it != sinks_.end())
            sinks_.erase(it);
    }

    obs::TraceWriter writer_;
    bool opened_ = false;
    std::map<const obs::Tracer *, std::unique_ptr<obs::SpanSpill>> sinks_;
};

/** The bench-v1 results document every bench's --out writes. */
using BenchJson = obs::BenchJson;

/**
 * Append tenant.<id>.{ssd_ops,iops,fmaps,revocations} fields from the
 * system's tenant accounting; @p measuredSec is the simulated seconds
 * the iops rate is computed over. No-op while accounting is off.
 */
inline void
tenantFields(BenchJson::Scenario &sc, sys::System &s, double measuredSec)
{
    s.tenantAccounting().forEach(
        [&](TenantId id, const obs::TenantCounters &tc) {
            const std::string p = sim::strf("tenant.%u.", id);
            BenchJson::field(sc, p + "ssd_ops", tc.ssdOps);
            BenchJson::fieldF(sc, p + "iops",
                              measuredSec > 0
                                  ? static_cast<double>(tc.ssdOps)
                                        / measuredSec
                                  : 0.0);
            BenchJson::field(sc, p + "fmaps",
                             tc.bypassdColdFmaps + tc.bypassdWarmFmaps);
            BenchJson::field(sc, p + "revocations",
                             tc.bypassdRevokedVictims);
        });
}

/** Abort unless sum-over-tenants == system totals (the fairness gate). */
inline void
checkTenantSums(sys::System &s)
{
    const std::string err = s.verifyTenantSums();
    sim::panicIf(!err.empty(), "tenant attribution broken: " + err);
}

/** runFio under an ObsCapture: trace/metrics captured as @p label. */
inline wl::FioResult
runFio(const wl::FioJob &job, sys::SystemConfig cfg, ObsCapture &obs,
       const std::string &label)
{
    sim::setVerbose(false);
    if (cfg.deviceBytes == (sys::SystemConfig{}).deviceBytes)
        cfg.deviceBytes = 64ull << 30;
    sys::System s(cfg);
    obs.attach(s);
    // Attribution is digest-neutral and fills FioResult::tenants, and
    // every captured bench run doubles as a sum-invariant check.
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    wl::FioResult res = runner.run(job);
    checkTenantSums(s);
    obs.capture(label, s);
    return res;
}

} // namespace bpd::bench

#endif // BPD_BENCH_COMMON_HPP
