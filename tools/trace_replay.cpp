/**
 * @file
 * trace_replay: re-drive the replay streams embedded in a trace file
 * produced by the bench binaries' --trace flag (obs::TraceWriter).
 *
 *   trace_replay TRACE.json [options]
 *
 *   --list                  show replay streams and exit
 *   --label NAME            replay only the stream named NAME
 *   --drift                 per-lane issue-time drift report
 *                           (recorded vs replayed)
 *   --verify                require bit-identical digests/counters vs
 *                           the capture metadata (no overrides allowed)
 *   --out FILE              write replay results as bypassd-bench-v1
 *                           JSON (perf_report-diffable)
 *   --emit-capture FILE     write the *recorded* metadata in the same
 *                           schema, for diffing capture vs replay
 *   --engine E              re-drive under engine E (sync, libaio,
 *                           io_uring, spdk, bypassd); spdk lays the
 *                           recorded files out as raw device regions
 *                           (DESIGN.md §10, "Raw-region mapping")
 *   --strict                with --engine spdk, refuse fsync records
 *                           instead of replaying them as no-op
 *                           barriers
 *   --lanes N               replay only the first N lanes
 *   --walk-cache-entries N  walk-cache capacity override
 *   --ssd-read-ns N         SSD read base latency override
 *   --ssd-write-ns N        SSD write base latency override
 *
 * Exit status: 0 success; 1 verify mismatch or unreplayable trace
 * (partial stream, no replay section, bad override target); 2 usage,
 * I/O, or parse errors. Without --label, partial streams are skipped
 * with a notice instead of failing the file (multi-stream traces can
 * mix replayable single-machine runs with replay-unsupported fleet
 * captures); exit 1 only when nothing was replayable. An explicit
 * --label naming a partial stream still errors.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/replay.hpp"

using namespace bpd;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s TRACE.json [--list] [--label NAME] "
                 "[--verify] [--drift]\n"
                 "          [--out FILE] [--emit-capture FILE]\n"
                 "          [--engine sync|libaio|io_uring|spdk|bypassd]"
                 " [--strict]\n"
                 "          [--lanes N] [--walk-cache-entries N]\n"
                 "          [--ssd-read-ns N] [--ssd-write-ns N]\n",
                 argv0);
    return 2;
}

bool
parseEngine(const std::string &name, int &out)
{
    static const std::pair<const char *, wl::Engine> names[] = {
        {"sync", wl::Engine::Sync},       {"libaio", wl::Engine::Libaio},
        {"io_uring", wl::Engine::IoUring}, {"uring", wl::Engine::IoUring},
        {"spdk", wl::Engine::Spdk},       {"bypassd", wl::Engine::Bypassd},
    };
    for (const auto &[n, e] : names) {
        if (name == n) {
            out = static_cast<int>(e);
            return true;
        }
    }
    return false;
}

/**
 * The bench-v1 fields a capture row and a replay row share. A capture
 * records no wall time, so its row passes simulated seconds instead,
 * which keeps events_per_sec a sane magnitude.
 */
void
rowFields(obs::BenchJson::Scenario &sc, std::uint64_t events, Time simNs,
          double wallSec, double ops, std::uint64_t digest,
          const std::vector<std::pair<std::string, std::uint64_t>> &counters)
{
    using J = obs::BenchJson;
    J::field(sc, "events", events);
    J::field(sc, "sim_ns", simNs);
    J::fieldF(sc, "wall_sec", wallSec, "%.6f");
    J::fieldF(sc, "events_per_sec",
              static_cast<double>(events) / (wallSec > 0 ? wallSec : 1e-9),
              "%.1f");
    J::fieldF(sc, "replay_ops", ops);
    for (const auto &[k, v] : counters)
        J::field(sc, k, v);
    J::fieldS(sc, "digest", sim::strf("%016" PRIx64, digest));
}

void
listProcesses(const obs::RecordedTrace &trace)
{
    for (const auto &p : trace.processes) {
        std::uint64_t data = 0;
        for (const auto &r : p.ops)
            if (r.op == obs::ReplayRec::Read
                || r.op == obs::ReplayRec::Write
                || r.op == obs::ReplayRec::Fsync)
                data++;
        std::printf("%-28s pid=%-4u records=%-7zu data_ops=%-7" PRIu64
                    " files=%zu%s%s\n",
                    p.name.c_str(), p.pid, p.ops.size(), data,
                    p.files.size(), p.hasMeta ? " meta" : "",
                    p.partial ? " PARTIAL" : "");
        if (p.partial)
            for (const auto &m : p.missing)
                std::printf("    unreplayable: %s\n", m.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string tracePath, outPath, capturePath, label;
    bool list = false, verify = false, drift = false;
    obs::ReplayOptions opt;

    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto val = [&](std::int64_t &dst) {
            if (i + 1 >= argc)
                return false;
            dst = std::atoll(argv[++i]);
            return true;
        };
        if (a == "--list") {
            list = true;
        } else if (a == "--verify") {
            verify = true;
        } else if (a == "--drift") {
            drift = true;
        } else if (a == "--strict") {
            opt.strict = true;
        } else if (a == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (a == "--emit-capture" && i + 1 < argc) {
            capturePath = argv[++i];
        } else if (a == "--label" && i + 1 < argc) {
            label = argv[++i];
        } else if (a == "--engine" && i + 1 < argc) {
            if (!parseEngine(argv[++i], opt.engine)) {
                std::fprintf(stderr,
                             "trace_replay: unknown engine \"%s\"\n",
                             argv[i]);
                return 2;
            }
        } else if (a == "--lanes" && i + 1 < argc) {
            opt.lanes = static_cast<std::uint32_t>(
                std::atoll(argv[++i]));
        } else if (a == "--walk-cache-entries") {
            if (!val(opt.walkCacheEntries))
                return usage(argv[0]);
        } else if (a == "--ssd-read-ns") {
            if (!val(opt.ssdReadNs))
                return usage(argv[0]);
        } else if (a == "--ssd-write-ns") {
            if (!val(opt.ssdWriteNs))
                return usage(argv[0]);
        } else if (!a.empty() && a[0] == '-') {
            return usage(argv[0]);
        } else if (tracePath.empty()) {
            tracePath = a;
        } else {
            return usage(argv[0]);
        }
    }
    if (tracePath.empty())
        return usage(argv[0]);
    if (verify && opt.overridesConfig()) {
        std::fprintf(stderr,
                     "trace_replay: --verify checks the round-trip "
                     "contract and cannot be combined with overrides\n");
        return 2;
    }

    obs::RecordedTrace trace;
    std::string err;
    if (!obs::loadRecordedTrace(tracePath, trace, err)) {
        std::fprintf(stderr, "trace_replay: %s\n", err.c_str());
        return 2;
    }
    if (trace.processes.empty()) {
        std::fprintf(stderr,
                     "trace_replay: %s has no replay streams — "
                     "re-capture with a bench binary's --trace flag\n",
                     tracePath.c_str());
        return 1;
    }
    if (list) {
        listProcesses(trace);
        return 0;
    }

    obs::BenchJson captureJson, replayJson;
    bool anyRun = false, mismatch = false;
    unsigned skippedPartial = 0;
    for (const auto &p : trace.processes) {
        if (!label.empty() && p.name != label)
            continue;
        // Without an explicit --label, a partial stream (e.g. a fleet
        // capture marked replay-unsupported) is skipped rather than
        // failing the whole file; naming it with --label still errors,
        // because then the user asked for exactly that stream.
        if (p.partial && label.empty()) {
            std::string why;
            for (const auto &m : p.missing)
                why += (why.empty() ? "" : ", ") + m;
            std::fprintf(stderr,
                         "trace_replay: skipping \"%s\": partial "
                         "stream (unreplayable ops: %s)\n",
                         p.name.c_str(), why.c_str());
            skippedPartial++;
            continue;
        }
        anyRun = true;

        if (p.hasMeta) {
            double dataOps = 0;
            for (const auto &r : p.ops)
                if (r.op == obs::ReplayRec::Read
                    || r.op == obs::ReplayRec::Write
                    || r.op == obs::ReplayRec::Fsync)
                    dataOps++;
            rowFields(captureJson.add(p.name), p.events, p.simNs,
                      static_cast<double>(p.simNs) * 1e-9, dataOps,
                      p.digest, p.counters);
        }
        if (verify && !p.hasMeta) {
            std::fprintf(stderr,
                         "trace_replay: \"%s\" carries no capture "
                         "metadata; --verify needs a trace written by "
                         "this tree's bench binaries\n",
                         p.name.c_str());
            return 1;
        }

        const auto t0 = std::chrono::steady_clock::now();
        obs::ReplayResult res;
        if (!obs::replayRun(p, opt, res, err)) {
            std::fprintf(stderr, "trace_replay: \"%s\": %s\n",
                         p.name.c_str(), err.c_str());
            return 1;
        }
        const double wall
            = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();

        using J = obs::BenchJson;
        J::Scenario &rs = replayJson.add(p.name);
        rowFields(rs, res.events, res.simNs, wall,
                  static_cast<double>(res.ops), res.digest, res.counters);

        // Mapping table and per-lane drift ride along as flat counter
        // keys: perf_report's union-of-keys diff annotates them as
        // (added) against the capture without failing, so a BypassD
        // capture diffs directly against its SPDK lower-bound replay.
        if (!res.regionMap.empty()) {
            std::uint64_t totalBytes = 0;
            for (const auto &e : res.regionMap)
                totalBytes += e.bytes;
            J::field(rs, "map.regions", res.regionMap.size());
            J::field(rs, "map.bytes", totalBytes);
            for (std::size_t j = 0; j < res.regionMap.size(); j++) {
                const auto &e = res.regionMap[j];
                const std::string pre
                    = "map.r" + std::to_string(j) + ".";
                J::field(rs, pre + "base", e.base);
                J::field(rs, pre + "bytes", e.bytes);
                J::field(rs, pre + "ops", e.ops);
            }
        }
        for (const auto &d : res.laneDrift) {
            const std::string lane
                = d.lane == obs::ReplayRec::kMainLane
                      ? std::string("main")
                      : "l" + std::to_string(d.lane);
            const std::string pre = "drift.p" + std::to_string(d.proc)
                                    + "." + lane + ".";
            J::field(rs, pre + "mean_ns",
                     static_cast<std::uint64_t>(d.meanAbsNs + 0.5));
            J::field(rs, pre + "max_ns", (std::uint64_t)d.maxAbsNs);
        }

        std::printf("%-28s ops=%-8" PRIu64 " sim_ns=%-12" PRIu64
                    " events=%-9" PRIu64 " digest=%016" PRIx64 "\n",
                    p.name.c_str(), res.ops, (std::uint64_t)res.simNs,
                    res.events, res.digest);

        if (!res.regionMap.empty()) {
            std::printf("  raw-region map (file -> device bytes):\n");
            std::printf("    %-12s %-12s %-8s %s\n", "base", "bytes",
                        "ops", "path");
            for (const auto &e : res.regionMap)
                std::printf("    %-12" PRIu64 " %-12" PRIu64 " %-8"
                            PRIu64 " %s\n",
                            (std::uint64_t)e.base, e.bytes, e.ops,
                            e.path.c_str());
        }

        if (drift) {
            std::printf("  issue-time drift vs capture:\n");
            std::printf("    %-6s %-6s %-8s %-14s %-14s\n", "proc",
                        "lane", "ops", "mean_abs_ns", "max_abs_ns");
            for (const auto &d : res.laneDrift) {
                char lane[16];
                if (d.lane == obs::ReplayRec::kMainLane)
                    std::snprintf(lane, sizeof lane, "main");
                else
                    std::snprintf(lane, sizeof lane, "%u", d.lane);
                std::printf("    %-6u %-6s %-8" PRIu64 " %-14.1f %-14"
                            PRIu64 "\n",
                            d.proc, lane, d.ops, d.meanAbsNs,
                            (std::uint64_t)d.maxAbsNs);
            }
            if (res.laneDrift.empty())
                std::printf("    (no comparable records)\n");
        }

        if (verify) {
            bool ok = res.digest == p.digest;
            if (!ok)
                std::printf("  FAIL digest: recorded %016" PRIx64
                            " replayed %016" PRIx64 "\n",
                            p.digest, res.digest);
            for (const auto &[k, v] : res.counters) {
                for (const auto &[rk, rv] : p.counters) {
                    if (rk == k && rv != v) {
                        std::printf("  FAIL counter %s: recorded %" PRIu64
                                    " replayed %" PRIu64 "\n",
                                    k.c_str(), rv, v);
                        ok = false;
                    }
                }
            }
            if (ok)
                std::printf("  round-trip OK\n");
            else
                mismatch = true;
        }
    }

    if (!anyRun) {
        if (label.empty())
            std::fprintf(stderr,
                         "trace_replay: all %u stream%s in %s are "
                         "partial — nothing replayable\n",
                         skippedPartial, skippedPartial == 1 ? "" : "s",
                         tracePath.c_str());
        else
            std::fprintf(stderr,
                         "trace_replay: no replay stream named \"%s\"\n",
                         label.c_str());
        return 1;
    }
    if (!capturePath.empty()) {
        if (captureJson.scenarios.empty()) {
            std::fprintf(stderr,
                         "trace_replay: --emit-capture needs capture "
                         "metadata in the trace\n");
            return 1;
        }
        if (!captureJson.write(capturePath, "capture"))
            return 2;
    }
    if (!outPath.empty() && !replayJson.write(outPath, "replay"))
        return 2;
    return mismatch ? 1 : 0;
}
