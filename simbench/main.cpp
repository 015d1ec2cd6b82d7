/**
 * @file
 * simbench runner: runs one workload repeatedly for a host-time budget
 * and prints one JSON document with the raw per-rep host times, the
 * simulated results and (with --trace 1) the per-layer table.
 *
 * Rep sequence: one Verify rep first (tenant accounting on; its digest
 * is the reference and its tenant sums are checked; it also warms the
 * allocator), then Plain reps until --seconds of host time have passed.
 * With --trace 1 a Traced rep follows every Plain rep, so the tracing
 * overhead compares reps interleaved in time. Every rep must reproduce
 * the reference digest: tracing and accounting are digest-neutral.
 * The calibration kernel runs before the first rep and after every
 * rep, and host figures are reported at reference host speed (see
 * atSpeed).
 *
 * Usage: simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                 [--shards N] [--scale F]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hpp"
#include "sim/logging.hpp"

using namespace simbench;

namespace {

/** Plain reps run even when --seconds is already spent. */
constexpr std::size_t kMinReps = 3;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMiB()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

void
printArray(const char *key, const std::vector<double> &v, bool last = false)
{
    std::printf("    \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); i++)
        std::printf("%s%.9g", i ? ", " : "", v[i]);
    std::printf("]%s\n", last ? "" : ",");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
}

/** Host-side figures of one rep (the rep itself is dropped). */
struct HostRow
{
    double setupS, systemS, filesS, fmapS, connectS, teardownS, stallS;
    double iosPerHostS, eventsPerHostS;
};

HostRow
hostRow(const RepResult &r)
{
    return HostRow{r.setupS,
                   r.systemS,
                   r.filesS,
                   r.fmapS,
                   r.connectS,
                   r.teardownS,
                   r.exec.stallSec,
                   double(r.ios) / r.runS,
                   double(r.loop.events) / r.runS};
}

/**
 * @p h at reference host speed. Host speed on a shared VM drifts by tens
 * of percent over minutes; @p speed = kCalibRefS / (the run's median
 * calibration-kernel seconds) scales that out: times are multiplied by
 * it, rates divided.
 */
HostRow
atSpeed(HostRow h, double speed)
{
    for (double *t : {&h.setupS, &h.systemS, &h.filesS, &h.fmapS,
                      &h.connectS, &h.teardownS, &h.stallS})
        *t *= speed;
    h.iosPerHostS /= speed;
    h.eventsPerHostS /= speed;
    return h;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--shards N] [--scale F]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v);
        else if (a == "--trace")
            traced = std::atoi(v) != 0;
        else if (a == "--shards")
            o.shards = static_cast<unsigned>(std::max(1, std::atoi(v)));
        else if (a == "--scale")
            o.scale = std::atof(v);
        else
            return usage();
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end()
        || !(o.scale > 0))
        return usage();
    bpd::sim::setVerbose(false);
    // Fixed allocator policy, so every rep sees the same one: a fixed mmap
    // threshold above the block store's 2 MiB extents (the adaptive one
    // flipped them between mmap and the heap, which made set-up time
    // bimodal), and no heap trimming between reps. At one shard, also a
    // single arena: the executor starts a fresh shard thread on every
    // run, and per-thread arenas made peak RSS vary. With more shards
    // the shard threads keep their own arenas, as in the real binaries.
    if (o.shards == 1)
        mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    std::vector<std::string> breaches;
    auto absorb = [&](const RepResult &r, const std::uint64_t ref,
                      const char *what) {
        for (const std::string &b : r.breaches)
            breaches.push_back(std::string(what) + " rep: " + b);
        if (r.digest != ref)
            breaches.push_back(bpd::sim::strf(
                "%s rep digest %016llx differs from the reference %016llx",
                what, static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(ref)));
    };

    // The reference rep keeps its full result: the simulated metrics and
    // checks are reported from it (every later rep must match it).
    const RepResult ref = runRep(o, Mode::Verify);
    absorb(ref, ref.digest, "verify");
    // One rep's footprint: later reps only add allocator and thread-stack
    // retention, which varies from run to run.
    const double peakRss = peakRssMiB();

    std::vector<HostRow> plain, tracedRows;
    std::map<std::string, std::vector<double>> layerValues;
    std::map<std::string, std::string> layerUnits;
    std::vector<std::string> layerOrder;
    calibrationSeconds(); // warm-up: the first call sets up its pool
    std::vector<double> calibs{calibrationSeconds()};
    auto rep = [&](Mode mode, const char *what) {
        RepResult r = runRep(o, mode);
        absorb(r, ref.digest, what);
        calibs.push_back(calibrationSeconds());
        return r;
    };
    const double t0 = hostNow();
    while (plain.size() < kMinReps || hostNow() - t0 < seconds) {
        plain.push_back(hostRow(rep(Mode::Plain, "plain")));
        if (!traced)
            continue;
        const RepResult t = rep(Mode::Traced, "traced");
        tracedRows.push_back(hostRow(t));
        for (const auto &[name, unit, value] : layerMetrics(t)) {
            if (!layerUnits.count(name))
                layerOrder.push_back(name);
            layerUnits[name] = unit;
            layerValues[name].push_back(value);
        }
    }

    auto col = [](const std::vector<HostRow> &rows, double HostRow::*f) {
        std::vector<double> v;
        for (const HostRow &r : rows)
            v.push_back(r.*f);
        return v;
    };
    // One speed factor for the whole run. Factors from the two kernel
    // runs around each rep were noisier than the drift they followed:
    // they left a wider run-to-run spread than the run's median does.
    const double speed = kCalibRefS / median(calibs);
    const std::vector<double> rawIos = col(plain, &HostRow::iosPerHostS);
    for (std::vector<HostRow> *rows : {&plain, &tracedRows})
        for (HostRow &h : *rows)
            h = atSpeed(h, speed);
    for (auto &[name, values] : layerValues)
        if (layerUnits[name] == "ns/call") // host probes
            for (double &v : values)
                v *= speed;
    if (traced) {
        // Host-time layer figures come from the untraced reps.
        const std::pair<const char *, double HostRow::*> fromPlain[] = {
            {"sim.events_per_host_s", &HostRow::eventsPerHostS},
            {"exec.barrier_stall_s", &HostRow::stallS},
            {"setup.system_s", &HostRow::systemS},
            {"setup.files_s", &HostRow::filesS},
            {"setup.fmap_s", &HostRow::fmapS},
            {"setup.connect_s", &HostRow::connectS},
            {"teardown_s", &HostRow::teardownS},
        };
        for (const auto &[name, field] : fromPlain)
            layerValues[name] = {median(col(plain, field))};
        layerOrder.push_back("trace.overhead_pct");
        layerUnits["trace.overhead_pct"] = "%";
        layerValues["trace.overhead_pct"]
            = {(median(col(plain, &HostRow::iosPerHostS))
                    / median(col(tracedRows, &HostRow::iosPerHostS))
                - 1)
               * 100};
    }

    // Simulated results of the reference rep.
    const std::size_t n = ref.lat.size();
    const double p50 = percentileOf(ref.lat, 0.5);
    const double p999 = percentileOf(ref.lat, 0.999);
    const std::size_t beyond = n ? n - 1 - nearestRank(n, 0.999) : 0;
    const double simIops
        = double(ref.windowOps) / (double(ref.windowNs) / 1e9);

    std::printf("{\n  \"workload\": %s,\n", jsonString(o.workload).c_str());
    std::printf("  \"seed\": %llu,\n", (unsigned long long)o.seed);
    std::printf("  \"shards\": %u,\n  \"scale\": %.9g,\n", o.shards,
                o.scale);
    std::printf("  \"digest\": \"%016llx\",\n",
                (unsigned long long)ref.digest);
    std::printf("  \"peak_rss_mb\": %.6f,\n", peakRss);
    std::printf("  \"calib_s\": [");
    for (std::size_t i = 0; i < calibs.size(); i++)
        std::printf("%s%.9g", i ? ", " : "", calibs[i]);
    std::printf("],\n  \"speed\": %.9g,\n  \"plain\": {\n", speed);
    printArray("setup_s", col(plain, &HostRow::setupS));
    printArray("sim_ios_per_host_s", col(plain, &HostRow::iosPerHostS));
    printArray("raw_sim_ios_per_host_s", rawIos, true);
    std::printf("  },\n  \"sim\": {\n");
    std::printf("    \"ios\": %llu,\n", (unsigned long long)ref.ios);
    std::printf("    \"window_ops\": %llu,\n",
                (unsigned long long)ref.windowOps);
    std::printf("    \"window_ns\": %llu,\n",
                (unsigned long long)ref.windowNs);
    std::printf("    \"events\": %llu,\n",
                (unsigned long long)ref.loop.events);
    std::printf("    \"sim_iops\": %.6f,\n", simIops);
    std::printf("    \"samples\": %zu,\n", n);
    std::printf("    \"p50_ns\": %.0f,\n", p50);
    std::printf("    \"p999_ns\": %.0f,\n", p999);
    std::printf("    \"beyond_p999\": %zu,\n", beyond);
    std::printf("    \"attempted\": %llu,\n",
                (unsigned long long)ref.attempted);
    std::printf("    \"failed\": %llu\n", (unsigned long long)ref.failed);
    std::printf("  },\n  \"checks\": {");
    for (std::size_t i = 0; i < ref.checks.size(); i++)
        std::printf("%s\n    %s: %.6f", i ? "," : "",
                    jsonString(ref.checks[i].first).c_str(),
                    ref.checks[i].second);
    std::printf("\n  },\n  \"layers\": {");
    for (std::size_t i = 0; i < layerOrder.size(); i++) {
        const std::string &name = layerOrder[i];
        std::printf("%s\n    %s: {\"value\": %.9g, \"unit\": %s}",
                    i ? "," : "", jsonString(name).c_str(),
                    median(layerValues[name]),
                    jsonString(layerUnits[name]).c_str());
    }
    std::printf("\n  },\n  \"breaches\": [");
    for (std::size_t i = 0; i < breaches.size(); i++)
        std::printf("%s\n    %s", i ? "," : "",
                    jsonString(breaches[i]).c_str());
    std::printf("\n  ]\n}\n");
    return 0;
}
