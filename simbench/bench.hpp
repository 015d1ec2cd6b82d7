/**
 * @file
 * Shared declarations of the simulator benchmark (simbench).
 *
 * The benchmark drives the simulator only through its public API:
 * System/Fleet construction, the kernel's setup helpers and syscalls,
 * UserLib, io_uring, the fabric initiator/target pair and the event
 * loop. It measures each layer from outside: counters come from the
 * layers' public accessors, virtual-time figures from the obs tracer's
 * spans (folded by a SpanSink, never retained), and host time from
 * steady_clock readings around the benchmark's own calls.
 *
 * One repetition ("rep") builds a workload from scratch, runs its
 * measured event loop, checks it and tears it down. Simulated results
 * are a pure function of (workload, seed, scale), so every rep of one
 * process must produce the same digest; host times vary and are
 * reported as medians over reps by run.py.
 */

#ifndef SIMBENCH_BENCH_HPP
#define SIMBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace bpd::sys {
class System;
}
namespace bpd::kern {
class Process;
}
namespace bpd::bypassd {
class UserLib;
}

namespace simbench {

using bpd::Time;

/** Host wall-clock seconds (steady clock). */
double hostNow();

/**
 * Host seconds of one fixed calibration kernel whose mix mirrors the
 * simulator's hottest host work: heap churn at a steady depth (the
 * event queue) and small-block allocation churn (completion callbacks).
 * It runs before and after every rep; see main.cpp for how host figures
 * are scaled by it.
 */
double calibrationSeconds();

/** Kernel time that defines the reference host speed (seconds). */
constexpr double kCalibRefS = 0.025;

/** Index of the exact nearest-rank q-quantile of n > 0 sorted samples:
 *  ceil(q * n) - 1. */
std::size_t nearestRank(std::size_t n, double q);

/**
 * Nearest-rank q-quantile of an unsorted sample (copied, then sorted),
 * counted as if @p zeros further samples of value 0 preceded it.
 */
double percentileOf(std::vector<std::uint32_t> v, double q,
                    std::size_t zeros = 0);

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ull;

/** FNV-1a over the 8 bytes of @p v, chained from @p h. */
std::uint64_t fnv(std::uint64_t h, std::uint64_t v);

/** How a rep is instrumented. */
enum class Mode {
    Plain,    //!< tracing and tenant accounting off (timed reps)
    Verify,   //!< tenant accounting on, for the tenant-sum check
    Traced,   //!< obs tracer (Device level) + tenant accounting
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Multiplies every workload's measured window (tests use < 1). */
    double scale = 1.0;
    /** Executor shards for fabric_fleet (ignored elsewhere). */
    unsigned shards = 1;
};

/**
 * Per-layer counters read from public accessors, summed over every
 * machine of the workload.
 */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t vbaTranslations = 0;
    std::uint64_t vbaFaults = 0;
    std::uint64_t walkFrames = 0;
    std::uint64_t walkCacheHits = 0;
    std::uint64_t walkCacheMisses = 0;
    std::uint64_t devOps = 0;
    std::uint64_t devReadBytes = 0;
    std::uint64_t devWriteBytes = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t extentLookups = 0;
    std::uint64_t journalCommits = 0;
    std::uint64_t journalRecords = 0;
    std::uint64_t metadataOps = 0;
    std::uint64_t blocksZeroed = 0;
    std::uint64_t pageCacheHits = 0;
    std::uint64_t pageCacheMisses = 0;
    std::uint64_t directOps = 0;
    std::uint64_t fallbackOps = 0;
    std::uint64_t appendsRouted = 0;
    std::uint64_t coldFmaps = 0;
    std::uint64_t warmFmaps = 0;
    std::uint64_t qosAdmits = 0;
    std::uint64_t qosThrottles = 0;
    std::uint64_t qosThrottledBytes = 0;

    /** Add one machine's layer counters. */
    void addMachine(bpd::sys::System &s);
    /** Add one UserLib's counters. */
    void addLib(const bpd::bypassd::UserLib &lib);
    /** Field-wise this - @p before. */
    Counters since(const Counters &before) const;
};

/**
 * Folds the spans of the measured event loop into per-layer
 * virtual-time figures. Attached with Tracer::setStream, so spans are
 * consumed as they are emitted and nothing is retained. One instance
 * per machine: a fleet's machines emit on different shard threads.
 */
class SpanFold : public bpd::obs::SpanSink
{
  public:
    /** Count only spans emitted while armed (the measured loop). */
    void arm(bool on) { armed_ = on; }

    void onSpan(const bpd::obs::SpanRec &rec,
                const std::vector<std::string> &tracks) override;

    void merge(const SpanFold &o);

    struct Sum
    {
        std::uint64_t n = 0;
        std::uint64_t ns = 0;
        double mean() const { return n ? double(ns) / double(n) : 0.0; }
    };

    Sum ats;           //!< iommu.ats_translate
    Sum media;         //!< nvme.media
    Sum capsule;       //!< fabric.capsule (initiator round trip)
    Sum envKernel;     //!< kernel_ns over every request envelope
    Sum bypassdUser;   //!< user_ns over bypassd.* envelopes
    std::uint64_t nvmeCmds = 0;
    std::vector<std::uint32_t> sqWaits; //!< nvme.sq_wait durations (ns)

  private:
    bool armed_ = false;
};

/** Executor statistics of the measured loop (fabric_fleet only). */
struct ExecStats
{
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    double stallSec = 0;
    std::vector<std::uint64_t> shardEvents;
};

/** Fabric target counters (fabric_fleet only). */
struct FabricStats
{
    std::uint64_t capsules = 0;
    std::uint64_t rdmaTransfers = 0;
    std::uint64_t overflowParks = 0;
    std::uint64_t staleCapsules = 0;
};

/**
 * Where the host-cost probes run: one BypassD file of the workload,
 * the offsets its job issued, and the event-queue depth the machine
 * had at the end of the measured window.
 */
struct ProbeSite
{
    bpd::sys::System *sys = nullptr;
    bpd::kern::Process *proc = nullptr;
    std::string path;
    std::vector<std::uint64_t> offsets;
    std::size_t pendingDepth = 0;
};

/** Host ns per call of each probed public function (estimates). */
struct ProbeResult
{
    double translateNs = 0;
    double walkNs = 0;
    double extentNs = 0;
    double eventNs = 0;
};

ProbeResult runProbes(const ProbeSite &site);

/** Everything one rep measured. */
struct RepResult
{
    std::uint64_t digest = kFnvSeed;

    // host seconds per phase
    double systemS = 0;   //!< System/Fleet (+ fabric target) construction
    double filesS = 0;    //!< file create + fallocate (+ close)
    double fmapS = 0;     //!< BypassD open/fmap, queue setup, fd opens
    double connectS = 0;  //!< fabric connects
    double setupS = 0;    //!< rep start to the first measured event
    double runS = 0;      //!< the measured event loop
    double teardownS = 0; //!< destruction of the workload

    // simulated results
    std::uint64_t ios = 0;       //!< ops completed during the loop
    std::uint64_t windowOps = 0; //!< ops completed inside the window
    Time windowNs = 0;
    std::vector<std::uint32_t> lat; //!< reported latency population (ns)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    Counters total; //!< whole rep, set-up included
    Counters loop;  //!< measured loop only
    ExecStats exec;
    FabricStats fabric;
    SpanFold spans;             //!< Traced mode only
    ProbeResult probe;          //!< Traced mode only

    /** Workload-specific check values, reported by name. */
    std::vector<std::pair<std::string, double>> checks;
    /** Correctness breaches; empty when the rep is correct. */
    std::vector<std::string> breaches;
};

/** Run one rep of the named workload. */
RepResult runRep(const Options &o, Mode mode);

/** Workload names runRep accepts. */
const std::vector<std::string> &workloadNames();

/** Per-layer metrics (name, unit, value) derived from a traced rep. */
std::vector<std::tuple<std::string, std::string, double>>
layerMetrics(const RepResult &r);

} // namespace simbench

#endif // SIMBENCH_BENCH_HPP
