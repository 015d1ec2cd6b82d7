/**
 * @file
 * Request-scoped span tracer.
 *
 * Every simulated I/O is assigned a trace id at its outermost
 * submission point (UserLib pread/pwrite, sync syscall, libaio,
 * io_uring, SPDK, fabric initiator) and carries it across layer
 * boundaries; each layer emits spans stamped with virtual time.
 * Spans are recorded retrospectively — a layer emits the span when the
 * request completes, using the start timestamp it captured in its
 * completion closure — so no per-request span stack is needed across
 * async callbacks.
 *
 * Zero-cost-when-disabled contract: components hold a raw
 * `obs::Tracer *` that is null by default. Every instrumentation site
 * is guarded by a single branch on that pointer; when it is null no
 * allocation, no virtual call and no formatting happens on the
 * schedule/run path (bench/micro_components asserts allocs/op == 0).
 *
 * Semantic-transparency contract: instrumentation only *reads*
 * simulator state (EventQueue::now(), completion fields, counters). It
 * never schedules events, never draws random numbers and never mutates
 * component state, so same-seed digests are bit-identical with tracing
 * on, off, or at any verbosity (tests/test_determinism.cpp asserts
 * this).
 */

#ifndef BPD_OBS_TRACE_HPP
#define BPD_OBS_TRACE_HPP

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace bpd::obs {

class MetricsRegistry;

/** Id shared by every span belonging to one logical I/O request. */
using TraceId = std::uint64_t;

/**
 * Verbosity: each level includes everything below it.
 *  - Requests: one envelope span per I/O plus rare events
 *    (IOMMU faults, revocations).
 *  - Layers: per-layer crossings (syscall segments, fmap, device
 *    command lifetime, journal commits).
 *  - Device: device-internal detail (SQ arbitration wait, ATS
 *    translate with walk detail, media service, invalidations).
 */
enum class Level : std::uint8_t {
    Requests = 1,
    Layers = 2,
    Device = 3,
};

/** One key/value annotation on a span ("args" in the Chrome format). */
struct Arg
{
    const char *key;
    std::int64_t value;
};

/**
 * One recorded event. @c name must point to a string literal (static
 * storage) so records stay valid after the emitting component — or the
 * whole System — is destroyed.
 */
struct SpanRec
{
    static constexpr std::size_t kMaxArgs = 6;

    const char *name = nullptr;
    TraceId trace = 0;
    Time start = 0;
    Time end = 0; ///< == start for instant events
    std::uint16_t track = 0;
    std::uint8_t nargs = 0;
    char phase = 'X'; ///< 'X' complete span, 'i' instant
    /** Owning tenant (process PASID); 0 = system/unattributed. Stamped
     * from the trace id's registration (Tracer::newTrace(TenantId)),
     * so every span of one request shares the request's tenant. */
    TenantId tenant = 0;
    std::array<Arg, kMaxArgs> args{};
};

/**
 * One replayable workload-level operation. Recorded at the *issuing*
 * site (FioRunner job slots, WiredTiger page I/O, bench drive loops) —
 * not inside the engines — so each record carries the logical thread
 * (lane) that issued it, which async kernel paths cannot know. The
 * stream is recorded at every trace Level (replay records are cheap and
 * carry no device detail).
 *
 * Replay semantics (src/obs/replay.cpp):
 *  - lane == kMainLane: a sequential program-order step (setup,
 *    teardown, CPU acquire/release). It waits for *all* earlier records
 *    to complete — the recorded streams are produced by phases separated
 *    by run-to-quiescence drains, which this mirrors.
 *  - other lanes: one closed loop per (proc, lane); each record chains
 *    onto the earlier same-lane record whose completion triggered it and
 *    onto the last main-lane record before it. Recorded inter-arrival
 *    gaps (issue - dependency completion) are preserved, so think time
 *    and app-level serialization survive replay under any config.
 */
struct ReplayRec
{
    enum Op : std::uint8_t {
        NewProcess = 0, ///< aux = uid<<32|gid; proc = pasid
        Create,         ///< setupCreateFile; offset = size, aux = fill seed
        Open,           ///< engine Bypassd: lib open; Sync: sysOpen;
                        ///< IoUring: ring setup; Spdk: driver claim.
                        ///< aux = open flags
        PrepThread,     ///< UserLib::prepareThread(tid)
        Read,
        Write,
        Fsync,
        Close,          ///< current handle of (proc, file); Spdk: release
        CpuAcquire,     ///< offset = n
        CpuRelease,     ///< offset = n
    };

    /** Engine codes mirror wl::Engine by value (obs cannot include it):
     *  0 sync, 1 libaio, 2 io_uring, 3 spdk, 4 bypassd, 5 fabric
     *  (recorded for inspection only — fabric streams are marked
     *  unsupported, there is no remote-target replay path). */
    static constexpr std::uint8_t kEngineNone = 0xff;
    static constexpr std::uint16_t kMainLane = 0xffff;
    static constexpr std::uint32_t kNoFile = 0xffffffffu;

    std::uint8_t op = Read;
    std::uint8_t engine = kEngineNone;
    std::uint16_t lane = kMainLane;
    std::uint32_t proc = 0; ///< issuing process PASID
    /** Owning tenant. 0 means "defaults to proc": replayBegin/
     * replayMark fill it in, so recording sites only set it when the
     * tenant differs from the issuing process. */
    TenantId tenant = 0;
    std::uint32_t tid = 0;  ///< engine thread argument
    /** DevId of the device slot serving the op. 0 means unattributed:
     * classic single-device captures never set it, and their digests
     * (and exported rows) are bit-identical to pre-fleet traces. */
    DevId dev = 0;
    std::uint32_t file = kNoFile; ///< index into TraceData::files
    std::uint64_t offset = 0;     ///< byte offset; raw DevAddr for SPDK
    std::uint64_t len = 0;
    std::uint64_t aux = 0;
    Time issue = 0;
    Time complete = 0;
    std::int64_t result = 0;
};

/**
 * The recorded trace: a flat event list plus the interned track-name
 * table. Copyable, so benches can capture it before tearing down the
 * System that produced it.
 */
struct TraceData
{
    std::vector<SpanRec> spans;
    std::vector<std::string> tracks; ///< index == SpanRec::track
    std::vector<ReplayRec> replay;   ///< workload ops, in issue order
    std::vector<std::string> files;  ///< index == ReplayRec::file
    /**
     * Ops the recording sites could not express (e.g. XRP chained
     * resubmission); non-empty means the replay stream is incomplete
     * and trace_replay refuses to treat it as a faithful workload.
     */
    std::vector<std::string> replayMissing;
};

/**
 * FNV-1a digest over the replay stream, every field of every record in
 * issue order. Captured alongside the trace and recomputed after a
 * replay: under the identical configuration the two must be
 * bit-identical (the round-trip invariant CI enforces).
 */
std::uint64_t replayDigest(const std::vector<ReplayRec> &ops);

/** Per-layer breakdown attached to a request envelope (Table 1 axes). */
struct RequestBreakdown
{
    std::uint64_t userNs = 0;
    std::uint64_t kernelNs = 0;
    std::uint64_t translateNs = 0;
    std::uint64_t deviceNs = 0;
    std::uint64_t bytes = 0;
};

/**
 * Incremental span consumer. When one is attached to the tracer
 * (Tracer::setStream), finished spans are handed over in emission
 * order instead of being retained in TraceData::spans, keeping RSS
 * flat for long Device-level traces. SpanSpill (obs/export.hpp) is
 * the one the bench binaries attach to every traced run.
 */
class SpanSink
{
  public:
    virtual ~SpanSink() = default;

    /**
     * One finished span. @p tracks is the tracer's live intern table
     * (it grows over time; @c rec.track always indexes into it).
     */
    virtual void onSpan(const SpanRec &rec,
                        const std::vector<std::string> &tracks)
        = 0;
};

class Tracer
{
  public:
    /**
     * @param eq       source of virtual timestamps (for now()).
     * @param level    verbosity ceiling for wants().
     * @param metrics  optional registry that receives per-layer
     *                 request histograms (obs.req_*_ns).
     */
    Tracer(const sim::EventQueue &eq, Level level,
           MetricsRegistry *metrics = nullptr);

    Level level() const { return level_; }

    /** Should events of verbosity @p l be emitted? */
    bool wants(Level l) const
    {
        return static_cast<std::uint8_t>(l)
               <= static_cast<std::uint8_t>(level_);
    }

    /**
     * Allocate a fresh request id (dense from 1, never 0) owned by
     * @p tenant. Every span emitted with the returned id is stamped
     * with the tenant, so only the sites that open a request
     * (kern::openRequest, the fabric target) need to know identity.
     */
    TraceId newTrace(TenantId tenant = kSystemTenant)
    {
        traceTenants_.push_back(tenant);
        return traceTenants_.size();
    }

    /** Tenant registered for @p trace (0 when unregistered). */
    TenantId tenantOf(TraceId trace) const
    {
        return trace == 0 || trace > traceTenants_.size()
                   ? kSystemTenant
                   : traceTenants_[trace - 1];
    }

    /**
     * Attach (or detach, with null) a streaming span sink. With a sink
     * attached, finished spans are forwarded instead of retained; the
     * replay stream and track table are still kept in data() (both are
     * small). spanCount() keeps counting streamed spans.
     */
    void setStream(SpanSink *sink) { sink_ = sink; }

    /** Current virtual time. */
    Time now() const { return eq_.now(); }

    /** Intern a track (Perfetto thread) name; returns its id. */
    std::uint16_t track(const std::string &name);

    /**
     * track(name) for a string literal, cached by the literal's address
     * so per-request call sites build no string after the first call.
     */
    std::uint16_t track(const char *name);

    /**
     * The track named @p prefix followed by the decimal @p id (e.g.
     * "kern.p" and 3 give "kern.p3"), for per-request call sites: the
     * name is built and interned on the first call only, later calls
     * are a lookup. @p prefix must be a string literal.
     */
    std::uint16_t track(const char *prefix, std::uint64_t id);

    /** Record a complete span [start, end] on @p track. */
    void span(std::uint16_t track, const char *name, TraceId trace,
              Time start, Time end, std::initializer_list<Arg> args = {});

    /** Record an instant event at the current virtual time. */
    void instant(std::uint16_t track, const char *name, TraceId trace,
                 std::initializer_list<Arg> args = {});

    /**
     * Record a request envelope span carrying its per-layer breakdown
     * as args (user_ns/kernel_ns/xlate_ns/device_ns/bytes; what
     * tools/trace_view aggregates into the Table 1 table) and feed the
     * obs.req_*_ns histograms in the metrics registry.
     */
    void request(std::uint16_t track, const char *name, TraceId trace,
                 Time start, Time end, const RequestBreakdown &b);

    /** @name Open request envelopes
     * A kern::Request holds a slot here: the trace id and the
     * envelope's name, track and start, until it finishes. Slots are
     * reused, so the table holds only requests in flight. A slot
     * opened with a null @p name carries a trace id and records
     * nothing. */
    ///@{
    std::uint32_t openEnvelope(TraceId trace, const char *name,
                               std::uint16_t track);
    TraceId envelopeTrace(std::uint32_t slot) const
    {
        return envelopes_[slot].trace;
    }
    void setEnvelopeTrack(std::uint32_t slot, std::uint16_t track)
    {
        envelopes_[slot].track = track;
    }
    /** Record @p slot's envelope, ending now with @p b; free the slot. */
    void closeEnvelope(std::uint32_t slot, const RequestBreakdown &b);
    void dropEnvelope(std::uint32_t slot) { freeEnvelopes_.push_back(slot); }
    ///@}

    /** @name Replay-stream recording (any level; see ReplayRec)
     * Sites are guarded by the component's tracer pointer, keeping the
     * zero-cost-when-disabled contract; recording only appends to the
     * record vector, keeping the semantic-transparency contract. */
    ///@{
    /** Intern a file path; returns its id for ReplayRec::file. */
    std::uint32_t replayFile(const std::string &path);

    /** Record an op now; completion arrives later via replayEnd(). */
    std::uint32_t replayBegin(ReplayRec rec)
    {
        if (rec.tenant == kSystemTenant)
            rec.tenant = rec.proc;
        rec.issue = eq_.now();
        rec.complete = rec.issue;
        data_.replay.push_back(rec);
        return static_cast<std::uint32_t>(data_.replay.size() - 1);
    }

    /** Stamp completion time and result on a replayBegin() record. */
    void replayEnd(std::uint32_t idx, std::int64_t result)
    {
        ReplayRec &r = data_.replay[idx];
        r.complete = eq_.now();
        r.result = result;
    }

    /** Record an untimed op (setup helpers, CPU occupancy changes). */
    void replayMark(ReplayRec rec, std::int64_t result = 0)
    {
        if (rec.tenant == kSystemTenant)
            rec.tenant = rec.proc;
        rec.issue = eq_.now();
        rec.complete = rec.issue;
        rec.result = result;
        data_.replay.push_back(rec);
    }

    /** Flag an op the record format cannot express; marks the stream
     *  as non-replayable (kept once per distinct @p what). */
    void replayUnsupported(const char *what);
    ///@}

    const TraceData &data() const { return data_; }

    /** Spans emitted so far, including spans already streamed out. */
    std::size_t spanCount() const { return spanCount_; }

  private:
    /** Stamp the tenant and route to the sink or the retained list. */
    void emit(SpanRec &rec);

    const sim::EventQueue &eq_;
    Level level_;
    TraceData data_;
    /** track(name) and track(prefix, id) caches, keyed by the
     *  literal's address. */
    std::map<std::uintptr_t, std::uint16_t> namedTracks_;
    std::map<std::pair<std::uintptr_t, std::uint64_t>, std::uint16_t>
        numberedTracks_;
    /** Owner of each request id; index == id - 1. */
    std::vector<TenantId> traceTenants_;
    struct Envelope
    {
        TraceId trace = 0;
        const char *name = nullptr;
        Time start = 0;
        std::uint16_t track = 0;
    };
    std::vector<Envelope> envelopes_;
    std::vector<std::uint32_t> freeEnvelopes_;
    SpanSink *sink_ = nullptr;
    std::size_t spanCount_ = 0;
    sim::Histogram *hTotal_ = nullptr;
    sim::Histogram *hUser_ = nullptr;
    sim::Histogram *hKernel_ = nullptr;
    sim::Histogram *hTranslate_ = nullptr;
    sim::Histogram *hDevice_ = nullptr;
};

} // namespace bpd::obs

#endif // BPD_OBS_TRACE_HPP
