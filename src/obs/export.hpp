/**
 * @file
 * Exporters: Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing), a metrics JSON dump and the bench-v1 results
 * document.
 *
 * Each TraceData becomes one Perfetto *process* (pid) so benches that
 * build one System per scenario/cell can merge all runs into a single
 * file; interned tracks become *threads* (tid) with thread_name
 * metadata. Virtual-time nanoseconds are emitted as fractional
 * microseconds (the unit the Chrome format expects).
 */

#ifndef BPD_OBS_EXPORT_HPP
#define BPD_OBS_EXPORT_HPP

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpd::obs {

/**
 * Capture-side metadata accompanying a process's replay stream: the
 * System configuration it ran under (flat key -> number map, assembled
 * by bench::ObsCapture), the stream digest, and a curated counter
 * snapshot. trace_replay verifies a round trip against these.
 */
struct ReplayMeta
{
    std::vector<std::pair<std::string, double>> config;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::uint64_t digest = 0;
    std::uint64_t events = 0; ///< EventQueue::executed() at capture
    Time simNs = 0;           ///< virtual time at capture
};

/** One traced run: shown as a named process in Perfetto. */
struct TraceProcess
{
    std::string name;
    const TraceData *data = nullptr;
    const ReplayMeta *replay = nullptr; ///< optional replay metadata
};

/** One metrics snapshot, keyed by run label in the output object. */
struct MetricsRun
{
    std::string name;
    MetricsSnapshot snapshot;
};

/** Write Chrome trace-event JSON ({"traceEvents": [...]}). */
void writeChromeTrace(std::FILE *f,
                      const std::vector<TraceProcess> &processes);

/** writeChromeTrace to @p path; returns false on I/O error. */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceProcess> &processes);

/**
 * Write {"schema": "bypassd-metrics-v1", "runs": {label: {...}}} to
 * @p path; returns false on I/O error.
 */
bool writeMetricsFile(const std::string &path,
                      const std::vector<MetricsRun> &runs);

/**
 * A "bypassd-bench-v1" document, the schema of every bench's --out,
 * perf_harness's and trace_replay's output, which tools/perf_report
 * diffs. Each scenario is a flat object whose first key is "name".
 */
struct BenchJson
{
    struct Scenario
    {
        std::string name;
        std::vector<std::pair<std::string, json::Value>> fields;
    };
    std::vector<Scenario> scenarios;

    Scenario &add(const std::string &name)
    {
        scenarios.push_back({name, {}});
        return scenarios.back();
    }

    static void field(Scenario &sc, const std::string &k, std::uint64_t v)
    {
        sc.fields.emplace_back(k, json::integer(v));
    }

    /** Double field printed with printf format @p fmt. */
    static void fieldF(Scenario &sc, const std::string &k, double v,
                       const char *fmt = "%.3f")
    {
        sc.fields.emplace_back(k, json::number(v, fmt));
    }

    /** String field (e.g. a digest printed as hex). */
    static void fieldS(Scenario &sc, const std::string &k,
                       const std::string &v)
    {
        sc.fields.emplace_back(k, json::string(v));
    }

    /**
     * Write the document to @p path and name it on stdout: schema,
     * @p label, @p quick, @p hostCpus (left out when 0), the process's
     * peak RSS so far, then the scenarios. False on I/O error.
     */
    bool write(const std::string &path, const std::string &label,
               bool quick = true, unsigned hostCpus = 0) const;
};

/** Peak resident set size of this process in bytes (0 if unknown). */
std::uint64_t peakRssBytes();

/**
 * Incremental Chrome-trace writer: spans stream to the output file as
 * the run progresses through a bounded buffer, so RSS stays flat for
 * long Device-level traces. Produces byte-compatible output with
 * writeChromeTrace (metadata events may appear at different positions,
 * which the format permits).
 *
 * Usage, once per traced System:
 *   writer.open(path);
 *   pid = writer.beginProcess(label);  tracer.setStream(&writer);
 *   ... run ...
 *   tracer.setStream(nullptr);  writer.endProcess(data, &meta);
 * and a final writer.close() emits the replay sections and trailer.
 *
 * Replay streams and track tables are small, so they are copied at
 * endProcess() and written in the trailer; only spans stream.
 */
class StreamingTraceWriter : public SpanSink
{
  public:
    /** Spans buffered between fwrite flushes. */
    static constexpr std::size_t kBufferSpans = 4096;

    StreamingTraceWriter() = default;
    ~StreamingTraceWriter() override;

    StreamingTraceWriter(const StreamingTraceWriter &) = delete;
    StreamingTraceWriter &operator=(const StreamingTraceWriter &)
        = delete;

    /** Open @p path and write the header; false on I/O error. */
    bool open(const std::string &path);
    bool isOpen() const { return f_ != nullptr; }

    /** Start the next Perfetto process; returns its pid. */
    unsigned beginProcess(const std::string &name);

    /** SpanSink: buffer the span, flush when the buffer fills. */
    void onSpan(const SpanRec &rec,
                const std::vector<std::string> &tracks) override;

    /**
     * Finish the current process: flush buffered spans and stash its
     * replay stream/metadata (copied; emitted in the trailer).
     */
    void endProcess(const TraceData &data, const ReplayMeta *meta);

    /** Flush, write the trailer, close. False if any write failed. */
    bool close();

  private:
    struct PendingReplay
    {
        std::string name;
        unsigned pid = 0;
        TraceData data; ///< replay/files/replayMissing only (no spans)
        ReplayMeta meta;
        bool hasMeta = false;
    };

    void sep();
    void flush();

    std::FILE *f_ = nullptr;
    bool first_ = true;
    bool error_ = false;
    unsigned pid_ = 0;
    unsigned nextPid_ = 1;
    std::string curName_;
    std::size_t emittedTracks_ = 0;
    std::vector<SpanRec> buf_;
    std::vector<PendingReplay> pending_;
};

} // namespace bpd::obs

#endif // BPD_OBS_EXPORT_HPP
