/**
 * @file
 * Exporters: Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing), a metrics JSON dump and the bench-v1 results
 * document.
 *
 * Each traced run becomes one Perfetto *process* (pid) so benches that
 * build one System per scenario/cell merge all runs into a single
 * file; interned tracks become *threads* (tid) with thread_name
 * metadata. Virtual-time nanoseconds are emitted as fractional
 * microseconds (the unit the Chrome format expects).
 */

#ifndef BPD_OBS_EXPORT_HPP
#define BPD_OBS_EXPORT_HPP

#include <cstdio>
#include <memory>
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

/** One metrics snapshot, keyed by run label in the output object. */
struct MetricsRun
{
    std::string name;
    MetricsSnapshot snapshot;
};

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
 * Span storage of one traced run, attached with Tracer::setStream. At
 * most kBufferSpans spans stay in memory; the rest spill, as raw
 * SpanRecs, to a private temporary file. Only the run's own System
 * thread touches the sink while the run is live, so the machines of a
 * sharded fleet need no lock. A sink made not to keep spans drops
 * them. TraceWriter::append reads the spans back.
 */
class SpanSpill : public SpanSink
{
  public:
    static constexpr std::size_t kBufferSpans = 4096;

    explicit SpanSpill(bool keep);
    ~SpanSpill() override;

    SpanSpill(const SpanSpill &) = delete;
    SpanSpill &operator=(const SpanSpill &) = delete;

    void onSpan(const SpanRec &rec,
                const std::vector<std::string> &tracks) override;

    /** Spans kept so far, spilled ones included. */
    std::size_t size() const { return spilled_ + buf_.size(); }

  private:
    friend class TraceWriter;

    bool keep_;
    bool failed_ = false; ///< a spill write failed; spans were lost
    std::vector<SpanRec> buf_;
    std::FILE *file_ = nullptr;
    std::size_t spilled_ = 0;
};

/**
 * The one Chrome trace-event writer ({"traceEvents": [...]}). Each
 * append() adds one traced run as a Perfetto process, pids in append
 * order: its process_name and thread_name metadata, then its spans —
 * those retained in TraceData::spans and those its SpanSpill kept —
 * and stages its replay section in a temporary file. close() writes
 * the staged sections as the top-level "replay" array after the
 * events. Memory stays bounded by one span buffer per live run.
 *
 * Usage, once per traced run:
 *   auto sink = writer.sink();  tracer.setStream(sink.get());
 *   ... run ...
 *   tracer.setStream(nullptr);
 *   writer.append(label, tracer.data(), &meta, sink.get());
 */
class TraceWriter
{
  public:
    TraceWriter() = default;
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Open @p path and write the header; false on I/O error. */
    bool open(const std::string &path);
    bool isOpen() const { return out_ != nullptr; }

    /** A sink for one run; it keeps spans only while this writer is
     *  open. */
    std::unique_ptr<SpanSpill> sink() const;

    /**
     * Append one process named @p name holding the spans of @p data
     * and of @p spans. Its replay section is written when @p data has
     * replay records or @p meta is given. No-op while not open; a
     * failed spill of @p spans fails the writer.
     */
    void append(const std::string &name, const TraceData &data,
                const ReplayMeta *meta = nullptr,
                SpanSpill *spans = nullptr);

    /**
     * Write the replay sections and the trailer, and close. False if
     * opening or any write failed; the partial file is then removed,
     * so a failed trace never passes for a shorter one.
     */
    bool close();

  private:
    void printSpans(unsigned pid, const std::vector<SpanRec> &spans);

    std::FILE *out_ = nullptr;
    std::FILE *replay_ = nullptr; ///< staged replay sections
    std::string path_;
    unsigned pid_ = 0; ///< pid of the last appended process
    bool failed_ = false;
};

} // namespace bpd::obs

#endif // BPD_OBS_EXPORT_HPP
