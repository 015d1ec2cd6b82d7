#include "obs/export.hpp"

#include <cinttypes>

#include <sys/resource.h>

namespace bpd::obs {

namespace {

void printEscaped(std::FILE *f, const char *s)
{
    json::escape(s, [f](const char *p, std::size_t n) {
        std::fwrite(p, 1, n, f);
    });
}

/** ns → µs with 3 decimals, the native unit of the Chrome format. */
void printTs(std::FILE *f, Time ns)
{
    std::fprintf(f, "%" PRIu64 ".%03u", ns / 1000,
                 static_cast<unsigned>(ns % 1000));
}

void printArgs(std::FILE *f, const SpanRec &rec)
{
    std::fputs("\"args\":{", f);
    bool first = true;
    if (rec.trace != 0) {
        std::fprintf(f, "\"trace\":%" PRIu64, rec.trace);
        first = false;
    }
    if (rec.tenant != kSystemTenant) {
        if (!first)
            std::fputc(',', f);
        std::fprintf(f, "\"tenant\":%" PRIu32, rec.tenant);
        first = false;
    }
    for (unsigned i = 0; i < rec.nargs; ++i) {
        if (!first)
            std::fputc(',', f);
        first = false;
        std::fputc('"', f);
        printEscaped(f, rec.args[i].key);
        std::fprintf(f, "\":%" PRId64, rec.args[i].value);
    }
    std::fputc('}', f);
}

/** One trace event line for @p rec (no leading separator). */
void printSpanEvent(std::FILE *f, unsigned pid, const SpanRec &rec)
{
    if (rec.phase == 'i') {
        std::fprintf(f,
                     "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\","
                     "\"pid\":%u,\"tid\":%u,\"ts\":",
                     rec.name, pid, rec.track);
        printTs(f, rec.start);
    } else {
        std::fprintf(f,
                     "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%u,"
                     "\"tid\":%u,\"ts\":",
                     rec.name, pid, rec.track);
        printTs(f, rec.start);
        std::fputs(",\"dur\":", f);
        printTs(f, rec.end - rec.start);
    }
    std::fputc(',', f);
    printArgs(f, rec);
    std::fputc('}', f);
}

/**
 * One {"process": ...} object of the top-level "replay" section (no
 * leading separator).
 */
void printReplaySection(std::FILE *f, const char *name, unsigned pid,
                        const TraceData &data, const ReplayMeta *meta)
{
    std::fprintf(f, "{\"process\":\"");
    printEscaped(f, name);
    std::fprintf(f, "\",\"pid\":%u", pid);

    if (!data.replayMissing.empty()) {
        std::fputs(",\"partial\":true,\"missing\":[", f);
        for (std::size_t m = 0; m < data.replayMissing.size(); ++m) {
            if (m)
                std::fputc(',', f);
            std::fputc('"', f);
            printEscaped(f, data.replayMissing[m].c_str());
            std::fputc('"', f);
        }
        std::fputc(']', f);
    }

    if (meta) {
        std::fputs(",\"config\":{", f);
        for (std::size_t k = 0; k < meta->config.size(); ++k) {
            if (k)
                std::fputc(',', f);
            std::fputc('"', f);
            printEscaped(f, meta->config[k].first.c_str());
            // %.17g round-trips doubles exactly through the
            // bundled parser.
            std::fprintf(f, "\":%.17g", meta->config[k].second);
        }
        std::fputs("},\"counters\":{", f);
        for (std::size_t k = 0; k < meta->counters.size(); ++k) {
            if (k)
                std::fputc(',', f);
            std::fputc('"', f);
            printEscaped(f, meta->counters[k].first.c_str());
            std::fprintf(f, "\":%" PRIu64, meta->counters[k].second);
        }
        std::fprintf(f,
                     "},\"digest\":\"%016" PRIx64 "\",\"events\":%" PRIu64
                     ",\"sim_ns\":%" PRIu64,
                     meta->digest, meta->events, meta->simNs);
    }

    std::fputs(",\"files\":[", f);
    for (std::size_t i = 0; i < data.files.size(); ++i) {
        if (i)
            std::fputc(',', f);
        std::fputc('"', f);
        printEscaped(f, data.files[i].c_str());
        std::fputc('"', f);
    }
    std::fputs("],\"ops\":[", f);
    for (std::size_t i = 0; i < data.replay.size(); ++i) {
        const ReplayRec &r = data.replay[i];
        // The 14th cell (serving DevId) is appended last so older rows
        // parse as a strict prefix of newer ones.
        std::fprintf(f,
                     "%s\n[%u,%u,%u,%" PRIu32 ",%" PRIu32 ",%" PRIu32
                     ",%" PRIu32 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                     ",%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%u]",
                     i ? "," : "", r.op, r.engine, r.lane, r.proc,
                     r.tenant, r.tid, r.file, r.offset, r.len, r.aux,
                     r.issue, r.complete, r.result,
                     static_cast<unsigned>(r.dev));
    }
    std::fputs("]}", f);
}

} // namespace

void writeChromeTrace(std::FILE *f,
                      const std::vector<TraceProcess> &processes)
{
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    auto sep = [&] {
        if (!first)
            std::fputs(",\n", f);
        else
            std::fputc('\n', f);
        first = false;
    };

    for (std::size_t p = 0; p < processes.size(); ++p) {
        const unsigned pid = static_cast<unsigned>(p + 1);
        const TraceData *data = processes[p].data;
        if (!data)
            continue;

        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                     "\"tid\":0,\"args\":{\"name\":\"",
                     pid);
        printEscaped(f, processes[p].name.c_str());
        std::fputs("\"}}", f);

        for (std::size_t t = 0; t < data->tracks.size(); ++t) {
            sep();
            std::fprintf(f,
                         "{\"ph\":\"M\",\"name\":\"thread_name\","
                         "\"pid\":%u,\"tid\":%zu,\"args\":{\"name\":\"",
                         pid, t);
            printEscaped(f, data->tracks[t].c_str());
            std::fputs("\"}}", f);
        }

        for (const SpanRec &rec : data->spans) {
            sep();
            printSpanEvent(f, pid, rec);
        }
    }

    std::fputs("\n],\"displayTimeUnit\":\"ns\"", f);

    // Replay-sufficient request records, one entry per traced process.
    // Perfetto and chrome://tracing ignore unknown top-level keys, so
    // the trace stays loadable; tools/trace_replay reads this section.
    bool anyReplay = false;
    for (const TraceProcess &tp : processes)
        anyReplay |= tp.data
                     && (!tp.data->replay.empty() || tp.replay != nullptr);
    if (anyReplay) {
        std::fputs(",\n\"replay\":[", f);
        bool firstProc = true;
        for (std::size_t p = 0; p < processes.size(); ++p) {
            const TraceData *data = processes[p].data;
            if (!data || (data->replay.empty() && !processes[p].replay))
                continue;
            if (!firstProc)
                std::fputc(',', f);
            firstProc = false;
            std::fputc('\n', f);
            printReplaySection(f, processes[p].name.c_str(),
                               static_cast<unsigned>(p + 1), *data,
                               processes[p].replay);
        }
        std::fputs("\n]", f);
    }

    std::fputs("}\n", f);
}

bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceProcess> &processes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    writeChromeTrace(f, processes);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

bool writeMetricsFile(const std::string &path,
                      const std::vector<MetricsRun> &runs)
{
    json::Writer w;
    w.beginObject();
    w.key("schema").str("bypassd-metrics-v1");
    w.key("runs").beginObject();
    for (const MetricsRun &run : runs) {
        w.key(run.name);
        run.snapshot.toJson(w);
    }
    w.endObject();
    w.endObject();
    return json::writeFile(path, w.text());
}

std::uint64_t peakRssBytes()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0 || ru.ru_maxrss <= 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // Linux: KiB
}

bool BenchJson::write(const std::string &path, const std::string &label,
                      bool quick, unsigned hostCpus) const
{
    json::Writer w;
    w.beginObject();
    w.key("schema").str("bypassd-bench-v1");
    w.key("label").str(label);
    w.key("quick").boolean(quick);
    // Shard speedup is bounded by physical parallelism; record the
    // host's so scaling tables stay interpretable across machines.
    if (hostCpus)
        w.key("host_cpus").uint(hostCpus);
    // Real peak RSS, so perf_report's --max-rss-growth budget bites on
    // every bench.
    w.key("peak_rss_bytes").uint(peakRssBytes());
    w.key("scenarios").beginArray();
    for (const Scenario &sc : scenarios) {
        w.beginObject();
        w.key("name").str(sc.name);
        for (const auto &[k, v] : sc.fields)
            w.key(k).value(v);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!json::writeFile(path, w.text())) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

StreamingTraceWriter::~StreamingTraceWriter()
{
    close();
}

bool StreamingTraceWriter::open(const std::string &path)
{
    f_ = std::fopen(path.c_str(), "w");
    if (!f_)
        return false;
    buf_.reserve(kBufferSpans);
    std::fputs("{\"traceEvents\":[", f_);
    first_ = true;
    return std::ferror(f_) == 0;
}

void StreamingTraceWriter::sep()
{
    std::fputs(first_ ? "\n" : ",\n", f_);
    first_ = false;
}

void StreamingTraceWriter::flush()
{
    if (!f_)
        return;
    for (const SpanRec &rec : buf_) {
        sep();
        printSpanEvent(f_, pid_, rec);
    }
    buf_.clear();
    error_ |= std::ferror(f_) != 0;
}

unsigned StreamingTraceWriter::beginProcess(const std::string &name)
{
    flush();
    pid_ = nextPid_++;
    curName_ = name;
    emittedTracks_ = 0;
    if (f_) {
        sep();
        std::fprintf(f_,
                     "{\"ph\":\"M\",\"name\":\"process_name\","
                     "\"pid\":%u,\"tid\":0,\"args\":{\"name\":\"",
                     pid_);
        printEscaped(f_, name.c_str());
        std::fputs("\"}}", f_);
    }
    return pid_;
}

void StreamingTraceWriter::onSpan(const SpanRec &rec,
                                  const std::vector<std::string> &tracks)
{
    if (!f_)
        return;
    // The intern table only grows; emit thread_name metadata for any
    // track that appeared since the last span (position in the event
    // array does not matter to the Chrome format).
    while (emittedTracks_ < tracks.size()) {
        sep();
        std::fprintf(f_,
                     "{\"ph\":\"M\",\"name\":\"thread_name\","
                     "\"pid\":%u,\"tid\":%zu,\"args\":{\"name\":\"",
                     pid_, emittedTracks_);
        printEscaped(f_, tracks[emittedTracks_].c_str());
        std::fputs("\"}}", f_);
        ++emittedTracks_;
    }
    buf_.push_back(rec);
    if (buf_.size() >= kBufferSpans)
        flush();
}

void StreamingTraceWriter::endProcess(const TraceData &data,
                                      const ReplayMeta *meta)
{
    flush();
    if (data.replay.empty() && data.replayMissing.empty() && !meta)
        return;
    PendingReplay p;
    p.name = curName_;
    p.pid = pid_;
    // Spans were streamed; only the (small) replay side is copied.
    p.data.replay = data.replay;
    p.data.files = data.files;
    p.data.replayMissing = data.replayMissing;
    if (meta) {
        p.meta = *meta;
        p.hasMeta = true;
    }
    pending_.push_back(std::move(p));
}

bool StreamingTraceWriter::close()
{
    if (!f_)
        return !error_;
    flush();
    std::fputs("\n],\"displayTimeUnit\":\"ns\"", f_);
    if (!pending_.empty()) {
        std::fputs(",\n\"replay\":[", f_);
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            const PendingReplay &p = pending_[i];
            if (i)
                std::fputc(',', f_);
            std::fputc('\n', f_);
            printReplaySection(f_, p.name.c_str(), p.pid, p.data,
                               p.hasMeta ? &p.meta : nullptr);
        }
        std::fputs("\n]", f_);
    }
    std::fputs("}\n", f_);
    error_ |= std::ferror(f_) != 0;
    std::fclose(f_);
    f_ = nullptr;
    pending_.clear();
    return !error_;
}

} // namespace bpd::obs
