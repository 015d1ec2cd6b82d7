#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <type_traits>

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

// Spilled spans are written and read back as raw bytes within one
// process: their name and arg-key pointers are string literals.
static_assert(std::is_trivially_copyable_v<SpanRec>);

SpanSpill::SpanSpill(bool keep) : keep_(keep)
{
    if (keep_)
        buf_.reserve(kBufferSpans);
}

SpanSpill::~SpanSpill()
{
    if (file_)
        std::fclose(file_);
}

void SpanSpill::onSpan(const SpanRec &rec, const std::vector<std::string> &)
{
    if (!keep_ || failed_)
        return;
    if (buf_.size() == kBufferSpans) {
        if (!file_)
            file_ = std::tmpfile();
        if (!file_
            || std::fwrite(buf_.data(), sizeof(SpanRec), buf_.size(), file_)
                   != buf_.size()) {
            failed_ = true;
            return;
        }
        spilled_ += buf_.size();
        buf_.clear();
    }
    buf_.push_back(rec);
}

TraceWriter::~TraceWriter()
{
    close();
}

bool TraceWriter::open(const std::string &path)
{
    path_ = path;
    out_ = std::fopen(path.c_str(), "w");
    failed_ = !out_;
    if (out_)
        std::fputs("{\"traceEvents\":[", out_);
    return out_ != nullptr;
}

std::unique_ptr<SpanSpill> TraceWriter::sink() const
{
    return std::make_unique<SpanSpill>(isOpen());
}

void TraceWriter::printSpans(unsigned pid, const std::vector<SpanRec> &spans)
{
    for (const SpanRec &rec : spans) {
        std::fputs(",\n", out_);
        printSpanEvent(out_, pid, rec);
    }
}

void TraceWriter::append(const std::string &name, const TraceData &data,
                         const ReplayMeta *meta, SpanSpill *spans)
{
    if (!out_)
        return;
    const unsigned pid = ++pid_;
    std::fprintf(out_,
                 "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%u,"
                 "\"tid\":0,\"args\":{\"name\":\"",
                 pid == 1 ? "\n" : ",\n", pid);
    printEscaped(out_, name.c_str());
    std::fputs("\"}}", out_);

    for (std::size_t t = 0; t < data.tracks.size(); ++t) {
        std::fprintf(out_,
                     ",\n{\"ph\":\"M\",\"name\":\"thread_name\","
                     "\"pid\":%u,\"tid\":%zu,\"args\":{\"name\":\"",
                     pid, t);
        printEscaped(out_, data.tracks[t].c_str());
        std::fputs("\"}}", out_);
    }

    // A run keeps its spans in the tracer (no sink) or in its sink,
    // whose spilled spans precede its buffer.
    printSpans(pid, data.spans);
    if (spans) {
        failed_ |= spans->failed_;
        if (spans->file_ && !spans->failed_) {
            // fseek, unlike rewind, reports a failed flush.
            bool ok = std::fseek(spans->file_, 0, SEEK_SET) == 0;
            std::vector<SpanRec> batch;
            for (std::size_t left = spans->spilled_; ok && left > 0;) {
                batch.resize(std::min(left, SpanSpill::kBufferSpans));
                ok = std::fread(batch.data(), sizeof(SpanRec), batch.size(),
                                spans->file_)
                     == batch.size();
                if (ok)
                    printSpans(pid, batch);
                left -= batch.size();
            }
            failed_ |= !ok;
        }
        printSpans(pid, spans->buf_);
    }

    failed_ |= std::ferror(out_) != 0;
    if (data.replay.empty() && !meta)
        return;
    const bool firstReplay = !replay_;
    if (firstReplay)
        replay_ = std::tmpfile();
    if (!replay_) {
        failed_ = true;
        return;
    }
    std::fputs(firstReplay ? "\n" : ",\n", replay_);
    printReplaySection(replay_, name.c_str(), pid, data, meta);
    failed_ |= std::ferror(replay_) != 0;
}

bool TraceWriter::close()
{
    if (!out_)
        return !failed_;
    std::fputs("\n],\"displayTimeUnit\":\"ns\"", out_);
    // Perfetto and chrome://tracing ignore unknown top-level keys, so
    // the trace stays loadable; tools/trace_replay reads this section.
    if (replay_) {
        std::fputs(",\n\"replay\":[", out_);
        failed_ |= std::fseek(replay_, 0, SEEK_SET) != 0;
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), replay_)) > 0)
            failed_ |= std::fwrite(buf, 1, n, out_) != n;
        failed_ |= std::ferror(replay_) != 0;
        std::fclose(replay_);
        replay_ = nullptr;
        std::fputs("\n]", out_);
    }
    std::fputs("}\n", out_);
    failed_ |= std::ferror(out_) != 0;
    failed_ |= std::fclose(out_) != 0;
    out_ = nullptr;
    if (failed_)
        std::remove(path_.c_str());
    return !failed_;
}

} // namespace bpd::obs
