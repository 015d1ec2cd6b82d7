/**
 * @file
 * perf_report: compares two perf_harness JSON outputs (baseline vs
 * current), prints a speedup table, checks that per-scenario digests
 * match (bit-identical simulated results), and writes a merged
 * BENCH_PR.json suitable for attaching to a PR.
 *
 * Usage:
 *   perf_report <baseline.json> <current.json> [--out BENCH_PR.json]
 *               [--max-rss-growth PCT]
 *
 * --max-rss-growth makes peak-RSS regressions gating: the report exits
 * non-zero when the current run's peak RSS exceeds the baseline's by
 * more than PCT percent (skipped when either side lacks RSS data).
 *
 * When both sides carry shard data ("shards" in a scenario object) a
 * shard-scaling table is printed: events/sec at each shard count and
 * the parallel efficiency of the current run relative to the baseline.
 *
 * Also diffs the per-scenario simulated metric counters (events
 * executed, walk-cache hit rate, page walks, journal commits, ...)
 * that newer harness outputs embed in each scenario object; scenarios
 * or baselines without them show "-".
 *
 * Exit status is non-zero if any scenario present in both files has a
 * digest mismatch, so CI can gate on simulation-result identity.
 *
 * Inputs are read with the bundled obs::json parser and BENCH_PR.json
 * is written with its writer, which re-emits both inputs token for
 * token: string fields stay strings, numbers keep their exact text.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

namespace json = bpd::obs::json;
using json::Value;

/** Parse @p path as a bypassd-bench-v1 document; exits 2 on error. */
Value
loadBenchFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perf_report: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    Value root;
    std::string err;
    if (!json::parse(buf.str(), root, err)) {
        std::fprintf(stderr, "perf_report: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    const Value *schema = root.find("schema");
    if (!schema || schema->str != "bypassd-bench-v1") {
        std::fprintf(stderr,
                     "perf_report: %s: unsupported schema (want "
                     "bypassd-bench-v1)\n",
                     path.c_str());
        std::exit(2);
    }
    return root;
}

/** The scenario objects of a loaded bench file. */
const std::vector<Value> &
scenarios(const Value &bf)
{
    static const std::vector<Value> kNone;
    const Value *scs = bf.find("scenarios");
    return scs ? scs->arr : kNone;
}

/** A numeric field (0 when absent or not a number). */
double
numField(const Value &s, const char *key)
{
    const Value *v = s.find(key);
    return v && v->isNumber() ? v->number : 0.0;
}

/** A scalar field as text: a string's value or a number's token. */
std::string
strField(const Value &s, const char *key)
{
    const Value *v = s.find(key);
    if (!v)
        return std::string();
    return v->isString() ? v->str : v->raw;
}

bool
hasField(const Value &s, const char *key)
{
    return s.find(key) != nullptr;
}

std::string
nameOf(const Value &s)
{
    return hasField(s, "name") ? strField(s, "name") : "?";
}

const Value *
findScenario(const Value &bf, const std::string &name)
{
    for (const Value &s : scenarios(bf))
        if (nameOf(s) == name)
            return &s;
    return nullptr;
}

/** One "base -> cur" cell of the counter diff table ("-" if absent). */
std::string
counterCell(const Value *s, const char *key)
{
    if (!s || !hasField(*s, key))
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", numField(*s, key));
    return buf;
}

/**
 * Non-counter scenario fields: identity, host-side timing, and derived
 * throughput metrics. Everything else in a scenario object is a
 * simulated counter and belongs in the diff table.
 */
bool
isCounterKey(const std::string &k)
{
    static const char *const kSkip[] = {
        "name", "digest", "wall_sec", "events_per_sec",
        "iops", "kops",   "mb_per_s",
        // Sharding config and host-side scheduling artifacts. Note that
        // "windows" and "messages" are NOT skipped: the round count and
        // cross-domain traffic are virtual-time quantities, identical
        // for every shard count, so they belong in the semantic diff.
        "shards", "domains", "lookahead_ns", "barrier_stall_sec",
    };
    for (const char *s : kSkip)
        if (k == s)
            return false;
    // Per-shard event counts depend on placement, not simulation.
    if (k.rfind("shard_", 0) == 0)
        return false;
    return true;
}

/**
 * Shard-scaling table: for every scenario carrying shard data on both
 * sides, relate events/sec to shard count. Parallel efficiency is the
 * speedup divided by the shard-count ratio — 100% means the extra
 * shards were fully converted into throughput.
 */
void
printShardScaling(const Value &base, const Value &cur)
{
    // Efficiency is only meaningful when the host can actually run the
    // shards in parallel: with more shards than cores the threads
    // time-slice one another and eff% measures the scheduler, not the
    // executor. Flag those rows instead of printing a misleading number.
    const double cpus = numField(cur, "host_cpus");
    bool any = false;
    bool anyCoreLimited = false;
    for (const Value &c : scenarios(cur)) {
        const std::string name = nameOf(c);
        const Value *b = findScenario(base, name);
        if (!b || !hasField(*b, "shards") || !hasField(c, "shards"))
            continue;
        const double bs = numField(*b, "shards");
        const double cs = numField(c, "shards");
        const double be = numField(*b, "events_per_sec");
        const double ce = numField(c, "events_per_sec");
        if (bs <= 0 || cs <= 0 || be <= 0)
            continue;
        if (!any) {
            std::printf("\nshard scaling (events/sec vs shards):\n");
            std::printf("  %-26s %6s %6s %12s %12s %8s %8s\n",
                        "scenario", "shards", "shards", "base ev/s",
                        "cur ev/s", "speedup", "eff%");
        }
        any = true;
        const double speedup = ce / be;
        const bool coreLimited = cpus > 0 && cs > cpus;
        anyCoreLimited |= coreLimited;
        if (coreLimited) {
            std::printf("  %-26s %6.0f %6.0f %12.0f %12.0f %7.2fx %8s\n",
                        name.c_str(), bs, cs, be, ce, speedup,
                        "core-ltd");
        } else {
            const double eff = 100.0 * speedup / (cs / bs);
            std::printf("  %-26s %6.0f %6.0f %12.0f %12.0f %7.2fx %7.1f%%\n",
                        name.c_str(), bs, cs, be, ce, speedup, eff);
        }
    }
    if (any && cpus > 0) {
        std::printf("  (current host has %.0f cpu%s — speedup is "
                    "bounded by physical cores)\n",
                    cpus, cpus == 1 ? "" : "s");
        if (anyCoreLimited)
            std::printf("  (core-ltd: more shards than host cpus; "
                        "threads time-slice, so parallel efficiency "
                        "is not measurable)\n");
    }
}

/**
 * Per-reactor breakdown: scenarios that carry the fabric target's lane
 * accounting ("reactors" + "reactor.N.*") get a per-lane table with a
 * busy-imbalance summary. The conn→reactor striping is deterministic,
 * so a skewed lane here means the connection population is skewed —
 * not that the run raced.
 */
void
printReactorBreakdown(const Value &cur)
{
    bool any = false;
    for (const Value &c : scenarios(cur)) {
        if (!hasField(c, "reactors"))
            continue;
        const unsigned n = static_cast<unsigned>(numField(c, "reactors"));
        if (n == 0 || !hasField(c, "reactor.0.capsules"))
            continue;
        if (!any)
            std::printf("\nper-reactor breakdown (current):\n");
        any = true;
        std::printf("  %s\n", nameOf(c).c_str());
        std::printf("    %7s %10s %12s %14s\n", "reactor", "capsules",
                    "rdma_setups", "busy_ns");
        double busyMin = 0, busyMax = 0;
        for (unsigned r = 0; r < n; r++) {
            char key[48];
            std::snprintf(key, sizeof(key), "reactor.%u.capsules", r);
            const double caps = numField(c, key);
            std::snprintf(key, sizeof(key), "reactor.%u.rdma_setups", r);
            const double rdma = numField(c, key);
            std::snprintf(key, sizeof(key), "reactor.%u.busy_ns", r);
            const double busy = numField(c, key);
            std::printf("    %7u %10.0f %12.0f %14.0f\n", r, caps, rdma,
                        busy);
            busyMin = r == 0 ? busy : std::min(busyMin, busy);
            busyMax = std::max(busyMax, busy);
        }
        if (n > 1 && busyMin > 0)
            std::printf("    busy imbalance (max/min): %.2fx\n",
                        busyMax / busyMin);
    }
}

/**
 * Per-device breakdown: scenarios that carry device-map accounting
 * ("devices" + "dev.N.*", emitted by fleet benches) get a per-slot
 * table. The two ops columns come from independent ledgers — the
 * device's own hardware counter and the per-(device, tenant)
 * accounting rows folded over tenants — so a row where they disagree
 * means the tenant attribution leaked, not that the run raced.
 */
void
printDeviceBreakdown(const Value &cur)
{
    bool any = false;
    for (const Value &c : scenarios(cur)) {
        if (!hasField(c, "devices"))
            continue;
        const unsigned n = static_cast<unsigned>(numField(c, "devices"));
        if (n == 0 || !hasField(c, "dev.0.device_ops"))
            continue;
        if (!any)
            std::printf("\nper-device breakdown (current):\n");
        any = true;
        std::printf("  %s\n", nameOf(c).c_str());
        std::printf("    %4s %6s %10s %8s %10s %10s %10s %12s %9s\n",
                    "slot", "dev_id", "dev_ops", "writes", "p50_ns",
                    "p99_ns", "acct_ops", "acct_bytes", "bytes/op");
        double opsMin = 0, opsMax = 0;
        bool acctMismatch = false;
        bool zeroOpSlot = false;
        for (unsigned d = 0; d < n; d++) {
            char key[48];
            auto devNum = [&](const char *f) {
                std::snprintf(key, sizeof(key), "dev.%u.%s", d, f);
                return numField(c, key);
            };
            const double ops = devNum("device_ops");
            const double acctOps = devNum("acct_ssd_ops");
            acctMismatch |= ops != acctOps;
            std::printf("    %4u %6.0f %10.0f %8.0f ", d,
                        devNum("dev_id"), ops, devNum("writes"));
            // A slot that served no ops (e.g. evicted before its first
            // dispatch) has no latency distribution and no meaningful
            // per-op average: print "—" rather than 0s / nan / inf.
            if (ops > 0) {
                std::printf("%10.0f %10.0f ", devNum("p50_ns"),
                            devNum("p99_ns"));
            } else {
                zeroOpSlot = true;
                std::printf("%10s %10s ", "—", "—");
            }
            std::printf("%10.0f %12.0f ", acctOps, devNum("acct_bytes"));
            if (acctOps > 0)
                std::printf("%9.0f\n", devNum("acct_bytes") / acctOps);
            else
                std::printf("%9s\n", "—");
            opsMin = d == 0 ? ops : std::min(opsMin, ops);
            opsMax = std::max(opsMax, ops);
        }
        // The honest imbalance: a slot that served nothing is the most
        // extreme imbalance there is, not a reason to stay silent.
        if (n > 1 && opsMin > 0)
            std::printf("    ops imbalance (max/min): %.2fx\n",
                        opsMax / opsMin);
        else if (n > 1 && zeroOpSlot && opsMax > 0)
            std::printf("    ops imbalance (max/min): unbounded "
                        "(a slot served 0 ops)\n");
        if (acctMismatch)
            std::printf("    WARNING: tenant accounting disagrees with "
                        "device hardware counters\n");
    }
}

/**
 * Diff the simulated metric counters embedded in the scenario objects.
 * These are outputs of the simulation (not host-side timing), so any
 * base/cur difference on an unchanged workload is a semantic change —
 * the digest gate catches it, this table says *where*. Keys present on
 * only one side are real signal too (a counter appearing or vanishing
 * is a behavior change), so the table walks the union of both key sets
 * and annotates one-sided rows as added/removed.
 */
void
printCounterDiff(const Value &base, const Value &cur)
{
    bool any = false;
    for (const Value &c : scenarios(cur)) {
        const std::string name = nameOf(c);
        const Value *b = findScenario(base, name);
        std::map<std::string, int> keys; // 1 = base, 2 = cur, 3 = both
        if (b)
            for (const auto &[k, v] : b->obj)
                if (isCounterKey(k))
                    keys[k] |= 1;
        for (const auto &[k, v] : c.obj)
            if (isCounterKey(k))
                keys[k] |= 2;
        if (keys.empty())
            continue;
        if (!any)
            std::printf("\nsimulated counters (base -> cur):\n");
        any = true;

        std::printf("  %s\n", name.c_str());
        for (const auto &[k, side] : keys) {
            const std::string bs = counterCell(b, k.c_str());
            const std::string cs = counterCell(&c, k.c_str());
            const char *note = "";
            if (side == 2)
                note = "  (added)";
            else if (side == 1)
                note = "  (removed)";
            else if (bs != cs)
                note = "  *";
            std::printf("    %-20s %14s -> %-14s%s\n", k.c_str(),
                        bs.c_str(), cs.c_str(), note);
        }
        if (hasField(c, "walk_cache_hits")
            && hasField(c, "walk_cache_misses")) {
            const double h = numField(c, "walk_cache_hits");
            const double m = numField(c, "walk_cache_misses");
            if (h + m > 0)
                std::printf("    %-20s %14s    %.2f%%\n",
                            "walk_cache_hit_rate", "", 100.0 * h / (h + m));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    std::optional<double> maxRssGrowthPct;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc)
            outPath = argv[++i];
        else if (a == "--max-rss-growth" && i + 1 < argc)
            maxRssGrowthPct = std::atof(argv[++i]);
        else if (a == "--help" || a == "-h") {
            std::printf("usage: perf_report <baseline.json> "
                        "<current.json> [--out BENCH_PR.json] "
                        "[--max-rss-growth PCT]\n");
            return 0;
        } else
            inputs.push_back(a);
    }
    if (inputs.size() != 2) {
        std::fprintf(stderr, "usage: perf_report <baseline.json> "
                             "<current.json> [--out BENCH_PR.json] "
                             "[--max-rss-growth PCT]\n");
        return 2;
    }

    const Value base = loadBenchFile(inputs[0]);
    const Value cur = loadBenchFile(inputs[1]);

    std::printf("%-26s %14s %14s %8s  %s\n", "scenario",
                "base ev/s", "cur ev/s", "speedup", "digest");
    bool digestMismatch = false;
    struct Row
    {
        std::string name;
        double speedup;
        bool match;
    };
    std::vector<Row> rows;
    for (const Value &c : scenarios(cur)) {
        const std::string name = nameOf(c);
        const Value *b = findScenario(base, name);
        if (!b) {
            std::printf("%-26s %14s %14.1f %8s  (new)\n", name.c_str(),
                        "-", numField(c, "events_per_sec"), "-");
            continue;
        }
        const double be = numField(*b, "events_per_sec");
        const double ce = numField(c, "events_per_sec");
        const double speedup = be > 0 ? ce / be : 0.0;
        const bool match = strField(*b, "digest") == strField(c, "digest");
        digestMismatch |= !match;
        rows.push_back(Row{name, speedup, match});
        std::printf("%-26s %14.1f %14.1f %7.2fx  %s\n", name.c_str(), be,
                    ce, speedup, match ? "match" : "MISMATCH");
    }
    const double baseRss = numField(base, "peak_rss_bytes");
    const double curRss = numField(cur, "peak_rss_bytes");
    std::printf("peak RSS: %.1f MiB -> %.1f MiB\n",
                baseRss / (1 << 20), curRss / (1 << 20));
    bool rssViolation = false;
    if (maxRssGrowthPct && baseRss > 0 && curRss > 0) {
        const double growth = 100.0 * (curRss - baseRss) / baseRss;
        rssViolation = growth > *maxRssGrowthPct;
        std::printf("peak RSS growth: %+.1f%% (budget %.1f%%) %s\n",
                    growth, *maxRssGrowthPct,
                    rssViolation ? "EXCEEDED" : "ok");
    }
    printShardScaling(base, cur);
    printReactorBreakdown(cur);
    printDeviceBreakdown(cur);
    printCounterDiff(base, cur);
    if (digestMismatch)
        std::fprintf(stderr, "perf_report: DIGEST MISMATCH — simulated "
                             "results differ from baseline\n");
    if (rssViolation)
        std::fprintf(stderr, "perf_report: RSS BUDGET EXCEEDED — peak "
                             "RSS grew past --max-rss-growth\n");

    if (!outPath.empty()) {
        json::Writer w;
        w.beginObject();
        w.key("schema").str("bypassd-bench-report-v1");
        w.key("digest_match").boolean(!digestMismatch);
        w.key("comparison").beginArray();
        for (const Row &r : rows) {
            w.beginObject(true);
            w.key("name").str(r.name);
            w.key("speedup").num(r.speedup, "%.3f");
            w.key("digest_match").boolean(r.match);
            w.endObject();
        }
        w.endArray();
        w.key("baseline").value(base);
        w.key("current").value(cur);
        w.endObject();
        if (!json::writeFile(outPath, w.text())) {
            std::fprintf(stderr, "perf_report: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        std::printf("wrote %s\n", outPath.c_str());
    }
    return (digestMismatch || rssViolation) ? 1 : 0;
}
