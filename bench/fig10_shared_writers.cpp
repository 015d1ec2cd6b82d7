/**
 * @file
 * Fig. 10: aggregate write bandwidth when the device is shared between
 * multiple writer processes (private files). SPDK has no bars: it
 * cannot share the device at all.
 *
 * Each writer process is a tenant; with --out, every cell's scenario in
 * the bypassd-bench-v1 JSON carries per-tenant ops/bytes/iops plus the
 * fmap and revocation counts from the tenant accounting.
 */

#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::wl;

int
main(int argc, char **argv)
{
    bench::ObsCapture obs;
    std::string outPath;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: fig10_shared_writers [--out FILE] "
                         "[--trace FILE] [--metrics FILE] "
                         "[--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Fig. 10",
                  "aggregate write bandwidth, multiple writer processes");

    const unsigned procs[] = {1, 2, 4, 8};
    const Engine engines[] = {Engine::Sync, Engine::Libaio,
                              Engine::IoUring, Engine::Bypassd};

    std::printf("%-10s", "engine");
    for (unsigned n : procs)
        std::printf(" %9s", sim::strf("%uproc", n).c_str());
    std::printf("   (MB/s)\n");

    bench::BenchJson json;
    for (Engine e : engines) {
        std::printf("%-10s", toString(e));
        for (unsigned n : procs) {
            FioJob job;
            job.engine = e;
            job.rw = RwMode::RandWrite;
            job.bs = 16 << 10;
            job.numJobs = n;
            job.perProcess = true;
            job.runtime = 6 * kMs;
            job.warmup = 1 * kMs;
            job.fileBytes = 512ull << 20;
            const std::string label
                = sim::strf("fig10_%s_%uproc", toString(e), n);
            FioResult r = bench::runFio(job, {}, obs, label);
            std::printf(" %9.0f", r.bwBytesPerSec() / 1e6);
            if (!outPath.empty()) {
                bench::BenchJson::Scenario &sc = json.add(label);
                bench::BenchJson::field(sc, "ops", r.ops);
                bench::BenchJson::field(sc, "bytes", r.bytes);
                bench::BenchJson::fieldF(sc, "bw_mb_s",
                                         r.bwBytesPerSec() / 1e6);
                const double sec
                    = static_cast<double>(r.elapsed) / 1e9;
                for (const wl::FioTenantSlice &ts : r.tenants) {
                    const std::string p
                        = sim::strf("tenant.%u.", ts.tenant);
                    bench::BenchJson::field(sc, p + "ops", ts.ops);
                    bench::BenchJson::field(sc, p + "bytes", ts.bytes);
                    bench::BenchJson::fieldF(
                        sc, p + "iops",
                        sec > 0 ? static_cast<double>(ts.ops) / sec
                                : 0.0);
                    bench::BenchJson::field(sc, p + "fmaps", ts.fmaps);
                    bench::BenchJson::field(sc, p + "revocations",
                                            ts.revocations);
                }
            }
        }
        std::printf("\n");
    }
    std::printf("%-10s", "spdk");
    for (unsigned n : procs) {
        (void)n;
        std::printf(" %9s", n == 1 ? "excl-only" : "n/a");
    }
    std::printf("\n\nPaper shape: BypassD gives every process the direct "
                "path, so aggregate\nbandwidth leads the kernel engines "
                "at every process count; SPDK cannot\nshare the device "
                "between processes at all.\n");
    if (!outPath.empty() && !json.write(outPath, "fig10"))
        return 1;
    return obs.write() ? 0 : 1;
}
