/**
 * @file
 * Fig. 12: read throughput of a process over time. It starts on the
 * BypassD interface; at t=5s another process opens the same file in
 * buffered mode, the kernel revokes direct access (Section 3.6), and
 * the reader transparently falls back to the kernel interface with a
 * visible throughput drop.
 *
 * Runs with per-tenant attribution on and asserts the attribution
 * invariant after the run; --out writes a bypassd-bench-v1 JSON whose
 * scenario carries per-tenant iops/fmap/revocation fields. The drive
 * loop records a replay stream, so a --trace capture is replayable.
 */

#include <functional>

#include "bench/common.hpp"
#include "bench/recording.hpp"

using namespace bpd;

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
                         "usage: fig12_revocation [--out FILE] "
                         "[--trace FILE] [--metrics FILE] "
                         "[--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Fig. 12",
                  "read throughput over time with access revocation");

    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s);
    s->enableTenantAccounting();
    bench::Recorder rec(*s);
    kern::Process &reader = s->newProcess(1000, 1000);
    const std::uint32_t sharedDb = rec.file("/shared.db");
    const int cfd = rec.createFile(reader, sharedDb, "/shared.db",
                                   1ull << 30, 0, wl::Engine::Bypassd);
    int rc = -1;
    rec.sysClose(reader, cfd, sharedDb, [&rc](int r) { rc = r; },
                 wl::Engine::Bypassd);
    s->run();

    bypassd::UserLib &lib = s->userLib(reader);
    int fd = -1;
    rec.open(lib, reader, sharedDb, "/shared.db",
             fs::kOpenRead | fs::kOpenDirect, [&fd](int f) { fd = f; });
    s->run();
    sim::panicIf(fd < 0 || !lib.isDirect(fd), "reader open failed");
    rec.prepareThread(lib, reader, 0);
    rec.cpuAcquire(reader, 1);

    const Time tEnd = s->now() + 8 * kSec;
    sim::TimeSeries throughput(250 * kMs);
    std::vector<std::uint8_t> buf(4096);
    sim::Rng rng(5);

    // The loop lives on this frame: s->run() below drains it.
    std::function<void()> loop = [&]() {
        if (s->now() >= tEnd)
            return;
        const std::uint64_t off
            = rng.nextUint((1ull << 30) / 4096) * 4096;
        rec.pread(lib, reader, 0, fd, buf, off, 0, sharedDb,
                  [&](long long n, kern::IoTrace) {
                      if (n > 0)
                          throughput.record(s->now(),
                                            static_cast<double>(n));
                      loop();
                  });
    };
    loop();

    // At t=5s, a second process opens the file via the kernel interface
    // (buffered), triggering revocation. Recorded on its own numbered
    // lane: a main-lane record would barrier on the reads in flight.
    kern::Process &intruder = s->newProcess(1000, 1000);
    Time revokeAt = 0;
    s->eq.schedule(5 * kSec, [&]() {
        rec.sysOpen(intruder, sharedDb, "/shared.db", fs::kOpenRead,
                    [&](int f) {
                        sim::panicIf(f < 0, "buffered open failed");
                        revokeAt = s->now();
                    },
                    /*lane=*/0);
    });

    s->run();
    rec.cpuRelease(reader, 1);
    bench::checkTenantSums(*s);
    obs.capture("fig12_revocation", *s);

    std::printf("%8s %14s %12s\n", "t(s)", "throughput", "interface");
    for (std::size_t b = 0; b < throughput.buckets(); b++) {
        const double mbps = throughput.bucketRate(b) / 1e6;
        const Time t = throughput.bucketStart(b);
        std::printf("%8.2f %11.0fMB/s %12s\n",
                    static_cast<double>(t) / 1e9, mbps,
                    (revokeAt != 0 && t >= revokeAt) ? "kernel"
                                                     : "bypassd");
    }
    std::printf("\nRevocation at t=%.2fs; faults seen by UserLib: %llu; "
                "module revocations: %llu\n",
                static_cast<double>(revokeAt) / 1e9,
                (unsigned long long)lib.iommuFaults(),
                (unsigned long long)s->module.revocations());
    std::printf("Paper shape: ~780MB/s on the BypassD interface dropping "
                "to ~500MB/s\non the kernel interface after revocation "
                "at t=5s.\n");

    if (!outPath.empty()) {
        bench::BenchJson json;
        bench::BenchJson::Scenario &sc = json.add("fig12_revocation");
        bench::BenchJson::field(sc, "events", s->eq.executed());
        bench::BenchJson::field(sc, "sim_ns", s->now());
        bench::BenchJson::field(sc, "device_ops", s->dev.totalOps());
        bench::BenchJson::field(sc, "revocations",
                                s->module.revocations());
        bench::BenchJson::field(sc, "userlib_iommu_faults",
                                lib.iommuFaults());
        bench::tenantFields(sc, *s,
                            static_cast<double>(s->now()) / 1e9);
        if (!json.write(outPath, "fig12"))
            return 1;
    }
    return obs.write() ? 0 : 1;
}
