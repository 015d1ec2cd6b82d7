/**
 * @file
 * Table 1: latency breakdown of a 4 KiB read() on the Optane-class SSD
 * through the standard kernel path, and the BypassD equivalent. Every
 * op is sequential (drained between steps), so the recorded replay
 * stream lives entirely on the main lane.
 */

#include "bench/common.hpp"
#include "bench/recording.hpp"

using namespace bpd;

int
main(int argc, char **argv)
{
    bench::ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: table1_latency_breakdown [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Table 1",
                  "latency breakdown of 4KB read() on Optane SSD");

    constexpr std::uint16_t kMain = obs::ReplayRec::kMainLane;
    auto s = bench::makeSystem();
    obs.attach(*s);
    s->enableTenantAccounting();
    bench::Recorder rec(*s);
    kern::Process &p = s->newProcess();
    const std::uint32_t t1 = rec.file("/t1.dat");
    const int fd = rec.createFile(p, t1, "/t1.dat", 16 << 20, 7);

    // Warm, then measure one sync read.
    std::vector<std::uint8_t> buf(4096);
    kern::IoTrace trace;
    long long got = 0;
    rec.sysPread(p, fd, buf, 0, kMain, t1,
                 [](long long, kern::IoTrace) {});
    s->run();
    const Time t0 = s->now();
    rec.sysPread(p, fd, buf, 4096, kMain, t1,
                 [&](long long n, kern::IoTrace tr) {
                     got = n;
                     trace = tr;
                 });
    s->run();
    const Time total = s->now() - t0;
    sim::panicIf(got != 4096, "read failed");

    const kern::CostModel &c = s->kernel.costs();
    const double totalD = static_cast<double>(total);
    auto pct = [&](double ns) {
        return sim::strf("%4.0f%%", 100.0 * ns / totalD);
    };

    std::printf("%-28s %10s %8s   %s\n", "layer", "time(ns)", "share",
                "paper(ns)");
    std::printf("%-28s %10llu %8s   %s\n", "Kernel->user mode switch",
                (unsigned long long)c.userToKernelNs,
                pct(static_cast<double>(c.userToKernelNs)).c_str(),
                "160");
    std::printf("%-28s %10llu %8s   %s\n", "VFS + ext4",
                (unsigned long long)c.vfsExt4Ns,
                pct(static_cast<double>(c.vfsExt4Ns)).c_str(), "2810");
    std::printf("%-28s %10llu %8s   %s\n", "Block I/O layer",
                (unsigned long long)c.blockLayerNs,
                pct(static_cast<double>(c.blockLayerNs)).c_str(), "540");
    std::printf("%-28s %10llu %8s   %s\n", "NVMe driver",
                (unsigned long long)c.nvmeDriverNs,
                pct(static_cast<double>(c.nvmeDriverNs)).c_str(), "220");
    std::printf("%-28s %10llu %8s   %s\n", "Device time",
                (unsigned long long)trace.deviceNs,
                pct(static_cast<double>(trace.deviceNs)).c_str(),
                "4020");
    std::printf("%-28s %10llu %8s   %s\n", "User->kernel mode switch",
                (unsigned long long)c.kernelToUserNs,
                pct(static_cast<double>(c.kernelToUserNs)).c_str(),
                "100");
    std::printf("%-28s %10llu %8s   %s\n", "Total (measured)",
                (unsigned long long)total, "100%", "7850");

    // And the same access through BypassD, for contrast.
    bypassd::UserLib &lib = s->userLib(p);
    int rc = -1;
    rec.sysClose(p, fd, t1, [&](int r) { rc = r; });
    s->run();
    int dfd = -1;
    rec.open(lib, p, t1, "/t1.dat", fs::kOpenRead | fs::kOpenDirect,
             [&](int f) { dfd = f; });
    s->run();
    rec.pread(lib, p, 0, dfd, buf, 0, kMain, t1,
              [](long long, kern::IoTrace) {});
    s->run();
    const Time b0 = s->now();
    kern::IoTrace btr;
    rec.pread(lib, p, 0, dfd, buf, 4096, kMain, t1,
              [&](long long, kern::IoTrace tr) { btr = tr; });
    s->run();
    const Time btotal = s->now() - b0;
    std::printf("\nBypassD same access: total=%lluns "
                "(user=%llu translate=%llu device=%llu) -> %.0f%% of "
                "kernel path\n",
                (unsigned long long)btotal,
                (unsigned long long)btr.userNs,
                (unsigned long long)btr.translateNs,
                (unsigned long long)btr.deviceNs,
                100.0 * static_cast<double>(btotal)
                    / static_cast<double>(total));
    bench::checkTenantSums(*s);
    obs.capture("table1_breakdown", *s);
    return obs.write() ? 0 : 1;
}
