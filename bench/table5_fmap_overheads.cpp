/**
 * @file
 * Table 5: fmap() overheads — default open, open + warm fmap (cached
 * file tables, pointer attach only), open + cold fmap (build file
 * tables from the extent tree) for file sizes 4 KiB .. 16 GiB.
 *
 * The raw module.fmap()/setupOpen() probes are not expressible in the
 * replay record format, so the recorded stream is marked unsupported —
 * trace_replay refuses to re-drive it rather than replaying a lie.
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
                         "usage: table5_fmap_overheads [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("Table 5", "fmap() overheads in BypassD");

    struct Case
    {
        const char *name;
        std::uint64_t bytes;
        double paperOpen, paperWarm, paperCold; // us
    };
    const Case cases[] = {
        {"4KB", 4ull << 10, 1.28, 1.96, 2.68},
        {"1MB", 1ull << 20, 1.38, 1.96, 3.67},
        {"64MB", 64ull << 20, 1.74, 2.76, 85.51},
        {"256MB", 256ull << 20, 1.59, 5.79, 333.93},
        {"1GB", 1ull << 30, 1.80, 17.94, 1330.75},
        {"16GB", 16ull << 30, 2.10, 259.94, 21197.88},
    };

    std::printf("%-8s %14s %18s %18s   (paper: open/warm/cold us)\n",
                "size", "open(us)", "open+warm(us)", "open+cold(us)");

    for (const Case &c : cases) {
        const std::string label = std::string("table5_fmap_") + c.name;
        auto s = bench::makeSystem(64ull << 30);
        obs.attach(*s);
        s->enableTenantAccounting();
        bench::Recorder rec(*s);
        kern::Process &owner = s->newProcess();
        const std::string path = std::string("/t5_") + c.name;
        const std::uint32_t fileId = rec.file(path);
        const int cfd = rec.createFile(owner, fileId, path, c.bytes, 0);
        sim::panicIf(cfd < 0, "file setup failed");
        int rc = -1;
        rec.sysClose(owner, cfd, fileId, [&](int r) { rc = r; });
        s->run();

        // Default open (timed syscall, no fmap).
        Time t0 = s->now();
        int fd = -1;
        rec.sysOpen(owner, fileId, path,
                    fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect
                        | kern::kOpenBypassdIntent,
                    [&](int f) { fd = f; });
        s->run();
        const Time openNs = s->now() - t0;
        sim::panicIf(fd < 0, "open failed");

        // Cold fmap: file tables do not exist yet.
        rec.unsupported("bypassd.fmap");
        InodeNum ino;
        s->ext4.resolve(path, &ino);
        bypassd::FmapResult cold = s->module.fmap(owner, ino, true);
        sim::panicIf(cold.vba == 0 || !cold.cold, "expected cold fmap");

        // Warm fmap: a second process attaches the cached tables.
        kern::Process &p2 = s->newProcess();
        const int fd2 = s->kernel.setupOpen(
            p2, path,
            fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect
                | kern::kOpenBypassdIntent);
        sim::panicIf(fd2 < 0, "second open failed");
        bypassd::FmapResult warm = s->module.fmap(p2, ino, true);
        sim::panicIf(warm.vba == 0 || warm.cold, "expected warm fmap");

        const double openUs = static_cast<double>(openNs) / 1e3;
        const double warmUs
            = openUs + static_cast<double>(warm.cost) / 1e3;
        const double coldUs
            = openUs + static_cast<double>(cold.cost) / 1e3;
        std::printf("%-8s %14.2f %18.2f %18.2f   (%.2f / %.2f / %.2f)\n",
                    c.name, openUs, warmUs, coldUs, c.paperOpen,
                    c.paperWarm, c.paperCold);
        bench::checkTenantSums(*s);
        obs.capture(label, *s);
    }
    std::printf("\nWarm fmap attaches shared leaf tables at PMD (2MiB) "
                "granularity;\ncold fmap additionally writes one FTE per "
                "4KiB block (Section 4.1).\n");
    return obs.write() ? 0 : 1;
}
