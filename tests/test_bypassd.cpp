/**
 * @file
 * BypassD core tests: file-table construction and sharing, fmap()
 * eligibility and costs (Table 5 model), UserLib data path (reads,
 * overwrites, appends, partial writes), revocation (Section 3.6), the
 * sharing policy (Section 4.5.2), and the security invariants
 * (Section 5.3).
 */

#include <gtest/gtest.h>

#include "tests/helpers.hpp"

using namespace bpd;
using namespace bpd::test;
using fs::kOpenCreate;
using fs::kOpenDirect;
using fs::kOpenRead;
using fs::kOpenWrite;

namespace {

constexpr std::uint32_t kRw
    = kOpenRead | kOpenWrite | kOpenCreate | kOpenDirect;

struct BypassdFixture : ::testing::Test
{
    sys::System s{smallConfig()};
    kern::Process *p = nullptr;
    bypassd::UserLib *lib = nullptr;

    void
    SetUp() override
    {
        sim::setVerbose(false);
        p = &s.newProcess();
        lib = &s.userLib(*p);
    }

    /** Open with BypassD intent (does not count as a kernel open). */
    int
    openIntent(kern::Process &proc, const std::string &path,
               std::uint32_t flags = kRw)
    {
        return s.kernel.setupOpen(proc, path,
                                  flags | kern::kOpenBypassdIntent);
    }

    int
    mkFile(const std::string &path, std::uint64_t size,
           std::uint64_t seed = 7)
    {
        const int fd = s.kernel.setupCreateFile(*p, path, size, seed);
        EXPECT_GE(fd, 0);
        int rc = -1;
        s.kernel.sysClose(*p, fd, [&](int r) { rc = r; });
        s.run();
        EXPECT_EQ(rc, 0);
        return fd;
    }
};

} // namespace

// --- FileTableCache ---

TEST_F(BypassdFixture, FileTableBuildMatchesExtents)
{
    mkFile("/f", 10 << 20);
    InodeNum ino;
    ASSERT_EQ(s.ext4.resolve("/f", &ino), fs::FsStatus::Ok);
    fs::Inode *node = s.ext4.inode(ino);
    bypassd::FileTableCache cache(s.frames, s.dev.devId());
    auto stats = cache.buildFrom(node->extents);
    EXPECT_EQ(stats.ftesWritten, (10u << 20) / kBlockBytes);
    EXPECT_EQ(cache.mappedBlocks(), (10u << 20) / kBlockBytes);
    EXPECT_EQ(cache.leafFrames().size(), 5u); // 10 MiB / 2 MiB
    // Every FTE maps the same block the extent tree does.
    for (std::uint64_t b = 0; b < cache.mappedBlocks(); b++) {
        auto e = node->extents.lookup(b);
        ASSERT_TRUE(e.has_value());
        const mem::Pte fte
            = s.frames.table(cache.leafFrames()[b / kPte])[b % kPte];
        EXPECT_TRUE(mem::isFte(fte));
        EXPECT_EQ(mem::fteBlock(fte), e->pblk + (b - e->lblk));
        EXPECT_EQ(mem::fteDevId(fte), s.dev.devId());
    }
}

TEST_F(BypassdFixture, FileTableShrink)
{
    mkFile("/f", 10 << 20);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    bypassd::FileTableCache cache(s.frames, s.dev.devId());
    cache.buildFrom(s.ext4.inode(ino)->extents);
    cache.shrinkTo(300); // inside the first leaf + frees the rest
    EXPECT_EQ(cache.mappedBlocks(), 300u);
    EXPECT_EQ(cache.leafFrames().size(), 1u);
    EXPECT_EQ(s.frames.table(cache.leafFrames()[0])[299] != 0, true);
    EXPECT_EQ(s.frames.table(cache.leafFrames()[0])[300], 0u);
}

// --- fmap ---

TEST_F(BypassdFixture, ColdThenWarmFmap)
{
    mkFile("/f", 64 << 20);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    ASSERT_GE(openIntent(*p, "/f"), 0);

    bypassd::FmapResult cold = s.module.fmap(*p, ino, true);
    EXPECT_NE(cold.vba, 0u);
    EXPECT_TRUE(cold.cold);
    EXPECT_EQ(cold.mappedBytes, 64u << 20);
    EXPECT_EQ(cold.vba % mem::kPmdSpan, 0u);

    kern::Process &p2 = s.newProcess();
    ASSERT_GE(openIntent(p2, "/f"), 0);
    bypassd::FmapResult warm = s.module.fmap(p2, ino, false);
    EXPECT_NE(warm.vba, 0u);
    EXPECT_FALSE(warm.cold);
    // Table 5: warm fmap is much cheaper than cold for a 64 MiB file.
    EXPECT_LT(warm.cost, cold.cost / 5);
    EXPECT_EQ(s.module.coldFmaps(), 1u);
    EXPECT_EQ(s.module.warmFmaps(), 1u);
}

TEST_F(BypassdFixture, FmapCostScalesLikeTable5)
{
    // Cold cost ~ per-FTE; warm cost ~ per-2MiB pointer update.
    mkFile("/small", 1 << 20);
    mkFile("/big", 256 << 20);
    InodeNum si, bi;
    s.ext4.resolve("/small", &si);
    s.ext4.resolve("/big", &bi);
    ASSERT_GE(openIntent(*p, "/small"), 0);
    ASSERT_GE(openIntent(*p, "/big"), 0);
    auto smallCold = s.module.fmap(*p, si, true);
    auto bigCold = s.module.fmap(*p, bi, true);
    // 256x the data => cold cost ratio roughly follows (>= 30x).
    EXPECT_GT(bigCold.cost, smallCold.cost * 30);

    kern::Process &p2 = s.newProcess();
    ASSERT_GE(openIntent(p2, "/big"), 0);
    auto bigWarm = s.module.fmap(p2, bi, true);
    // 256 MiB warm: 128 pointer updates ~= a few us.
    EXPECT_LT(bigWarm.cost, 10 * kUs);
    EXPECT_GT(bigCold.cost, 100 * kUs);
}

TEST_F(BypassdFixture, FmapRejectedWhenKernelOpen)
{
    mkFile("/f", 1 << 20);
    ASSERT_GE(openIntent(*p, "/f"), 0);
    // Another process opens via the kernel interface.
    kern::Process &other = s.newProcess();
    const int kfd = kOpen(s, other, "/f", kOpenRead | kOpenDirect);
    ASSERT_GE(kfd, 0);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    bypassd::FmapResult res = s.module.fmap(*p, ino, true);
    EXPECT_EQ(res.vba, 0u); // Section 4.5.2
    EXPECT_EQ(s.module.rejectedFmaps(), 1u);
    // After the kernel user closes, direct access becomes possible.
    kClose(s, other, kfd);
    EXPECT_NE(s.module.fmap(*p, ino, true).vba, 0u);
}

TEST_F(BypassdFixture, FmapOnDirectoryRejected)
{
    s.ext4.mkdir("/d", 0755, p->creds(), nullptr);
    InodeNum ino;
    s.ext4.resolve("/d", &ino);
    EXPECT_EQ(s.module.fmap(*p, ino, false).vba, 0u);
}

TEST_F(BypassdFixture, FmapIdempotentPerProcess)
{
    mkFile("/f", 1 << 20);
    ASSERT_GE(openIntent(*p, "/f"), 0);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    auto a = s.module.fmap(*p, ino, true);
    auto b = s.module.fmap(*p, ino, true);
    EXPECT_EQ(a.vba, b.vba);
}

// --- UserLib data path ---

TEST_F(BypassdFixture, DirectReadMatchesData)
{
    mkFile("/f", 1 << 20, 99);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(lib->isDirect(fd));
    std::vector<std::uint8_t> buf(4096);
    auto r = ulPread(s, *lib, 0, fd, buf, 8192);
    EXPECT_EQ(r.n, 4096);
    std::vector<std::uint8_t> expect(4096);
    s.kernel.setupRead(*p, fd, expect, 8192);
    EXPECT_EQ(buf, expect);
    EXPECT_EQ(lib->directReads(), 1u);
    EXPECT_GT(r.trace.translateNs, 300u);
}

TEST_F(BypassdFixture, CloseDuringSubmitStageFailsReadWithoutCommand)
{
    mkFile("/f", 1 << 20, 99);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_GE(fd, 0);
    lib->prepareThread(0);
    const std::uint64_t xlates0 = s.iommu.vbaTranslations();
    const std::uint64_t readBytes0 = s.dev.readBytes();

    // The read waits out userlibSubmitNs before it builds its command;
    // the close lands in that window.
    std::vector<std::uint8_t> buf(4096);
    long long got = 1;
    lib->pread(0, fd, buf, 0, [&](long long n, kern::IoTrace) { got = n; });
    int rc = -1;
    lib->close(fd, [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(got, kern::errOf(fs::FsStatus::Inval));
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(s.iommu.vbaTranslations(), xlates0); // no VBA command
    EXPECT_EQ(s.dev.readBytes(), readBytes0);
    EXPECT_FALSE(lib->isDirect(fd));

    // A later open gets a fresh fd (fds are never reused) that reads.
    const int fd2 = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_GT(fd2, fd);
    EXPECT_TRUE(lib->isDirect(fd2));
    auto r = ulPread(s, *lib, 0, fd2, buf, 8192);
    EXPECT_EQ(r.n, 4096);
    std::vector<std::uint8_t> expect(4096);
    s.kernel.setupRead(*p, fd2, expect, 8192);
    EXPECT_EQ(buf, expect);
}

TEST_F(BypassdFixture, DirectReadLatencyBeatsKernel)
{
    mkFile("/f", 1 << 20, 99);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    lib->prepareThread(0);
    std::vector<std::uint8_t> buf(4096);
    ulPread(s, *lib, 0, fd, buf, 0); // warm caches
    Time t0 = s.now();
    ulPread(s, *lib, 0, fd, buf, 4096);
    const Time direct = s.now() - t0;
    // Paper: ~42% lower than the 7850 ns kernel path; expect ~4.5-5.5us.
    EXPECT_LT(direct, 5800u);
    EXPECT_GT(direct, 4020u);
}

TEST_F(BypassdFixture, DirectOverwriteVisibleEverywhere)
{
    mkFile("/f", 1 << 20, 99);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    auto data = pattern(4096, 1234);
    auto r = ulPwrite(s, *lib, 0, fd, data, 16384);
    EXPECT_EQ(r.n, 4096);
    EXPECT_EQ(lib->directWrites(), 1u);
    // Verify via the raw media (device is the point of coherence).
    std::vector<std::uint8_t> back(4096);
    s.kernel.setupRead(*p, fd, back, 16384);
    EXPECT_EQ(back, data);
}

TEST_F(BypassdFixture, WriteToReadOnlyOpenFails)
{
    mkFile("/f", 1 << 20);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    auto data = pattern(4096, 1);
    auto r = ulPwrite(s, *lib, 0, fd, data, 0);
    EXPECT_LT(r.n, 0);
}

TEST_F(BypassdFixture, AppendRoutesThroughKernel)
{
    mkFile("/f", 8192);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    auto data = pattern(4096, 5);
    auto r = ulPwrite(s, *lib, 0, fd, data, 8192); // beyond EOF
    EXPECT_EQ(r.n, 4096);
    EXPECT_EQ(lib->appendsRouted(), 1u);
    EXPECT_EQ(lib->fileSize(fd), 12288u);
    // The new block is directly accessible afterwards (FTEs extended).
    std::vector<std::uint8_t> back(4096);
    auto rr = ulPread(s, *lib, 0, fd, back, 8192);
    EXPECT_EQ(rr.n, 4096);
    EXPECT_EQ(back, data);
    EXPECT_TRUE(lib->isDirect(fd));
}

TEST_F(BypassdFixture, OptimizedAppendUsesFallocate)
{
    sys::SystemConfig cfg = smallConfig();
    cfg.userlib.optimizedAppend = true;
    sys::System s2(cfg);
    kern::Process &pp = s2.newProcess();
    bypassd::UserLib &ul = s2.userLib(pp);
    const int cfd = s2.kernel.setupCreateFile(pp, "/f", 4096, 1);
    int rc = -1;
    s2.kernel.sysClose(pp, cfd, [&](int r) { rc = r; });
    s2.run();
    const int fd = ulOpen(s2, ul, "/f", kRw);
    auto data = pattern(4096, 2);
    // First append triggers fallocate, subsequent ones go direct.
    for (int i = 0; i < 8; i++) {
        auto r = ulPwrite(s2, ul, 0, fd,
                          data, 4096 + static_cast<std::uint64_t>(i) * 4096);
        EXPECT_EQ(r.n, 4096);
    }
    EXPECT_GE(ul.directWrites(), 7u);
    std::vector<std::uint8_t> back(4096);
    s2.kernel.setupRead(pp, fd, back, 4096 + 3 * 4096);
    EXPECT_EQ(back, data);
}

TEST_F(BypassdFixture, SubSectorReadWorks)
{
    mkFile("/f", 1 << 20, 42);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    std::vector<std::uint8_t> buf(100);
    auto r = ulPread(s, *lib, 0, fd, buf, 777);
    EXPECT_EQ(r.n, 100);
    std::vector<std::uint8_t> expect(100);
    s.kernel.setupRead(*p, fd, expect, 777);
    EXPECT_EQ(buf, expect);
}

TEST_F(BypassdFixture, PartialWriteRmw)
{
    mkFile("/f", 8192, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    std::vector<std::uint8_t> before(8192);
    s.kernel.setupRead(*p, fd, before, 0);
    auto data = pattern(100, 9);
    auto r = ulPwrite(s, *lib, 0, fd, data, 700);
    EXPECT_EQ(r.n, 100);
    std::vector<std::uint8_t> after(8192);
    s.kernel.setupRead(*p, fd, after, 0);
    // Only bytes [700, 800) changed.
    for (std::size_t i = 0; i < 8192; i++) {
        if (i >= 700 && i < 800)
            ASSERT_EQ(after[i], data[i - 700]);
        else
            ASSERT_EQ(after[i], before[i]) << i;
    }
}

TEST_F(BypassdFixture, RevocationBetweenRmwReadAndWriteFallsBack)
{
    mkFile("/f", 8192, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    ASSERT_TRUE(lib->isDirect(fd));
    std::vector<std::uint8_t> before(8192);
    s.kernel.setupRead(*p, fd, before, 0);
    const auto data = pattern(100, 9);
    long long n = 0;
    lib->pwrite(0, fd, data, 700,
                [&](long long r, kern::IoTrace) { n = r; });
    // Step until the RMW read reaches the device, then revoke before
    // the write half is submitted: the write faults and must fall back
    // to the kernel like the read half does (Section 3.6).
    const std::uint64_t readBytes = s.dev.readBytes();
    while (s.dev.readBytes() == readBytes && s.eq.runOne()) {
    }
    ASSERT_GT(s.dev.readBytes(), readBytes);
    InodeNum ino;
    ASSERT_EQ(s.ext4.resolve("/f", &ino), fs::FsStatus::Ok);
    s.module.revoke(*s.ext4.inode(ino));
    s.run();
    EXPECT_EQ(n, 100);
    EXPECT_EQ(lib->iommuFaults(), 1u) << "the write half faults";
    // The fault's re-fmap gets no VBA: the fd is kernel-only while open.
    EXPECT_FALSE(lib->isDirect(fd));
    EXPECT_TRUE(s.module.isRevoked(ino));
    std::vector<std::uint8_t> after(8192);
    s.kernel.setupRead(*p, fd, after, 0);
    for (std::size_t i = 0; i < 8192; i++) {
        if (i >= 700 && i < 800)
            ASSERT_EQ(after[i], data[i - 700]);
        else
            ASSERT_EQ(after[i], before[i]) << i;
    }
}

TEST_F(BypassdFixture, OverlappingPartialWritesSerialize)
{
    mkFile("/f", 4096, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    auto d1 = std::vector<std::uint8_t>(100, 0xaa);
    auto d2 = std::vector<std::uint8_t>(100, 0xbb);
    int done = 0;
    // Same sector: the second must be delayed, not interleaved.
    lib->pwrite(0, fd, d1, 10, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 100);
        done++;
    });
    lib->pwrite(1, fd, d2, 50, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 100);
        done++;
    });
    s.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(lib->partialSerialized(), 1u);
    // Final state equals the serial order d1 then d2.
    std::vector<std::uint8_t> back(150);
    s.kernel.setupRead(*p, fd, back, 0);
    for (std::size_t i = 10; i < 50; i++)
        ASSERT_EQ(back[i], 0xaa);
    for (std::size_t i = 50; i < 150; i++)
        ASSERT_EQ(back[i], 0xbb);
}

TEST_F(BypassdFixture, NonOverlappingPartialWritesDoNotSerialize)
{
    mkFile("/f", 1 << 20, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    auto d = std::vector<std::uint8_t>(100, 0xcc);
    int done = 0;
    lib->pwrite(0, fd, d, 10, [&](long long, kern::IoTrace) { done++; });
    lib->pwrite(1, fd, d, 100000, [&](long long, kern::IoTrace) {
        done++;
    });
    s.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(lib->partialSerialized(), 0u);
}

TEST_F(BypassdFixture, FsyncFlushesAndUpdatesTimestamps)
{
    mkFile("/f", 8192, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    auto data = pattern(4096, 9);
    ulPwrite(s, *lib, 0, fd, data, 0);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    const Time mtimeBefore = s.ext4.inode(ino)->mtime;
    EXPECT_EQ(ulFsync(s, *lib, 0, fd), 0);
    EXPECT_GE(s.ext4.inode(ino)->mtime, mtimeBefore);
}

TEST_F(BypassdFixture, TruncateShrinksAndBlocksDirectAccessBeyond)
{
    mkFile("/f", 1 << 20, 42);
    const int fd = ulOpen(s, *lib, "/f", kRw);
    int rc = -1;
    lib->ftruncate(fd, 8192, [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(lib->fileSize(fd), 8192u);
    std::vector<std::uint8_t> buf(4096);
    auto r = ulPread(s, *lib, 0, fd, buf, 16384);
    EXPECT_EQ(r.n, 0); // beyond new EOF
}

// --- Revocation (Section 3.6) ---

TEST_F(BypassdFixture, KernelOpenRevokesDirectAccess)
{
    mkFile("/f", 1 << 20, 42);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_TRUE(lib->isDirect(fd));
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(ulPread(s, *lib, 0, fd, buf, 0).n, 4096);

    // Another process opens via the kernel interface -> revoke.
    kern::Process &other = s.newProcess();
    const int kfd = kOpen(s, other, "/f", kOpenRead);
    ASSERT_GE(kfd, 0);
    EXPECT_EQ(s.module.revocations(), 1u);

    // The next direct I/O faults, refmap returns 0, falls back, and the
    // data still arrives correctly via the kernel.
    auto r = ulPread(s, *lib, 0, fd, buf, 4096);
    EXPECT_EQ(r.n, 4096);
    EXPECT_GE(lib->iommuFaults(), 1u);
    EXPECT_FALSE(lib->isDirect(fd));
    std::vector<std::uint8_t> expect(4096);
    s.kernel.setupRead(*p, fd, expect, 4096);
    EXPECT_EQ(buf, expect);

    // Subsequent I/O stays on the kernel path without new faults.
    const std::uint64_t faults = lib->iommuFaults();
    EXPECT_EQ(ulPread(s, *lib, 0, fd, buf, 8192).n, 4096);
    EXPECT_EQ(lib->iommuFaults(), faults);
}

TEST_F(BypassdFixture, MultiProcessMetadataChangeRevokes)
{
    mkFile("/f", 1 << 20, 42);
    const int fdA = ulOpen(s, *lib, "/f", kRw);
    kern::Process &pB = s.newProcess();
    bypassd::UserLib &libB = s.userLib(pB);
    const int fdB = ulOpen(s, libB, "/f", kRw);
    ASSERT_TRUE(lib->isDirect(fdA));
    ASSERT_TRUE(libB.isDirect(fdB));

    // Reads and overwrites from both processes are fine (Section 4.5.2).
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(ulPread(s, *lib, 0, fdA, buf, 0).n, 4096);
    EXPECT_EQ(ulPread(s, libB, 0, fdB, buf, 0).n, 4096);

    // Metadata changes from two different processes -> revoke.
    auto data = pattern(4096, 5);
    std::uint64_t szA = lib->fileSize(fdA);
    EXPECT_EQ(ulPwrite(s, *lib, 0, fdA, data, szA).n, 4096); // append A
    std::uint64_t szB = s.ext4.inode(p->file(fdA)->ino)->size;
    EXPECT_EQ(ulPwrite(s, libB, 0, fdB, data, szB).n, 4096); // append B
    EXPECT_GE(s.module.revocations(), 1u);
    const InodeNum ino = p->file(fdA)->ino;
    EXPECT_TRUE(s.module.isRevoked(ino));

    // A's next read faults, and its re-fmap is refused: kernel-only.
    EXPECT_EQ(ulPread(s, *lib, 0, fdA, buf, 0).n, 4096);
    EXPECT_FALSE(lib->isDirect(fdA));
    EXPECT_TRUE(s.module.isRevoked(ino));
}

TEST_F(BypassdFixture, MetadataRevocationHoldsUntilTheLastClose)
{
    // A revoked capability comes back only through a new grant by the
    // kernel (an open after every opener closed), never because its
    // holder faulted and re-fmapped.
    mkFile("/f", 1 << 20, 42);
    const int fdA = ulOpen(s, *lib, "/f", kRw);
    kern::Process &pB = s.newProcess();
    bypassd::UserLib &libB = s.userLib(pB);
    const int fdB = ulOpen(s, libB, "/f", kRw);
    const InodeNum ino = p->file(fdA)->ino;
    auto data = pattern(4096, 5);
    EXPECT_EQ(ulPwrite(s, *lib, 0, fdA, data, lib->fileSize(fdA)).n, 4096);
    EXPECT_EQ(ulPwrite(s, libB, 0, fdB, data, s.ext4.inode(ino)->size).n,
              4096);
    ASSERT_TRUE(s.module.isRevoked(ino));

    // One read per process: each faults once and stays kernel-only.
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(ulPread(s, *lib, 0, fdA, buf, 0).n, 4096);
    EXPECT_EQ(ulPread(s, libB, 0, fdB, buf, 0).n, 4096);
    EXPECT_FALSE(lib->isDirect(fdA));
    EXPECT_FALSE(libB.isDirect(fdB));
    EXPECT_EQ(lib->iommuFaults(), 1u);
    EXPECT_EQ(libB.iommuFaults(), 1u);
    EXPECT_TRUE(s.module.isRevoked(ino));

    // One opener closing leaves the other kernel-only.
    EXPECT_EQ(ulClose(s, *lib, fdA), 0);
    EXPECT_TRUE(s.module.isRevoked(ino));
    EXPECT_EQ(ulPread(s, libB, 0, fdB, buf, 4096).n, 4096);
    EXPECT_FALSE(libB.isDirect(fdB));
    EXPECT_EQ(libB.iommuFaults(), 1u);

    // The last close lifts the revocation; a fresh open is direct.
    EXPECT_EQ(ulClose(s, libB, fdB), 0);
    EXPECT_FALSE(s.module.isRevoked(ino));
    const int fdC = ulOpen(s, *lib, "/f", kRw);
    EXPECT_TRUE(lib->isDirect(fdC));
}

TEST_F(BypassdFixture, UnlinkBusyWhileARevokedOpenerHoldsTheFile)
{
    // Revocation detaches A's file tables, but A still holds the file
    // open: unlink must answer Busy until A closes, or the inode would
    // be freed under A's fd.
    mkFile("/f", 1 << 20, 42);
    const int fdA = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_TRUE(lib->isDirect(fdA));
    const InodeNum ino = p->file(fdA)->ino;
    kern::Process &pB = s.newProcess();
    const int fdB = kOpen(s, pB, "/f", kOpenRead);
    ASSERT_GE(fdB, 0);
    EXPECT_EQ(kClose(s, pB, fdB), 0);
    ASSERT_TRUE(s.module.isRevoked(ino));

    int rc = -12345;
    s.kernel.sysUnlink(pB, "/f", [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, kern::errOf(fs::FsStatus::Busy));
    EXPECT_NE(s.ext4.inode(ino), nullptr);

    EXPECT_EQ(ulClose(s, *lib, fdA), 0);
    s.kernel.sysUnlink(pB, "/f", [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(s.ext4.inode(ino), nullptr);
}

TEST_F(BypassdFixture, RevokedStateClearsWhenAllClose)
{
    mkFile("/f", 1 << 20, 42);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    kern::Process &other = s.newProcess();
    const int kfd = kOpen(s, other, "/f", kOpenRead);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    EXPECT_TRUE(s.module.isRevoked(ino));
    ulClose(s, *lib, fd);
    kClose(s, other, kfd);
    // A fresh open gets direct access again.
    const int fd2 = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    EXPECT_TRUE(lib->isDirect(fd2));
}

// --- Security (Section 5.3) ---

TEST_F(BypassdFixture, ForgedVbaFaults)
{
    mkFile("/f", 1 << 20, 42);
    mkFile("/victim", 1 << 20, 43);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_TRUE(lib->isDirect(fd));

    // Forge a raw NVMe command with an unmapped VBA on the process's
    // own queue (malicious UserLib bypassing the library).
    auto uq = s.module.createUserQueues(*p, 32, 1 << 20);
    ASSERT_NE(uq, nullptr);
    ssd::Command cmd;
    cmd.op = ssd::Op::Read;
    cmd.addr = 0x7000000000ull; // never fmap()ed
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = uq->dmaIova;
    cmd.useIova = true;
    ssd::Status st = ssd::Status::Success;
    uq->qp->submit(cmd, [&](const ssd::Completion &c) {
        st = c.status;
    });
    s.run();
    EXPECT_EQ(st, ssd::Status::TranslationFault);

    // Forge an LBA-addressed command: VBA-mode queues reject raw LBAs
    // only via translation, so instead verify a raw (non-VBA) command is
    // refused on a user queue... the device accepts LBA only on
    // kernel/SPDK queues; user queues are created VBA-only.
    ssd::Command lba;
    lba.op = ssd::Op::Read;
    lba.addr = 0;
    lba.addrIsVba = false;
    lba.len = 4096;
    lba.dmaIova = uq->dmaIova;
    lba.useIova = true;
    // Depth-check: VBA-mode queue accepts the command; protection comes
    // from the DMA path? No: raw LBA on a user queue must be rejected.
    st = ssd::Status::Success;
    uq->qp->submit(lba, [&](const ssd::Completion &c) {
        st = c.status;
    });
    s.run();
    EXPECT_EQ(st, ssd::Status::InvalidCommand);
    s.module.destroyUserQueues(*p, *uq);
}

TEST_F(BypassdFixture, CannotReadAnotherUsersFile)
{
    // Alice's secret file.
    mkFile("/secret", 64 << 10, 77);
    InodeNum ino;
    s.ext4.resolve("/secret", &ino);
    s.ext4.inode(ino)->mode = 0600;

    // Bob cannot open it, so he never obtains a VBA for it.
    kern::Process &bob = s.newProcess(2000, 2000);
    bypassd::UserLib &bobLib = s.userLib(bob);
    int fd = -1;
    bobLib.open("/secret", kOpenRead | kOpenDirect, 0, [&](int f) {
        fd = f;
    });
    s.run();
    EXPECT_LT(fd, 0);
    // A forged fmap() syscall without a kernel-approved open descriptor
    // is rejected: no VBA, hence no path to the blocks (Section 5.3).
    bypassd::FmapResult res = s.module.fmap(bob, ino, false);
    EXPECT_EQ(res.vba, 0u);
}

TEST_F(BypassdFixture, ReadOnlyOpenCannotWriteViaForgedCommand)
{
    mkFile("/f", 64 << 10, 7);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    ASSERT_TRUE(lib->isDirect(fd));
    // Malicious process issues a raw write command to its own mapped VBA
    // that was attached read-only.
    auto uq = s.module.createUserQueues(*p, 32, 1 << 20);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    auto *cache = static_cast<bypassd::FileTableCache *>(
        s.ext4.inode(ino)->fileTable.get());
    ASSERT_NE(cache, nullptr);
    const Vaddr vba = cache->attachments.at(p->pid()).vba;
    ssd::Command wr;
    wr.op = ssd::Op::Write;
    wr.addr = vba;
    wr.addrIsVba = true;
    wr.len = 4096;
    wr.dmaIova = uq->dmaIova;
    wr.useIova = true;
    ssd::Status st = ssd::Status::Success;
    uq->qp->submit(wr, [&](const ssd::Completion &c) {
        st = c.status;
    });
    s.run();
    EXPECT_EQ(st, ssd::Status::PermissionFault);
    s.module.destroyUserQueues(*p, *uq);
}

TEST_F(BypassdFixture, ClosedFileVbaNoLongerTranslates)
{
    mkFile("/f", 64 << 10, 7);
    const int fd = ulOpen(s, *lib, "/f", kOpenRead | kOpenDirect);
    InodeNum ino;
    s.ext4.resolve("/f", &ino);
    auto *cache = static_cast<bypassd::FileTableCache *>(
        s.ext4.inode(ino)->fileTable.get());
    const Vaddr vba = cache->attachments.at(p->pid()).vba;
    ulClose(s, *lib, fd);
    // After close the FTEs are detached: translation faults.
    auto tr = s.iommu.translateVbaSync(p->pasid(), vba, 4096, false,
                                       s.dev.devId());
    EXPECT_FALSE(tr.ok);
}

TEST_F(BypassdFixture, ZeroPaddingNotPreviousData)
{
    // Write a file, truncate + sync (blocks freed), create a second file
    // reusing those blocks, and read it directly: must be zeros, never
    // the first file's bytes (Section 5.3 confidentiality).
    mkFile("/a", 1 << 20, 123);
    InodeNum inoA;
    s.ext4.resolve("/a", &inoA);
    fs::Inode *a = s.ext4.inode(inoA);
    ASSERT_EQ(s.ext4.truncate(*a, 0), fs::FsStatus::Ok);
    s.ext4.fsyncMeta(*a);

    const int fd = kOpen(s, *p, "/b",
                         kOpenRead | kOpenWrite | kOpenCreate
                             | kOpenDirect);
    int rc = -1;
    s.kernel.sysFallocate(*p, fd, 0, 1 << 20, [&](int r) { rc = r; });
    s.run();
    ASSERT_EQ(rc, 0);
    kClose(s, *p, fd);

    bypassd::UserLib &ul = s.userLib(*p);
    const int dfd = ulOpen(s, ul, "/b", kOpenRead | kOpenDirect);
    std::vector<std::uint8_t> buf(4096, 0xff);
    auto r = ulPread(s, ul, 0, dfd, buf, 0);
    EXPECT_EQ(r.n, 4096);
    for (auto b : buf)
        ASSERT_EQ(b, 0);
}

// --- Multi-process sharing (Fig. 10 semantics) ---

TEST_F(BypassdFixture, TwoProcessesShareDeviceDirectly)
{
    mkFile("/f1", 1 << 20, 1);
    mkFile("/f2", 1 << 20, 2);
    kern::Process &p2 = s.newProcess();
    bypassd::UserLib &lib2 = s.userLib(p2);
    const int fd1 = ulOpen(s, *lib, "/f1", kRw);
    const int fd2 = ulOpen(s, lib2, "/f2", kRw);
    ASSERT_TRUE(lib->isDirect(fd1));
    ASSERT_TRUE(lib2.isDirect(fd2));
    int done = 0;
    std::vector<std::uint8_t> b1(4096), b2(4096);
    lib->pread(0, fd1, b1, 0, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 4096);
        done++;
    });
    lib2.pread(0, fd2, b2, 0, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 4096);
        done++;
    });
    s.run();
    EXPECT_EQ(done, 2);
    std::vector<std::uint8_t> e1(4096), e2(4096);
    s.kernel.setupRead(*p, fd1, e1, 0);
    s.kernel.setupRead(p2, fd2, e2, 0);
    EXPECT_EQ(b1, e1);
    EXPECT_EQ(b2, e2);
}

TEST_F(BypassdFixture, SharedFileReadBySecondProcessSeesWrites)
{
    mkFile("/shared", 1 << 20, 1);
    kern::Process &p2 = s.newProcess();
    bypassd::UserLib &lib2 = s.userLib(p2);
    const int fdA = ulOpen(s, *lib, "/shared", kRw);
    const int fdB = ulOpen(s, lib2, "/shared", kOpenRead | kOpenDirect);
    ASSERT_TRUE(lib->isDirect(fdA));
    ASSERT_TRUE(lib2.isDirect(fdB));
    auto data = pattern(4096, 55);
    ulPwrite(s, *lib, 0, fdA, data, 32768);
    std::vector<std::uint8_t> back(4096);
    auto r = ulPread(s, lib2, 0, fdB, back, 32768);
    EXPECT_EQ(r.n, 4096);
    EXPECT_EQ(back, data); // device is the point of coherence
}
