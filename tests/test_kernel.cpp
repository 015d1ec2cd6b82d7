/**
 * @file
 * Kernel syscall-layer tests: O_DIRECT sync path timing (Table 1),
 * buffered path through the page cache, appends, fsync, dirty-page
 * writeback, per-inode write serialization, libaio and io_uring
 * engines, CPU model.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "kern/aio.hpp"
#include "kern/io_uring.hpp"
#include "qos/qos.hpp"
#include "tests/helpers.hpp"

using namespace bpd;
using namespace bpd::test;
using fs::kOpenCreate;
using fs::kOpenDirect;
using fs::kOpenRead;
using fs::kOpenWrite;

namespace {

struct KernFixture : ::testing::Test
{
    sys::System s{smallConfig()};
    kern::Process *p = nullptr;

    void
    SetUp() override
    {
        sim::setVerbose(false);
        p = &s.newProcess();
    }
};

} // namespace

TEST_F(KernFixture, OpenMissingFails)
{
    const int fd = kOpen(s, *p, "/nope", kOpenRead);
    EXPECT_LT(fd, 0);
}

TEST_F(KernFixture, CreateWriteReadBack)
{
    const int fd = kOpen(s, *p, "/f",
                         kOpenRead | kOpenWrite | kOpenCreate
                             | kOpenDirect);
    ASSERT_GE(fd, 0);
    auto data = pattern(8192, 1);
    EXPECT_EQ(kPwrite(s, *p, fd, data, 0).n, 8192);
    std::vector<std::uint8_t> back(8192, 0);
    EXPECT_EQ(kPread(s, *p, fd, back, 0).n, 8192);
    EXPECT_EQ(back, data);
    EXPECT_EQ(kClose(s, *p, fd), 0);
}

TEST_F(KernFixture, SyncReadLatencyMatchesTable1)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> buf(4096);
    // Warm one read, then measure.
    kPread(s, *p, fd, buf, 0);
    const Time t0 = s.now();
    auto r = kPread(s, *p, fd, buf, 4096);
    const Time lat = s.now() - t0;
    EXPECT_EQ(r.n, 4096);
    // Table 1 total: 7850 ns for a 4 KiB sync read.
    EXPECT_NEAR(static_cast<double>(lat), 7850.0, 500.0);
    // Breakdown: device ~4020, kernel ~3830.
    EXPECT_NEAR(static_cast<double>(r.trace.deviceNs), 4020.0, 300.0);
    EXPECT_NEAR(static_cast<double>(r.trace.kernelNs), 3830.0, 400.0);
}

TEST_F(KernFixture, ReadBeyondEofReturnsZero)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 4096, 7);
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(kPread(s, *p, fd, buf, 8192).n, 0);
}

TEST_F(KernFixture, ReadClipsAtEof)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 6000, 7);
    std::vector<std::uint8_t> buf(4096);
    EXPECT_EQ(kPread(s, *p, fd, buf, 4096).n, 6000 - 4096);
}

TEST_F(KernFixture, AppendExtendsAndZeroes)
{
    const int fd = kOpen(s, *p, "/f",
                         kOpenRead | kOpenWrite | kOpenCreate
                             | kOpenDirect);
    auto data = pattern(1000, 3);
    // Write at offset 10000 in an empty file: blocks 0..2 allocated, the
    // gap must read back as zeros.
    EXPECT_EQ(kPwrite(s, *p, fd, data, 10000).n, 1000);
    const fs::Inode *ino
        = s.ext4.inode(p->file(fd)->ino);
    EXPECT_EQ(ino->size, 11000u);
    std::vector<std::uint8_t> back(11000);
    EXPECT_EQ(kPread(s, *p, fd, back, 0).n, 11000);
    for (std::size_t i = 0; i < 10000; i++)
        ASSERT_EQ(back[i], 0) << "at " << i;
    EXPECT_TRUE(std::equal(data.begin(), data.end(), back.begin() + 10000));
}

TEST_F(KernFixture, PermissionDeniedOnForeignFile)
{
    const int fd = s.kernel.setupCreateFile(*p, "/secret", 4096, 9);
    ASSERT_GE(fd, 0);
    // Restrict to owner.
    s.ext4.inode(p->file(fd)->ino)->mode = 0600;
    kern::Process &other = s.newProcess(2000, 2000);
    EXPECT_LT(kOpen(s, other, "/secret", kOpenRead), 0);
}

TEST_F(KernFixture, BufferedReadHitsCacheSecondTime)
{
    const int fd0 = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    (void)fd0;
    const int fd = kOpen(s, *p, "/f", kOpenRead); // buffered
    std::vector<std::uint8_t> buf(4096);
    const Time t0 = s.now();
    kPread(s, *p, fd, buf, 0);
    const Time missLat = s.now() - t0;
    const Time t1 = s.now();
    kPread(s, *p, fd, buf, 0);
    const Time hitLat = s.now() - t1;
    EXPECT_GT(missLat, 4000u);  // device involved
    EXPECT_LT(hitLat, 3000u);   // cache hit: no device
    // Functional equality with the direct path.
    std::vector<std::uint8_t> direct(4096);
    s.kernel.setupRead(*p, fd, direct, 0);
    EXPECT_EQ(buf, direct);
}

TEST_F(KernFixture, BufferedWriteVisibleAfterFsync)
{
    const int fd = kOpen(s, *p, "/f",
                         kOpenRead | kOpenWrite | kOpenCreate);
    auto data = pattern(4096, 11);
    EXPECT_EQ(kPwrite(s, *p, fd, data, 0).n, 4096);
    int rc = -1;
    s.kernel.sysFsync(*p, fd, [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    // Media now holds the data (read through a direct fd).
    kern::Process &p2 = s.newProcess();
    const int dfd = kOpen(s, p2, "/f", kOpenRead | kOpenDirect);
    std::vector<std::uint8_t> back(4096);
    EXPECT_EQ(kPread(s, p2, dfd, back, 0).n, 4096);
    EXPECT_EQ(back, data);
}

TEST_F(KernFixture, ConcurrentWritesToSameInodeSerialize)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    auto data = pattern(4096, 1);
    // Launch 8 concurrent writes; the per-inode lock serializes the
    // VFS/ext4 section, so total time >> a single write.
    Time lastDone = 0;
    int done = 0;
    for (int i = 0; i < 8; i++) {
        s.kernel.sysPwrite(*p, fd, data,
                           static_cast<std::uint64_t>(i) * 4096,
                           [&](long long n, kern::IoTrace) {
                               EXPECT_EQ(n, 4096);
                               done++;
                               lastDone = s.now();
                           });
    }
    s.run();
    EXPECT_EQ(done, 8);
    // 8 serialized vfs sections of ~2.8 us are a lower bound.
    EXPECT_GT(lastDone, 8 * 2800u);
}

TEST_F(KernFixture, ConcurrentReadsDoNotSerialize)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    std::vector<std::vector<std::uint8_t>> bufs(
        8, std::vector<std::uint8_t>(4096));
    int done = 0;
    Time lastDone = 0;
    for (int i = 0; i < 8; i++) {
        s.kernel.sysPread(*p, fd, bufs[static_cast<std::size_t>(i)],
                          static_cast<std::uint64_t>(i) * 4096,
                          [&](long long n, kern::IoTrace) {
                              EXPECT_EQ(n, 4096);
                              done++;
                              lastDone = s.now();
                          });
    }
    s.run();
    EXPECT_EQ(done, 8);
    // Reads overlap in the device: far less than 8 serial latencies.
    EXPECT_LT(lastDone, 8 * 7850u);
}

TEST_F(KernFixture, StatReportsSize)
{
    s.kernel.setupCreateFile(*p, "/f", 123456, 7);
    kern::Stat st{};
    int rc = -1;
    s.kernel.sysStat(*p, "/f", &st, [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(st.size, 123456u);
}

TEST_F(KernFixture, UnlinkRemoves)
{
    const int cfd = s.kernel.setupCreateFile(*p, "/f", 4096, 7);
    kClose(s, *p, cfd);
    int rc = -1;
    s.kernel.sysUnlink(*p, "/f", [&](int r) { rc = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_LT(kOpen(s, *p, "/f", kOpenRead), 0);
}

TEST_F(KernFixture, AioSlowerThanSyncAtQd1)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    std::vector<std::uint8_t> buf(4096);
    kPread(s, *p, fd, buf, 0); // warm
    Time t0 = s.now();
    kPread(s, *p, fd, buf, 0);
    const Time syncLat = s.now() - t0;
    t0 = s.now();
    IoResult r;
    s.aio.pread(*p, fd, buf, 0, [&](long long n, kern::IoTrace tr) {
        r.n = n;
        r.trace = tr;
    });
    s.run();
    const Time aioLat = s.now() - t0;
    EXPECT_EQ(r.n, 4096);
    EXPECT_GT(aioLat, syncLat);
    EXPECT_LT(aioLat, syncLat + 1500);
}

TEST_F(KernFixture, AioBatchOverlapsDevice)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    std::vector<std::vector<std::uint8_t>> bufs(
        16, std::vector<std::uint8_t>(4096));
    std::vector<kern::Aio::Op> ops;
    for (int i = 0; i < 16; i++) {
        ops.push_back(kern::Aio::Op{
            fd, false,
            std::span<std::uint8_t>(bufs[static_cast<std::size_t>(i)]),
            static_cast<std::uint64_t>(i) * 4096});
    }
    int done = 0;
    const Time t0 = s.now();
    s.aio.submitBatch(*p, ops, [&](std::size_t, long long n,
                                   kern::IoTrace) {
        EXPECT_EQ(n, 4096);
        done++;
    });
    s.run();
    EXPECT_EQ(done, 16);
    // 16 overlapped reads complete much faster than 16 serial ones.
    EXPECT_LT(s.now() - t0, 16 * 7850u / 2);
}

TEST_F(KernFixture, IoUringFasterThanSyncSlowerThanDevice)
{
    const int fd = s.kernel.setupCreateFile(*p, "/f", 1 << 20, 7);
    kern::IoUring ring(s.kernel, *p);
    std::vector<std::uint8_t> buf(4096);
    IoResult r;
    ring.pread(fd, buf, 0, [&](long long n, kern::IoTrace tr) {
        r.n = n;
        r.trace = tr;
    });
    s.run();
    const Time t0 = s.now();
    ring.pread(fd, buf, 4096, [&](long long n, kern::IoTrace tr) {
        r.n = n;
        r.trace = tr;
    });
    s.run();
    const Time uringLat = s.now() - t0;
    EXPECT_EQ(r.n, 4096);
    EXPECT_LT(uringLat, 7850u);       // better than sync
    EXPECT_GT(uringLat, 4020u + 500); // kernel stack still there
}

TEST_F(KernFixture, IoUringPinsACore)
{
    EXPECT_EQ(s.kernel.cpu().occupants(), 0u);
    {
        kern::IoUring ring(s.kernel, *p);
        EXPECT_EQ(s.kernel.cpu().occupants(), 1u);
    }
    EXPECT_EQ(s.kernel.cpu().occupants(), 0u);
}

TEST(Writeback, DirtyVictimLandsInItsOwnFile)
{
    // A 2-page cache: buffered writes to /b evict a dirty page of /a,
    // which must be written through /a's mapping, not /b's.
    sim::setVerbose(false);
    sys::SystemConfig cfg = smallConfig();
    cfg.kernel.pageCacheBytes = 2 * kBlockBytes;
    sys::System s(cfg);
    kern::Process &p = s.newProcess();
    constexpr std::uint64_t kPage5 = 5 * kBlockBytes;
    // setupCreateFile leaves O_DIRECT fds open: they read the media.
    const int da = s.kernel.setupCreateFile(p, "/a", 8 * kBlockBytes, 1);
    const int db = s.kernel.setupCreateFile(p, "/b", 8 * kBlockBytes, 2);
    std::vector<std::uint8_t> aBefore(kBlockBytes), bBefore(kBlockBytes);
    ASSERT_EQ(kPread(s, p, da, aBefore, kPage5).n, 4096);
    ASSERT_EQ(kPread(s, p, db, bBefore, kPage5).n, 4096);
    const std::vector<std::uint8_t> aa(kBlockBytes, 0xaa);
    ASSERT_NE(aBefore, aa);

    const int fa = kOpen(s, p, "/a", kOpenRead | kOpenWrite);
    const int fb = kOpen(s, p, "/b", kOpenRead | kOpenWrite);
    ASSERT_EQ(kPwrite(s, p, fa, aa, kPage5).n, 4096);
    const std::vector<std::uint8_t> bb(kBlockBytes, 0xbb);
    ASSERT_EQ(kPwrite(s, p, fb, bb, 0).n, 4096);
    ASSERT_EQ(kPwrite(s, p, fb, bb, kBlockBytes).n, 4096); // evicts /a's

    std::vector<std::uint8_t> back(kBlockBytes);
    ASSERT_EQ(kPread(s, p, da, back, kPage5).n, 4096);
    EXPECT_EQ(back, aa);
    ASSERT_EQ(kPread(s, p, db, back, kPage5).n, 4096);
    EXPECT_EQ(back, bBefore);
}

TEST(Writeback, FsyncWritesKeepTheirBytesWhileParked)
{
    // fsync's page writes wait behind their tenant's QoS cap while
    // another process's buffered writes evict, and so free, the cached
    // pages they were taken from: each write must own its bytes.
    sim::setVerbose(false);
    sys::SystemConfig cfg = smallConfig();
    constexpr std::size_t kPages = 256;
    cfg.kernel.pageCacheBytes = kPages * kBlockBytes;
    sys::System s(cfg);
    s.enableTenantAccounting(); // pages carry their writer's tenant
    qos::Registry &qos = s.enableQos();
    kern::Process &a = s.newProcess();
    kern::Process &b = s.newProcess();
    qos::TenantLimit cap;
    cap.iopsLimit = 100000;
    cap.burstOps = 1;
    qos.setLimit(a.pasid(), cap);

    const std::uint32_t rwc = kOpenRead | kOpenWrite | kOpenCreate;
    const int fa = kOpen(s, a, "/a", rwc);
    const int fb = kOpen(s, b, "/b", rwc);
    const std::vector<std::uint8_t> aData(kPages * kBlockBytes, 0xaa);
    const std::vector<std::uint8_t> bData(kPages * kBlockBytes, 0xbb);
    const auto n = static_cast<long long>(aData.size());
    ASSERT_EQ(kPwrite(s, a, fa, aData, 0).n, n);

    int rc = -12345;
    long long bn = -1;
    s.kernel.sysFsync(a, fa, [&](int r) { rc = r; });
    s.kernel.sysPwrite(b, fb, bData, 0,
                       [&](long long r, kern::IoTrace) { bn = r; });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(bn, n);

    const int da = kOpen(s, a, "/a", kOpenRead | kOpenDirect);
    std::vector<std::uint8_t> back(aData.size());
    ASSERT_EQ(kPread(s, a, da, back, 0).n, n);
    std::size_t wrong = 0;
    for (std::size_t pg = 0; pg < kPages; pg++) {
        wrong += !std::all_of(back.begin() + pg * kBlockBytes,
                              back.begin() + (pg + 1) * kBlockBytes,
                              [](std::uint8_t x) { return x == 0xaa; });
    }
    EXPECT_EQ(wrong, 0u);
}

TEST(Writeback, AParkedPageWriteNeverLandsOverANewerOne)
{
    // A's fsync writes of /a park behind A's QoS cap. B then reads the
    // pages (so their writeback is billed to B, who has no cap),
    // rewrites them and fsyncs: B's writes must wait for A's older
    // ones, or those land last and lose B's acknowledged bytes.
    sim::setVerbose(false);
    sys::System s(smallConfig());
    s.enableTenantAccounting(); // a cached page carries its last tenant
    qos::Registry &qos = s.enableQos();
    kern::Process &a = s.newProcess();
    kern::Process &b = s.newProcess();
    qos::TenantLimit cap;
    cap.iopsLimit = 1000; // one write per ms
    cap.burstOps = 1;
    qos.setLimit(a.pasid(), cap);

    constexpr std::size_t kPages = 4;
    const int fa = kOpen(s, a, "/a", kOpenRead | kOpenWrite | kOpenCreate);
    const int fb = kOpen(s, b, "/a", kOpenRead | kOpenWrite);
    const std::vector<std::uint8_t> older(kPages * kBlockBytes, 0x11);
    const std::vector<std::uint8_t> newer(kPages * kBlockBytes, 0x22);
    const auto n = static_cast<long long>(older.size());
    ASSERT_EQ(kPwrite(s, a, fa, older, 0).n, n);

    int rcA = -12345;
    int rcB = -12345;
    s.kernel.sysFsync(a, fa, [&](int r) { rcA = r; });
    s.runUntil(s.now() + 100 * kUs); // one write landed, three parked
    std::vector<std::uint8_t> seen(older.size());
    s.kernel.sysPread(b, fb, seen, 0, [&](long long, kern::IoTrace) {
        s.kernel.sysPwrite(b, fb, newer, 0, [&](long long, kern::IoTrace) {
            s.kernel.sysFsync(b, fb, [&](int r) { rcB = r; });
        });
    });
    s.run();
    EXPECT_EQ(rcA, 0);
    EXPECT_EQ(rcB, 0);

    const int direct = kOpen(s, b, "/a", kOpenRead | kOpenDirect);
    std::vector<std::uint8_t> back(newer.size());
    ASSERT_EQ(kPread(s, b, direct, back, 0).n, n);
    EXPECT_EQ(back, newer);
}

TEST(Writeback, FsyncWaitsForTheFilesPageWritesInFlight)
{
    // A's buffered write of /a evicts a dirty page whose write parks
    // behind A's QoS cap. B's fsync of /a must not return before that
    // write lands, though none of B's own page writes waits for it.
    sim::setVerbose(false);
    sys::SystemConfig cfg = smallConfig();
    cfg.kernel.pageCacheBytes = 2 * kBlockBytes;
    sys::System s(cfg);
    s.enableTenantAccounting(); // a cached page carries its last tenant
    qos::Registry &qos = s.enableQos();
    kern::Process &a = s.newProcess();
    kern::Process &b = s.newProcess();
    qos::TenantLimit cap;
    cap.iopsLimit = 1000; // one write per ms
    cap.burstOps = 1;
    qos.setLimit(a.pasid(), cap);
    // setupCreateFile leaves an O_DIRECT fd open: it reads the media.
    const int media = s.kernel.setupCreateFile(a, "/a", 8 * kBlockBytes, 1);
    const int fa = kOpen(s, a, "/a", kOpenRead | kOpenWrite);
    const int fb = kOpen(s, b, "/a", kOpenRead | kOpenWrite);

    // Pages 0-3 through the 2-page cache: page 0's eviction write takes
    // A's one token, page 1's parks for a millisecond.
    const std::vector<std::uint8_t> aa(4 * kBlockBytes, 0xaa);
    s.kernel.sysPwrite(a, fa, aa, 0, [](long long, kern::IoTrace) {});
    s.runUntil(s.now() + 50 * kUs);
    // B's read of pages 2-3 bills their writes to B, so they do not
    // queue behind page 1's in A's FIFO.
    std::vector<std::uint8_t> seen(2 * kBlockBytes);
    std::vector<std::uint8_t> page1(kBlockBytes);
    int rc = -12345;
    s.kernel.sysPread(b, fb, seen, 2 * kBlockBytes,
                      [&](long long, kern::IoTrace) {
                          s.kernel.sysFsync(b, fb, [&](int r) {
                              rc = r;
                              s.kernel.setupRead(a, media, page1,
                                                 kBlockBytes);
                          });
                      });
    s.run();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(page1, std::vector<std::uint8_t>(kBlockBytes, 0xaa));
}

TEST(Writeback, FsyncReportsAFailedEvictionWriteOnce)
{
    // Through a 2-page cache, page 0's eviction write is media op 3 and
    // fails. It lands before fsync runs, so fsync has no write of it to
    // join: the error must wait on the inode, as Linux keeps writeback
    // errors on the mapping, and be reported once.
    sim::setVerbose(false);
    sys::SystemConfig cfg = smallConfig();
    cfg.kernel.pageCacheBytes = 2 * kBlockBytes;
    cfg.ssd.mediaErrorEvery = 3;
    sys::System s(cfg);
    kern::Process &p = s.newProcess();
    // setupCreateFile leaves an O_DIRECT fd open: it reads the media.
    const int media = s.kernel.setupCreateFile(p, "/a", 4 * kBlockBytes, 1);
    std::vector<std::uint8_t> page(kBlockBytes);
    ASSERT_EQ(kPread(s, p, media, page, 0).n, 4096);           // op 1
    ASSERT_EQ(kPread(s, p, media, page, kBlockBytes).n, 4096); // op 2

    const int fd = kOpen(s, p, "/a", kOpenRead | kOpenWrite);
    const std::vector<std::uint8_t> aa(3 * kBlockBytes, 0xaa);
    ASSERT_EQ(kPwrite(s, p, fd, aa, 0).n, 3 * 4096);
    ASSERT_EQ(s.dev.mediaErrors(), 1u);

    const auto fsync = [&]() {
        int rc = -12345;
        s.kernel.sysFsync(p, fd, [&](int r) { rc = r; });
        s.run();
        return rc;
    };
    EXPECT_EQ(fsync(), kern::devErr(ssd::Status::MediaError));
    EXPECT_EQ(s.dev.mediaErrors(), 1u); // pages 1-2 were written
    EXPECT_EQ(fsync(), 0);
}

TEST(CpuModel, DilationAndPenalty)
{
    kern::CpuModel cpu(24);
    cpu.acquire(24);
    EXPECT_EQ(cpu.dilation(), 1.0);
    EXPECT_EQ(cpu.reschedulePenalty(), 0u);
    cpu.acquire(12);
    EXPECT_NEAR(cpu.dilation(), 1.5, 1e-9);
    EXPECT_EQ(cpu.surplus(), 12u);
    EXPECT_GT(cpu.reschedulePenalty(), 0u);
    EXPECT_EQ(cpu.scaled(1000), 1500u);
    cpu.release(36);
    EXPECT_EQ(cpu.occupants(), 0u);
}
