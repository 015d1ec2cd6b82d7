/**
 * @file
 * Baseline engines (SPDK exclusivity, XRP chained lookups and their
 * tenant billing and QoS gating), simulation determinism, and full
 * end-to-end integration scenarios combining multiple processes,
 * engines, revocation and crash recovery.
 */

#include <gtest/gtest.h>

#include "qos/qos.hpp"
#include "tests/helpers.hpp"
#include "workloads/fio.hpp"
#include "xrp/xrp.hpp"

using namespace bpd;
using namespace bpd::test;
using fs::kOpenCreate;
using fs::kOpenDirect;
using fs::kOpenRead;
using fs::kOpenWrite;

// --- SPDK ---

TEST(Spdk, ExclusiveClaimBlocksKernelAndOthers)
{
    sim::setVerbose(false);
    sys::System s(smallConfig());
    kern::Process &p = s.newProcess();
    const int fd = s.kernel.setupCreateFile(p, "/f", 1 << 20, 7);

    spdk::SpdkDriver drv(s.eq, s.dev, s.kernel.cpu(), p.pasid());
    ASSERT_TRUE(drv.init());

    // Kernel I/O fails while SPDK owns the device.
    std::vector<std::uint8_t> tmp(4096);
    auto r = kPread(s, p, fd, tmp, 0);
    EXPECT_LT(r.n, 0);

    // A second claimant fails.
    kern::Process &p2 = s.newProcess();
    spdk::SpdkDriver drv2(s.eq, s.dev, s.kernel.cpu(), p2.pasid());
    EXPECT_FALSE(drv2.init());

    // SPDK itself reads fine, raw.
    IoResult rr;
    std::vector<std::uint8_t> buf(4096);
    drv.read(0, 512ull << 20, buf, [&](long long n, kern::IoTrace tr) {
        rr.n = n;
        rr.trace = tr;
    });
    s.run();
    EXPECT_EQ(rr.n, 4096);
    // SPDK latency ~ device + small user overhead, no translation.
    EXPECT_LT(rr.trace.total(), 4600u);

    drv.shutdown();
    // Kernel works again.
    std::vector<std::uint8_t> buf2(4096);
    EXPECT_EQ(kPread(s, p, fd, buf2, 0).n, 4096);
}

TEST(Spdk, ShutdownWithQueuedIoDrainsFirst)
{
    sim::setVerbose(false);
    sys::System s(smallConfig());
    kern::Process &p = s.newProcess();

    spdk::SpdkDriver drv(s.eq, s.dev, s.kernel.cpu(), p.pasid());
    ASSERT_TRUE(drv.init());

    // Queue I/O and call shutdown() before any of it completes.
    // Queue pairs must survive until the completions reap, and the
    // exclusive claim must hold while DMA is in flight.
    constexpr int kIos = 8;
    int completions = 0;
    std::vector<std::uint8_t> buf(4096);
    for (int i = 0; i < kIos; i++)
        drv.read(0, (256ull + i) << 20, buf,
                 [&](long long n, kern::IoTrace) {
                     EXPECT_EQ(n, 4096);
                     completions++;
                 });
    EXPECT_EQ(drv.pendingIos(), (std::uint64_t)kIos);

    drv.shutdown();
    // Deferred: the claim is still ours until the queue drains.
    EXPECT_TRUE(drv.initialized());
    EXPECT_EQ(completions, 0);

    s.run();
    // Every callback fired exactly once, then the release happened.
    EXPECT_EQ(completions, kIos);
    EXPECT_EQ(drv.pendingIos(), 0u);
    EXPECT_FALSE(drv.initialized());

    // The device is free again for another claimant.
    kern::Process &p2 = s.newProcess();
    spdk::SpdkDriver drv2(s.eq, s.dev, s.kernel.cpu(), p2.pasid());
    EXPECT_TRUE(drv2.init());
    drv2.shutdown();
}

// --- XRP ---

namespace {

/** A 6-hop chain: 512 B at 0, then 4, 8, ..., 20 KiB. */
std::optional<xrp::Hop>
sixHops(std::span<const std::uint8_t>, unsigned i)
{
    if (i >= 5)
        return std::nullopt;
    return xrp::Hop{(i + 1) * 4096ull, 512};
}

} // namespace

TEST(Xrp, ChainedLookupCheaperThanSyncChain)
{
    sim::setVerbose(false);
    sys::System s(smallConfig());
    kern::Process &p = s.newProcess();
    const int fd = s.kernel.setupCreateFile(p, "/idx", 8 << 20, 7);

    // 6-hop chain via XRP.
    xrp::XrpEngine engine(s.kernel);
    Time t0 = s.now();
    long long hops = -1;
    engine.lookup(p, fd, xrp::Hop{0, 512}, sixHops,
                  [&](long long n, kern::IoTrace) { hops = n; });
    s.run();
    const Time xrpLat = s.now() - t0;
    EXPECT_EQ(hops, 6);

    // Same 6 reads as dependent sync syscalls.
    t0 = s.now();
    std::vector<std::uint8_t> buf(512);
    std::function<void(unsigned)> chain = [&](unsigned i) {
        if (i >= 6)
            return;
        s.kernel.sysPread(p, fd, buf, i * 4096ull,
                          [&chain, i](long long n, kern::IoTrace) {
                              ASSERT_GT(n, 0);
                              chain(i + 1);
                          });
    };
    chain(0);
    s.run();
    const Time syncLat = s.now() - t0;

    EXPECT_LT(xrpLat, syncLat);
    // XRP saves ~ (5 kernel traversals); each ~3.5 us.
    EXPECT_GT(syncLat - xrpLat, 5 * 2500u);
}

TEST(Xrp, RequiresODirect)
{
    sim::setVerbose(false);
    sys::System s(smallConfig());
    kern::Process &p = s.newProcess();
    s.kernel.setupCreateFile(p, "/idx", 1 << 20, 7);
    const int bfd = s.kernel.setupOpen(p, "/idx", kOpenRead); // buffered
    xrp::XrpEngine engine(s.kernel);
    long long res = 0;
    engine.lookup(p, bfd, xrp::Hop{0, 512},
                  [](std::span<const std::uint8_t>, unsigned)
                      -> std::optional<xrp::Hop> { return std::nullopt; },
                  [&](long long n, kern::IoTrace) { res = n; });
    s.run();
    EXPECT_LT(res, 0);
}

TEST(Xrp, ChainIsBilledToTheCaller)
{
    // Every hop's device read is the calling process's I/O, so its
    // tenant row carries all six SSD commands.
    sim::setVerbose(false);
    sys::System s(smallConfig());
    s.enableTenantAccounting();
    kern::Process &p = s.newProcess();
    const int fd = s.kernel.setupCreateFile(p, "/idx", 8 << 20, 7);

    xrp::XrpEngine engine(s.kernel);
    long long hops = -1;
    engine.lookup(p, fd, xrp::Hop{0, 512}, sixHops,
                  [&](long long n, kern::IoTrace) { hops = n; });
    s.run();
    ASSERT_EQ(hops, 6);
    const auto row = s.tenantAccounting().find(p.pasid());
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->ssdOps, 6u);
    EXPECT_EQ(s.verifyTenantSums(), "");
}

TEST(Xrp, ChainObeysTheCallersQosCap)
{
    // The hops pass the caller's QoS gate: at 1000 IOPS with burst 1,
    // six dependent reads throttle and take at least 5 ms.
    sim::setVerbose(false);
    sys::System s(smallConfig());
    qos::Registry &reg = s.enableQos();
    kern::Process &p = s.newProcess();
    const int fd = s.kernel.setupCreateFile(p, "/idx", 8 << 20, 7);
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 1;
    reg.setLimit(p.pasid(), lim);

    xrp::XrpEngine engine(s.kernel);
    long long hops = -1;
    const Time t0 = s.now();
    engine.lookup(p, fd, xrp::Hop{0, 512}, sixHops,
                  [&](long long n, kern::IoTrace) { hops = n; });
    s.run();
    EXPECT_EQ(hops, 6);
    EXPECT_GT(reg.throttlesOf(p.pasid()), 0u);
    EXPECT_GE(s.now() - t0, 5 * kMs);
}

// --- Determinism ---

TEST(Determinism, SameSeedSameResult)
{
    auto runOnce = []() {
        sim::setVerbose(false);
        sys::SystemConfig cfg;
        cfg.deviceBytes = 8ull << 30;
        cfg.seed = 1234;
        sys::System s(cfg);
        wl::FioRunner runner(s);
        wl::FioJob job;
        job.engine = wl::Engine::Bypassd;
        job.rw = wl::RwMode::RandRead;
        job.numJobs = 3;
        job.fileBytes = 64ull << 20;
        job.runtime = 5 * kMs;
        job.warmup = 500 * kUs;
        job.seed = 99;
        return runner.run(job);
    };
    wl::FioResult a = runOnce();
    wl::FioResult b = runOnce();
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.latency.p50(), b.latency.p50());
    EXPECT_EQ(a.latency.p999(), b.latency.p999());
    EXPECT_DOUBLE_EQ(a.avgDeviceNs, b.avgDeviceNs);
}

// --- Integration ---

TEST(Integration, MixedTenantsEndToEnd)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 4ull << 30;
    sys::System s(cfg);

    // Tenant A uses BypassD, tenant B uses the kernel, concurrently, on
    // private files; a third file is shared read-only.
    kern::Process &pa = s.newProcess(1000, 1000);
    kern::Process &pb = s.newProcess(2000, 2000);
    bypassd::UserLib &la = s.userLib(pa);

    const int setupA = s.kernel.setupCreateFile(pa, "/a.dat", 8 << 20, 1);
    kClose(s, pa, setupA);
    const int setupB = s.kernel.setupCreateFile(pb, "/b.dat", 8 << 20, 2);
    const int setupS
        = s.kernel.setupCreateFile(pa, "/shared.dat", 8 << 20, 3);
    kClose(s, pa, setupS);

    const int fa = ulOpen(s, la, "/a.dat",
                          kOpenRead | kOpenWrite | kOpenDirect);
    ASSERT_TRUE(la.isDirect(fa));
    const int fshared
        = ulOpen(s, la, "/shared.dat", kOpenRead | kOpenDirect);
    ASSERT_TRUE(la.isDirect(fshared));

    // Interleave 200 ops from both tenants.
    int doneA = 0, doneB = 0;
    std::vector<std::uint8_t> bufA(4096), bufB(4096);
    auto dataA = pattern(4096, 77);
    std::function<void(int)> loopA = [&](int i) {
        if (i >= 100) {
            doneA = i;
            return;
        }
        const std::uint64_t off
            = static_cast<std::uint64_t>(i % 100) * 4096;
        if (i % 3 == 0) {
            la.pwrite(0, fa, dataA, off,
                      [&loopA, i](long long n, kern::IoTrace) {
                          ASSERT_EQ(n, 4096);
                          loopA(i + 1);
                      });
        } else {
            la.pread(0, fshared, bufA, off,
                     [&loopA, i](long long n, kern::IoTrace) {
                         ASSERT_EQ(n, 4096);
                         loopA(i + 1);
                     });
        }
    };
    std::function<void(int)> loopB = [&](int i) {
        if (i >= 100) {
            doneB = i;
            return;
        }
        s.kernel.sysPread(pb, setupB, bufB,
                          static_cast<std::uint64_t>(i % 100) * 4096,
                          [&loopB, i](long long n, kern::IoTrace) {
                              ASSERT_EQ(n, 4096);
                              loopB(i + 1);
                          });
    };
    loopA(0);
    loopB(0);
    s.run();
    EXPECT_EQ(doneA, 100);
    EXPECT_EQ(doneB, 100);

    // A's writes are durable and visible through the kernel.
    std::vector<std::uint8_t> check(4096);
    s.kernel.setupRead(pa, fa, check, 0);
    EXPECT_EQ(check, dataA);

    // File system is consistent and recoverable.
    std::string why;
    EXPECT_TRUE(s.ext4.fsck(&why)) << why;
    auto recovered = fs::Ext4Fs::recover(s.store, s.ext4);
    EXPECT_TRUE(recovered->fsck(&why)) << why;

    // The recovered FS maps /a.dat to the same blocks: content intact.
    InodeNum ino;
    ASSERT_EQ(recovered->resolve("/a.dat", &ino), fs::FsStatus::Ok);
    std::vector<fs::Seg> segs;
    ASSERT_EQ(recovered->mapRange(*recovered->inode(ino), 0, 4096, &segs),
              fs::FsStatus::Ok);
    std::vector<std::uint8_t> raw(4096);
    s.store.read(segs[0].addr, raw);
    EXPECT_EQ(raw, dataA);
}

TEST(Integration, FrameAccountingBalanced)
{
    // Page-table frames must balance across the full lifecycle: fmap
    // (shared file tables + private paths), close (detach), unlink
    // (inode + cached file table destroyed), process teardown.
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 2ull << 30;
    sys::System s(cfg);
    const std::size_t base = s.frames.live();

    kern::Process &p = s.newProcess();
    const std::size_t withProc = s.frames.live(); // + page-table root
    EXPECT_GT(withProc, base);

    bypassd::UserLib &lib = s.userLib(p);
    const int cfd = s.kernel.setupCreateFile(p, "/tmpf", 16 << 20, 1);
    kClose(s, p, cfd);
    const int fd = ulOpen(s, lib, "/tmpf",
                          kOpenRead | kOpenWrite | kOpenDirect);
    ASSERT_TRUE(lib.isDirect(fd));
    EXPECT_GT(s.frames.live(), withProc); // file tables + private path

    ulClose(s, lib, fd);
    int rc = -1;
    s.kernel.sysUnlink(p, "/tmpf", [&](int r) { rc = r; });
    s.run();
    ASSERT_EQ(rc, 0);

    const Pid pid = p.pid();
    s.kernel.destroyProcess(pid);
    EXPECT_EQ(s.frames.live(), base);
}
