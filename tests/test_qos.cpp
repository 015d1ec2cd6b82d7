/**
 * @file
 * Per-tenant QoS tests: exact virtual-time token-bucket refill
 * (inspection-frequency invariance, burst clamp with remainder spill,
 * oversize borrow), park/drain FIFO order and pacing through the
 * qos::admit gate, weighted-fair SQ arbitration under backlog, digest
 * neutrality of an enabled-but-empty registry, throttle-and-drain at
 * the kernel, BypassD and SPDK gates, and the SPDK envelope under
 * parking.
 */

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "iommu/iommu.hpp"
#include "obs/replay.hpp"
#include "qos/qos.hpp"
#include "sim/event_queue.hpp"
#include "spdk/spdk.hpp"
#include "ssd/block_store.hpp"
#include "ssd/nvme.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

TEST(QosBucket, RefillIsExactAndInspectionInvariant)
{
    // 7 ops/s with a 5-deep bucket: after draining the bucket at t=0,
    // the next token lands at exactly ceil(1e9 / 7) = 142857143 ns.
    // One registry is probed at many irregular intermediate times, the
    // other only at the boundary — the fractional-remainder carry must
    // make both admit at the same instant (refill is a function of
    // elapsed virtual time, not of how often the bucket is inspected).
    sim::EventQueue eq;
    qos::Registry often(eq);
    qos::Registry once(eq);
    qos::TenantLimit lim;
    lim.iopsLimit = 7;
    lim.burstOps = 5;
    often.setLimit(1, lim);
    once.setLimit(1, lim);
    for (int i = 0; i < 5; i++) {
        EXPECT_TRUE(often.tryAcquire(1, 1, 0));
        EXPECT_TRUE(once.tryAcquire(1, 1, 0));
    }
    EXPECT_FALSE(often.tryAcquire(1, 1, 0));

    constexpr Time kReady = 142857143; // ceil(1e9 / 7)
    for (Time t : {Time{1}, Time{999}, Time{123456}, Time{99999999},
                   kReady - 1})
        eq.schedule(t, [&, t] {
            EXPECT_FALSE(often.tryAcquire(1, 1, 0)) << "at " << t;
        });
    eq.schedule(kReady - 1, [&] {
        EXPECT_FALSE(once.tryAcquire(1, 1, 0));
    });
    eq.schedule(kReady, [&] {
        EXPECT_TRUE(often.tryAcquire(1, 1, 0));
        EXPECT_TRUE(once.tryAcquire(1, 1, 0));
        // Exactly one token accrued; a second acquire must wait.
        EXPECT_FALSE(often.tryAcquire(1, 1, 0));
        EXPECT_FALSE(once.tryAcquire(1, 1, 0));
    });
    eq.run();
}

TEST(QosBucket, IdleBucketClampsFullAndSpillsRemainder)
{
    // 1000 ops/s, burst 4. A second of idling may bank exactly the
    // burst — not the 1000 tokens of raw credit, and not a fractional
    // head start either: the remainder is spilled when the bucket
    // clamps full, so the next token after draining one is a full
    // 1 ms out.
    sim::EventQueue eq;
    qos::Registry reg(eq);
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 4;
    reg.setLimit(1, lim);

    constexpr Time kSec = 1'000'000'000;
    eq.schedule(kSec, [&] {
        for (int i = 0; i < 4; i++)
            EXPECT_TRUE(reg.tryAcquire(1, 1, 0));
        EXPECT_FALSE(reg.tryAcquire(1, 1, 0)); // burst, not rate * dt
    });
    eq.schedule(kSec + 999'999, [&] {
        EXPECT_FALSE(reg.tryAcquire(1, 1, 0)); // no phantom remainder
    });
    eq.schedule(kSec + 1'000'000, [&] {
        EXPECT_TRUE(reg.tryAcquire(1, 1, 0));
    });
    eq.run();
}

TEST(QosBucket, OversizeRequestBorrowsInsteadOfStalling)
{
    // A request larger than the bucket depth is admitted once the
    // bucket is full and borrows (tokens go negative) — it throttles
    // the tenant afterwards instead of deadlocking forever.
    sim::EventQueue eq;
    qos::Registry reg(eq);
    qos::TenantLimit lim;
    lim.bytesPerSec = 4'096'000; // 4096 bytes per ms
    lim.burstBytes = 4096;
    reg.setLimit(1, lim);

    EXPECT_TRUE(reg.tryAcquire(1, 1, 16384)); // 4x the bucket: borrow
    // The debt is 16384 - 4096 = 12288 borrowed + 4096 for the next
    // op: ready in exactly 4 ms.
    eq.schedule(3'999'999, [&] { EXPECT_FALSE(reg.tryAcquire(1, 1, 4096)); });
    eq.schedule(4'000'000, [&] { EXPECT_TRUE(reg.tryAcquire(1, 1, 4096)); });
    eq.run();
}

TEST(QosPark, DrainPreservesFifoOrderAndPaces)
{
    // 1000 ops/s, burst 1: one op per ms. Through the qos::admit gate,
    // the first submission runs in place; three more park and must
    // resume in order at exactly 1, 2, 3 ms; a fourth submitted
    // mid-backlog must queue behind them (tryAcquire refuses while a
    // backlog exists, even if a token is momentarily available) and
    // drain at 4 ms.
    sim::EventQueue eq;
    qos::Registry reg(eq);
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 1;
    reg.setLimit(1, lim);

    std::vector<std::pair<int, Time>> order;
    bool ranInPlace = false;
    // The first submission drains the full bucket.
    qos::admit(&reg, 1, 1, 0, [&] { ranInPlace = true; });
    EXPECT_TRUE(ranInPlace);
    for (int i = 0; i < 3; i++) {
        qos::admit(&reg, 1, 1, 0,
                   [&, i] { order.push_back({i, eq.now()}); });
        EXPECT_EQ(reg.parkedOf(1), static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_TRUE(order.empty()) << "an over-limit submission ran in place";
    eq.schedule(2'500'000, [&] {
        const std::uint64_t parked = reg.parkedOf(1);
        const std::size_t ran = order.size();
        qos::admit(&reg, 1, 1, 0, [&] { order.push_back({3, eq.now()}); });
        EXPECT_EQ(order.size(), ran) << "overtook the backlog";
        EXPECT_EQ(reg.parkedOf(1), parked + 1);
    });
    eq.run();

    ASSERT_EQ(order.size(), 4u);
    for (int i = 0; i < 4; i++) {
        EXPECT_EQ(order[i].first, i);
        EXPECT_EQ(order[i].second, static_cast<Time>((i + 1) * 1'000'000));
    }
    EXPECT_EQ(reg.throttles(), 4u);
    EXPECT_EQ(reg.parkedOf(1), 0u);
    EXPECT_EQ(reg.admits(), 5u); // 1 direct + 4 drained
}

TEST(QosWeights, DefaultsAndClamps)
{
    sim::EventQueue eq;
    qos::Registry reg(eq);
    EXPECT_EQ(reg.weightOf(42), 1u); // unregistered
    qos::TenantLimit lim;
    lim.weight = 0;
    reg.setLimit(1, lim);
    EXPECT_EQ(reg.weightOf(1), 1u); // weight 0 clamps to 1
    lim.weight = 4;
    reg.setLimit(2, lim);
    EXPECT_EQ(reg.weightOf(2), 4u);
    // A weight-only entry never rate-limits.
    for (int i = 0; i < 1000; i++)
        EXPECT_TRUE(reg.tryAcquire(2, 1, 4096));
    EXPECT_EQ(reg.throttles(), 0u);
}

namespace {

struct QosDevFixture : ::testing::Test
{
    sim::EventQueue eq;
    iommu::Iommu iommu{eq};
    ssd::BlockStore store{1ull << 30};
    ssd::SsdProfile prof = ssd::SsdProfile::optaneP5800X();
    std::unique_ptr<ssd::NvmeDevice> dev;

    void
    SetUp() override
    {
        prof.jitterSigma = 0.0;
        dev = std::make_unique<ssd::NvmeDevice>(eq, store, iommu, 1,
                                                prof);
    }
};

} // namespace

TEST_F(QosDevFixture, WeightedArbitrationSkewsServiceUnderBacklog)
{
    // Two equally loaded queues, weight 4 vs 1: while both stay
    // backlogged the heavy queue must complete ~4x the ops of the
    // light one, and the backlog must still drain completely for both
    // (weighted-fair is work-conserving, never starving).
    qos::Registry reg(eq);
    qos::TenantLimit lim;
    lim.weight = 4;
    reg.setLimit(7, lim);
    dev->setQos(&reg);

    ssd::QueuePair *heavy = dev->createQueuePair(7, 256, false);
    ssd::QueuePair *light = dev->createQueuePair(8, 256, false);
    ASSERT_NE(heavy, nullptr);
    ASSERT_NE(light, nullptr);
    std::vector<std::uint8_t> buf(4096);
    int doneHeavy = 0, doneLight = 0;
    int midLight = -1; // light's progress at heavy's 100th completion
    for (int i = 0; i < 200; i++) {
        ssd::Command cmd;
        cmd.op = ssd::Op::Read;
        cmd.addr = static_cast<DevAddr>(i) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        ASSERT_TRUE(heavy->submit(cmd, [&](const ssd::Completion &) {
            doneHeavy++;
            if (doneHeavy == 100)
                midLight = doneLight;
        }));
        ASSERT_TRUE(light->submit(
            cmd, [&](const ssd::Completion &) { doneLight++; }));
    }
    eq.run();

    // At heavy's 100th completion both queues were still backlogged
    // (heavy had 100 left), so service so far should split ~4:1.
    ASSERT_GT(midLight, 0);
    const double ratio = 100.0 / static_cast<double>(midLight);
    EXPECT_GE(ratio, 3.0) << "light had " << midLight;
    EXPECT_LE(ratio, 5.0) << "light had " << midLight;
    EXPECT_EQ(doneHeavy, 200);
    EXPECT_EQ(doneLight, 200);
}

TEST(QosNeutrality, EnabledEmptyRegistryKeepsDigests)
{
    // Enabling QoS without limits must not change the replay stream or
    // the executed-event count of any engine: every gate is one branch
    // on an admit-everything registry. Bypassd covers the UserLib +
    // kernel gates, Spdk the baseline driver gate.
    for (wl::Engine e : {wl::Engine::Bypassd, wl::Engine::Spdk}) {
        auto run = [&](bool qos) {
            sim::setVerbose(false);
            sys::SystemConfig cfg;
            cfg.deviceBytes = 1ull << 30;
            cfg.seed = 23;
            auto s = std::make_unique<sys::System>(cfg);
            s->enableTracing(obs::Level::Requests);
            if (qos)
                s->enableQos();
            wl::FioJob job;
            job.engine = e;
            job.rw = wl::RwMode::RandRead;
            job.bs = 4096;
            job.numJobs = 2;
            job.perProcess = true;
            job.runtime = 500 * kUs;
            job.warmup = 50 * kUs;
            job.fileBytes = 2ull << 20;
            job.seed = 11;
            job.filePrefix = "/qos";
            wl::FioRunner runner(*s);
            runner.run(job);
            return std::pair<std::uint64_t, std::uint64_t>{
                obs::replayDigest(s->tracer()->data().replay),
                s->eq.executed()};
        };
        const auto off = run(false);
        const auto on = run(true);
        EXPECT_EQ(off.first, on.first)
            << wl::toString(e) << ": empty registry changed the stream";
        EXPECT_EQ(off.second, on.second)
            << wl::toString(e) << ": empty registry scheduled events";
    }
}

namespace {

/** The submission sites the throttle tests drive. */
enum class Site { Kernel, Bypassd, Spdk };

/**
 * A tightly capped tenant (1000 IOPS, burst 1) submits five
 * back-to-back 4 KiB reads through @p site's QoS gate: every read still
 * completes (throttled I/O is delayed, never dropped), the throttle
 * counters advance, nothing is left parked, the reads are paced over at
 * least 4 ms, and the per-tenant accounting rows sum to the registry
 * totals (verifyTenantSums covers the qos rows). The SPDK driver is
 * also shut down while its reads are parked: parked I/O counts as
 * pending, so the release must wait for it.
 */
void
expectThrottledDrain(Site site)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 9;
    sys::System s(cfg);
    s.enableTenantAccounting();
    qos::Registry &reg = s.enableQos();

    kern::Process &p = s.newProcess(6000, 6000);
    const int kfd = s.kernel.setupCreateFile(p, "/capped.dat", 1 << 20, 7);
    ASSERT_GE(kfd, 0);

    std::function<void(std::span<std::uint8_t>, kern::IoCb)> read;
    std::unique_ptr<spdk::SpdkDriver> drv;
    switch (site) {
      case Site::Kernel:
        read = [&](std::span<std::uint8_t> buf, kern::IoCb cb) {
            s.kernel.sysPread(p, kfd, buf, 0, std::move(cb));
        };
        break;
      case Site::Bypassd: {
        int rc = -1;
        s.kernel.sysClose(p, kfd, [&](int r) { rc = r; });
        s.run();
        ASSERT_EQ(rc, 0);
        bypassd::UserLib &lib = s.userLib(p);
        int fd = -1;
        lib.open("/capped.dat", fs::kOpenRead | fs::kOpenDirect, 0644,
                 [&](int f) { fd = f; });
        s.run();
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(lib.isDirect(fd));
        read = [&lib, fd](std::span<std::uint8_t> buf, kern::IoCb cb) {
            lib.pread(0, fd, buf, 0, std::move(cb));
        };
        break;
      }
      case Site::Spdk:
        drv = std::make_unique<spdk::SpdkDriver>(
            s.eq, s.dev, s.kernel.cpu(), p.pasid());
        ASSERT_TRUE(drv->init());
        read = [&](std::span<std::uint8_t> buf, kern::IoCb cb) {
            drv->read(0, 512ull << 20, buf, std::move(cb));
        };
        break;
    }

    // Cap after the setup: back-to-back reads must park.
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 1;
    reg.setLimit(p.pasid(), lim);

    std::vector<std::uint8_t> buf(4096);
    int done = 0;
    const Time start = s.now();
    for (int i = 0; i < 5; i++)
        read(buf, [&](long long n, kern::IoTrace) {
            EXPECT_EQ(n, 4096);
            done++;
        });
    if (drv) {
        drv->shutdown();
        EXPECT_TRUE(drv->initialized()) << "released with reads parked";
        EXPECT_EQ(drv->pendingIos(), 5u);
    }
    s.run();

    EXPECT_EQ(done, 5);
    EXPECT_GT(reg.throttlesOf(p.pasid()), 0u);
    EXPECT_EQ(reg.parkedOf(p.pasid()), 0u);
    // Pacing: 5 reads at 1 per ms need at least 4 ms of virtual time.
    EXPECT_GE(s.now() - start, 4 * kMs);
    EXPECT_EQ(s.verifyTenantSums(), "");
    const auto row = s.tenantAccounting().find(p.pasid());
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->qosThrottles, reg.throttles());
    EXPECT_EQ(row->qosThrottledBytes, reg.throttledBytes());
    if (drv) {
        EXPECT_EQ(drv->pendingIos(), 0u);
        EXPECT_FALSE(drv->initialized());
    }
}

} // namespace

TEST(QosThrottle, KernelPathThrottlesAndDrainsWithoutLoss)
{
    expectThrottledDrain(Site::Kernel);
}

TEST(QosThrottle, BypassdDirectPathThrottlesAndDrainsWithoutLoss)
{
    expectThrottledDrain(Site::Bypassd);
}

TEST(QosThrottle, SpdkThrottlesAndDrainsWithoutLoss)
{
    expectThrottledDrain(Site::Spdk);
}

TEST(QosThrottle, SpdkEnvelopeOpensAtSubmission)
{
    // Every engine's request envelope opens at submission, so a parked
    // read's envelope span and the IoTrace handed to its caller cover
    // the QoS park. Three reads under a 1000-IOPS, burst-1 cap: the
    // later two wait about 1 and 2 ms at the gate.
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    sys::System s(cfg);
    s.enableTracing(obs::Level::Requests);
    qos::Registry &reg = s.enableQos();
    kern::Process &p = s.newProcess();
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 1;
    reg.setLimit(p.pasid(), lim);
    spdk::SpdkDriver drv(s.eq, s.dev, s.kernel.cpu(), p.pasid());
    ASSERT_TRUE(drv.init());

    std::vector<std::uint8_t> buf(4096);
    std::vector<std::pair<Time, kern::IoTrace>> done;
    const Time submitted = s.now();
    for (int i = 0; i < 3; i++)
        drv.read(0, (256ull + i) << 20, buf,
                 [&](long long n, kern::IoTrace tr) {
                     EXPECT_EQ(n, 4096);
                     done.push_back({s.now(), tr});
                 });
    s.run();

    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(reg.throttlesOf(p.pasid()), 2u);
    EXPECT_GE(done[2].first - submitted, 2 * kMs);
    for (const auto &[at, tr] : done)
        EXPECT_EQ(tr.userNs + tr.deviceNs, at - submitted);
    std::vector<const obs::SpanRec *> envelopes;
    for (const obs::SpanRec &r : s.tracer()->data().spans)
        if (std::string_view(r.name) == "spdk.read")
            envelopes.push_back(&r);
    ASSERT_EQ(envelopes.size(), 3u);
    for (std::size_t i = 0; i < envelopes.size(); i++) {
        EXPECT_EQ(envelopes[i]->start, submitted) << "envelope " << i;
        EXPECT_EQ(envelopes[i]->end, done[i].first) << "envelope " << i;
    }
}
