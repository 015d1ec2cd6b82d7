/**
 * @file
 * SSD model tests: block store semantics, NVMe queue pairs, latency
 * model calibration (Table 1 device time), VBA commands through the
 * IOMMU, write-translation overlap, arbitration fairness, flush ordering,
 * exclusive claim.
 */

#include <algorithm>
#include <functional>

#include <gtest/gtest.h>

#include "iommu/iommu.hpp"
#include "mem/dma_buffer.hpp"
#include "mem/page_table.hpp"
#include "sim/event_queue.hpp"
#include "ssd/block_store.hpp"
#include "ssd/nvme.hpp"

using namespace bpd;
using namespace bpd::ssd;

TEST(BlockStore, UnwrittenReadsZero)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> buf(4096, 0xff);
    bs.read(0, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BlockStore, WriteReadRoundTrip)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(1000);
    for (std::size_t i = 0; i < w.size(); i++)
        w[i] = static_cast<std::uint8_t>(i);
    bs.write(12345, w);
    std::vector<std::uint8_t> r(1000);
    bs.read(12345, r);
    EXPECT_EQ(w, r);
}

TEST(BlockStore, CrossChunkWrite)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(3 * 4096, 0x5a);
    bs.write(4096 - 100, w);
    std::vector<std::uint8_t> r(3 * 4096);
    bs.read(4096 - 100, r);
    EXPECT_EQ(w, r);
}

TEST(BlockStore, ZeroBlocksErases)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(4096, 0xaa);
    bs.write(8192, w);
    EXPECT_FALSE(bs.isZero(8192, 4096));
    bs.zeroBlocks(2, 1);
    EXPECT_TRUE(bs.isZero(8192, 4096));
    EXPECT_EQ(bs.residentBytes(), 0u);
}

TEST(BlockStore, OutOfRangePanics)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> buf(4096);
    EXPECT_DEATH(bs.read((1 << 20) - 100, buf), "out of range");
}

namespace {

struct DevFixture : ::testing::Test
{
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    iommu::Iommu iommu{eq};
    BlockStore store{1ull << 30};
    SsdProfile prof = SsdProfile::optaneP5800X();
    std::unique_ptr<NvmeDevice> dev;

    void
    SetUp() override
    {
        prof.jitterSigma = 0.0; // deterministic latency for assertions
        dev = std::make_unique<NvmeDevice>(eq, store, iommu, 1, prof);
    }

    Completion
    runOne(QueuePair *qp, const Command &cmd)
    {
        Completion out;
        bool done = false;
        qp->submit(cmd, [&](const Completion &c) {
            out = c;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }
};

} // namespace

TEST_F(DevFixture, LbaReadLatencyNear4020)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    const Time dev4k = c.completeTime - c.submitTime;
    // Table 1: device time for a 4 KiB read ~= 4020 ns.
    EXPECT_NEAR(static_cast<double>(dev4k), 4020.0, 150.0);
}

TEST_F(DevFixture, ReadDataMoves)
{
    std::vector<std::uint8_t> seed(4096);
    for (std::size_t i = 0; i < seed.size(); i++)
        seed[i] = static_cast<std::uint8_t>(i * 7);
    store.write(64 * 4096, seed);

    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096, 0);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 64 * 4096;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    runOne(qp, cmd);
    EXPECT_EQ(buf, seed);
}

TEST_F(DevFixture, WriteDataMoves)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096, 0x3c);
    Command cmd;
    cmd.op = Op::Write;
    cmd.addr = 128 * 4096;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    std::vector<std::uint8_t> check(4096);
    store.read(128 * 4096, check);
    EXPECT_EQ(check, buf);
}

TEST_F(DevFixture, InvalidLengthRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 100; // not sector aligned
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::InvalidCommand);
}

TEST_F(DevFixture, OutOfRangeRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = store.capacity();
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::OutOfRange);
}

TEST_F(DevFixture, VbaOnNonVbaQueueRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::InvalidCommand);
}

TEST_F(DevFixture, VbaReadTranslatesAndChecks)
{
    // Build a process page table with FTEs and a DMA buffer.
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    std::vector<std::uint8_t> seed(4096, 0x77);
    store.write(500 * 4096, seed);
    pt.set(0x40000000, mem::makeFte(500, 1, true));

    std::vector<std::uint8_t> dma(4096, 0);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    EXPECT_EQ(dma, seed);
    EXPECT_GT(c.translateNs, 0u);

    // Reads serialize translation before media: total >= 4020 + ~550.
    const Time total = c.completeTime - c.submitTime;
    EXPECT_GT(total, 4400u);
}

TEST_F(DevFixture, VbaWriteHidesTranslation)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, true));
    std::vector<std::uint8_t> dma(4096, 0x11);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0x40000000;
    wr.addrIsVba = true;
    wr.len = 4096;
    wr.dmaIova = 0x9000000;
    wr.useIova = true;
    const Completion c = runOne(qp, wr);
    EXPECT_EQ(c.status, Status::Success);
    // Write: translation overlapped with data-in DMA (Section 4.3); the
    // device time shows no translation serialization.
    const Time total = c.completeTime - c.submitTime;
    EXPECT_LT(total, 4600u);
    std::vector<std::uint8_t> check(4096);
    store.read(500 * 4096, check);
    EXPECT_EQ(check, dma);
}

TEST_F(DevFixture, VbaFaultCompletesWithErrorAndNoData)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, /*writable=*/false));
    std::vector<std::uint8_t> dma(4096, 0x42);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0x40000000;
    wr.addrIsVba = true;
    wr.len = 4096;
    wr.dmaIova = 0x9000000;
    wr.useIova = true;
    const Completion c = runOne(qp, wr);
    EXPECT_EQ(c.status, Status::PermissionFault);
    // No bytes reached the media.
    EXPECT_TRUE(store.isZero(500 * 4096, 4096));
    EXPECT_EQ(dev->translationFaults(), 1u);
}

TEST_F(DevFixture, DmaFaultOnUnmappedIova)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, true));
    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = 0xdead0000;
    cmd.useIova = true;
    EXPECT_EQ(runOne(qp, cmd).status, Status::DmaFault);
}

TEST_F(DevFixture, UnmapDropsTheQueuesDmaMapping)
{
    // The queue keeps the DMA mapping its last IOVA command resolved.
    // Once the buffer is unmapped (and freed), the next command must
    // fault, not write into the freed memory.
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    const std::vector<std::uint8_t> seed(4096, 0x77);
    store.write(500 * 4096, seed);
    pt.set(0x40000000, mem::makeFte(500, 1, true));
    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    {
        mem::DmaBuffer dma(4096);
        iommu.mapDma(pasid, 0x9000000, dma.span(), true);
        EXPECT_EQ(runOne(qp, cmd).status, Status::Success);
        EXPECT_EQ(runOne(qp, cmd).status, Status::Success); // the memo
        EXPECT_TRUE(std::equal(seed.begin(), seed.end(), dma.data()));
        iommu.unmapDma(pasid, 0x9000000);
    }
    EXPECT_EQ(runOne(qp, cmd).status, Status::DmaFault);

    // A buffer mapped again at the IOVA takes the next read.
    std::vector<std::uint8_t> fresh(4096, 0);
    iommu.mapDma(pasid, 0x9000000, std::span(fresh), true);
    EXPECT_EQ(runOne(qp, cmd).status, Status::Success);
    EXPECT_EQ(fresh, seed);
}

TEST_F(DevFixture, RoundRobinFairness)
{
    // Two queues, heavily loaded: served ops should split evenly.
    QueuePair *q1 = dev->createQueuePair(kNoPasid, 256, false);
    QueuePair *q2 = dev->createQueuePair(kNoPasid, 256, false);
    std::vector<std::uint8_t> buf(4096);
    int done1 = 0, done2 = 0;
    for (int i = 0; i < 200; i++) {
        Command cmd;
        cmd.op = Op::Read;
        cmd.addr = static_cast<DevAddr>(i) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        ASSERT_TRUE(q1->submit(cmd, [&](const Completion &) { done1++; }));
        ASSERT_TRUE(q2->submit(cmd, [&](const Completion &) { done2++; }));
    }
    eq.run();
    EXPECT_EQ(done1, 200);
    EXPECT_EQ(done2, 200);
    EXPECT_EQ(q1->completedOps(), q2->completedOps());
}

TEST_F(DevFixture, ThroughputSaturatesNearProfile)
{
    // Keep 64 requests outstanding for a while; measure IOPS.
    QueuePair *qp = dev->createQueuePair(kNoPasid, 4096, false);
    std::vector<std::uint8_t> buf(4096);
    std::uint64_t completed = 0;
    std::function<void()> refill;
    auto submitOne = [&]() {
        Command cmd;
        cmd.op = Op::Read;
        cmd.addr = (completed % 1024) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        qp->submit(cmd, [&](const Completion &) {
            completed++;
            if (eq.now() < 10 * kMs)
                refill();
        });
    };
    refill = submitOne;
    for (int i = 0; i < 64; i++)
        submitOne();
    eq.run();
    const double secs = static_cast<double>(eq.now()) / 1e9;
    const double iops = static_cast<double>(completed) / secs;
    // units(6) / 4.02us ~= 1.49M IOPS; allow generous tolerance.
    EXPECT_GT(iops, 1.2e6);
    EXPECT_LT(iops, 1.8e6);
}

TEST_F(DevFixture, FlushWaitsForPriorWrites)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096, 1);
    Time writeDone = 0, flushDone = 0;
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0;
    wr.len = 4096;
    wr.hostBuf = buf;
    qp->submit(wr, [&](const Completion &c) {
        writeDone = c.completeTime;
    });
    Command fl;
    fl.op = Op::Flush;
    qp->submit(fl, [&](const Completion &c) {
        flushDone = c.completeTime;
    });
    eq.run();
    EXPECT_GT(flushDone, writeDone);
}

TEST_F(DevFixture, ExclusiveClaimDisablesOthers)
{
    QueuePair *kernelQ = dev->createQueuePair(kNoPasid, 32, false);
    ASSERT_TRUE(dev->claimExclusive(77));
    EXPECT_FALSE(dev->claimExclusive(88));
    // Kernel queue is disabled while claimed.
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(kernelQ, cmd).status, Status::InvalidCommand);
    // Other processes cannot create queues.
    EXPECT_EQ(dev->createQueuePair(55, 32, true), nullptr);
    // Owner can.
    EXPECT_NE(dev->createQueuePair(77, 32, false), nullptr);
    dev->releaseExclusive(77);
    EXPECT_EQ(runOne(kernelQ, cmd).status, Status::Success);
}

TEST_F(DevFixture, QueueDepthBackpressure)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 4, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    int ok = 0, done = 0;
    for (int i = 0; i < 10; i++) {
        if (qp->submit(cmd, [&](const Completion &) { done++; }))
            ok++;
    }
    EXPECT_EQ(ok, 4);
    EXPECT_EQ(qp->outstanding(), 4u);
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(qp->outstanding(), 0u);
    EXPECT_TRUE(qp->submit(cmd, [&](const Completion &) { done++; }));
    eq.run();
    EXPECT_EQ(done, 5);
}

TEST_F(DevFixture, DispatcherRoutesOutOfOrderCompletionsAcrossGrow)
{
    // The queue pair routes each completion to its command's callback
    // by the slot index in the cid. A flush (~6 us) finishes after the
    // 4 KiB reads (~4 us) submitted behind it, so completions arrive
    // out of submission order; 48 outstanding commands grow the slot
    // table step by step, and callbacks that resubmit take a slot
    // while the table may grow under them.
    QueuePair *qp = dev->createQueuePair(kNoPasid, 256, false);
    std::vector<std::uint8_t> buf(4096);
    std::vector<int> fired;          // per submission: callback runs
    std::vector<std::uint64_t> cids; // per submission: its cid
    std::vector<std::size_t> order;  // submissions in completion order
    std::uint32_t peak = 0;
    std::function<void()> submitOne = [&]() {
        const std::size_t k = fired.size();
        fired.push_back(0);
        cids.push_back(0);
        Command cmd;
        cmd.op = k % 3 == 0 ? Op::Flush : Op::Read;
        cmd.addr = static_cast<DevAddr>(k) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        ASSERT_TRUE(qp->submit(cmd, [&, k](const Completion &c) {
            fired[k]++;
            cids[k] = c.cid;
            EXPECT_EQ(c.status, Status::Success);
            order.push_back(k);
            if (fired.size() < 96)
                submitOne();
        }));
        peak = std::max(peak, qp->outstanding());
    };
    for (int i = 0; i < 48; i++)
        submitOne();
    eq.run();

    EXPECT_EQ(peak, 48u);
    EXPECT_EQ(qp->outstanding(), 0u);
    ASSERT_EQ(fired.size(), 96u);
    for (std::size_t k = 0; k < fired.size(); k++) {
        EXPECT_EQ(fired[k], 1) << "submission " << k;
        // Slots never pass the peak outstanding count.
        EXPECT_LT(cids[k], 48u) << "submission " << k;
    }
    // The first 48 submissions filled slots 0..47 in order.
    for (std::size_t k = 0; k < 48; k++)
        EXPECT_EQ(cids[k], k);
    ASSERT_EQ(order.size(), 96u);
    EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST_F(DevFixture, DispatcherRefusedSubmitKeepsCallback)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 2, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    ASSERT_TRUE(qp->submit(cmd, [](const Completion &) {}));
    ASSERT_TRUE(qp->submit(cmd, [](const Completion &) {}));

    int fires = 0;
    std::uint64_t cid = 99;
    CompletionFn fn = [&](const Completion &c) {
        fires++;
        cid = c.cid;
    };
    // SQ full: the refused submit must leave the callback with the
    // caller, untouched.
    EXPECT_FALSE(qp->submit(cmd, std::move(fn)));
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(qp->outstanding(), 2u);
    eq.run();
    EXPECT_EQ(fires, 0);

    EXPECT_TRUE(qp->submit(cmd, std::move(fn)));
    EXPECT_FALSE(static_cast<bool>(fn));
    eq.run();
    EXPECT_EQ(fires, 1);
    // Slot 1's command completed last, so LIFO reuse hands its slot
    // to the retry.
    EXPECT_EQ(cid, 1u);
    EXPECT_EQ(qp->outstanding(), 0u);
}

TEST_F(DevFixture, LargeReadBandwidthBound)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(128 << 10);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 128 << 10;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    const Time total = c.completeTime - c.submitTime;
    // 128 KiB at ~7 GB/s = ~18.7 us transfer + ~3.4 us base.
    EXPECT_NEAR(static_cast<double>(total), 22100.0, 2000.0);
}
