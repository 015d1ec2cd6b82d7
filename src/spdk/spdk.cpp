#include "spdk/spdk.hpp"

#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::spdk {

SpdkDriver::SpdkDriver(sim::EventQueue &eq, ssd::NvmeDevice &dev,
                       kern::CpuModel &cpu, Pasid owner, SpdkCosts costs)
    : eq_(eq), dev_(dev), cpu_(cpu), owner_(owner), costs_(costs)
{
}

SpdkDriver::~SpdkDriver()
{
    *alive_ = false; // queued drain polls must not touch freed state
    teardown();
}

bool
SpdkDriver::init()
{
    if (initialized_)
        return true;
    if (!dev_.claimExclusive(owner_))
        return false;
    initialized_ = true;
    return true;
}

void
SpdkDriver::shutdown()
{
    if (!initialized_)
        return;
    if (pendingIos_ > 0) {
        // Completions are still in flight. Destroying queue pairs now
        // would let device callbacks fire into freed state, and
        // releasing the claim would re-enable other users while our
        // DMA is outstanding. Drain first.
        if (!draining_) {
            draining_ = true;
            scheduleDrainPoll();
        }
        return;
    }
    teardown();
}

void
SpdkDriver::scheduleDrainPoll()
{
    eq_.after(kUs, [this, alive = alive_] {
        if (!*alive)
            return;
        if (pendingIos_ > 0) {
            scheduleDrainPoll();
            return;
        }
        teardown();
    });
}

void
SpdkDriver::teardown()
{
    if (!initialized_)
        return;
    sim::panicIf(pendingIos_ > 0, "SPDK teardown with I/O in flight");
    for (auto &[tid, qp] : queues_)
        dev_.destroyQueuePair(qp->qid());
    queues_.clear();
    dev_.releaseExclusive(owner_);
    draining_ = false;
    initialized_ = false;
}

ssd::QueuePair &
SpdkDriver::queue(Tid tid)
{
    ssd::QueuePair *&qp = queues_[tid];
    if (!qp) {
        qp = dev_.createQueuePair(owner_, 1024, /*vbaMode=*/false);
        sim::panicIf(qp == nullptr, "SPDK queue creation failed");
    }
    return *qp;
}

void
SpdkDriver::read(Tid tid, DevAddr addr, std::span<std::uint8_t> buf,
                 kern::IoCb cb)
{
    doIo(tid, ssd::Op::Read, addr, buf, std::move(cb));
}

void
SpdkDriver::write(Tid tid, DevAddr addr,
                  std::span<const std::uint8_t> buf, kern::IoCb cb)
{
    doIo(tid, ssd::Op::Write, addr,
         std::span<std::uint8_t>(const_cast<std::uint8_t *>(buf.data()),
                                 buf.size()),
         std::move(cb));
}

void
SpdkDriver::doIo(Tid tid, ssd::Op op, DevAddr addr,
                 std::span<std::uint8_t> buf, kern::IoCb cb)
{
    sim::panicIf(!initialized_, "SPDK I/O before init()");
    sim::panicIf(draining_, "SPDK I/O submitted during shutdown drain");
    // The envelope opens at submission, so it covers any QoS park.
    const Time start = eq_.now();
    kern::Request req = kern::openRequest(
        dev_.tracer(), owner_,
        op == ssd::Op::Write ? "spdk.write" : "spdk.read", "spdk.t", tid,
        std::move(cb));
    // QoS gate: charge the owner tenant on the device's registry before
    // the submit-cost model runs. A parked I/O already counts as
    // pending, so a shutdown drain waits for it; the alive guard covers
    // a driver destroyed while it is parked.
    pendingIos_++;
    qos::admit(dev_.qos(), owner_, 1, buf.size(),
               [this, alive = alive_, tid, op, addr, buf, start,
                req = std::move(req)]() mutable {
        if (!*alive)
            return;
        const Time submitCost = cpu_.scaled(costs_.submitNs);
        eq_.after(submitCost, [this, tid, op, addr, buf, start,
                               req = std::move(req)]() mutable {
            ssd::Command cmd;
            cmd.op = op;
            cmd.addr = addr;
            cmd.addrIsVba = false;
            cmd.len = static_cast<std::uint32_t>(buf.size());
            cmd.hostBuf = buf; // zero-copy: DMA straight into the caller
            cmd.trace = req.trace();
            const Time tSubmit = eq_.now();
            const bool ok = queue(tid).submit(
                cmd, [this, bytes = buf.size(), start, tSubmit,
                      req = std::move(req)](
                         const ssd::Completion &comp) mutable {
                    const Time reap = cpu_.scaled(costs_.reapNs);
                    eq_.after(reap, [this, bytes, start,
                                     devNs = comp.completeTime - tSubmit,
                                     status = comp.status,
                                     req = std::move(req)]() mutable {
                        kern::IoTrace tr;
                        const Time total = eq_.now() - start;
                        tr.deviceNs = devNs;
                        tr.userNs = total - tr.deviceNs;
                        pendingIos_--;
                        req.finish(status == ssd::Status::Success
                                       ? static_cast<long long>(bytes)
                                       : kern::devErr(status),
                                   tr);
                    });
                });
            sim::panicIf(!ok, "SPDK queue overflow");
        });
    });
}

} // namespace bpd::spdk
