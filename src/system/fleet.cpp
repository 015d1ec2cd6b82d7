#include "system/fleet.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace bpd::sys {

namespace {

sim::SimExecutor::Config
execConfig(const FleetConfig &cfg)
{
    sim::SimExecutor::Config ec;
    // More shards than machines would only add idle barrier
    // participants; the machine is the placement unit.
    ec.shards = std::max(1u, std::min(cfg.shards, cfg.systems));
    ec.pinThreads = cfg.pinThreads;
    return ec;
}

} // namespace

Fleet::Fleet(FleetConfig cfg) : cfg_(cfg), exec_(execConfig(cfg))
{
    sim::panicIf(cfg_.systems == 0, "fleet: needs at least one system");
    const bool fabric
        = cfg_.topology == FleetTopology::FabricClientsTarget;
    sim::panicIf(fabric && cfg_.systems < 2,
                 "fabric fleet: needs a target and at least one client");
    place_.shards = exec_.shardCount();
    for (unsigned i = 0; i < cfg_.systems; i++) {
        SystemConfig sc = cfg_.base;
        sc.deviceBytes = cfg_.deviceBytes;
        sc.seed = cfg_.seed + i;
        sc.devId = static_cast<DevId>(i + 1);
        systems_.push_back(std::make_unique<System>(sc));
        const unsigned shard = fabric ? place_.fabricShard(i)
                                      : place_.systemShard(i);
        domainOf_.push_back(exec_.addDomain(systems_.back()->eq, shard,
                                            sim::strf("sys%u", i)));
    }
    ctrlDomain_ = exec_.addDomain(ctrlEq_, place_.controllerShard(),
                                  "controller");
    for (unsigned i = 0; i < cfg_.systems; i++) {
        exec_.connect(domainOf_[i], ctrlDomain_, cfg_.fabricLatencyNs);
        exec_.connect(ctrlDomain_, domainOf_[i], cfg_.fabricLatencyNs);
    }
    if (fabric) {
        // I/O-plane channels: every client machine to/from the target.
        for (unsigned i = 1; i < cfg_.systems; i++) {
            exec_.connect(domainOf_[i], domainOf_[0],
                          cfg_.fabricIoLatencyNs);
            exec_.connect(domainOf_[0], domainOf_[i],
                          cfg_.fabricIoLatencyNs);
        }
    }
}

void
Fleet::start(Time tEnd)
{
    for (unsigned i = 0; i < cfg_.systems; i++) {
        System &s = *systems_[i];
        s.bindExecutor(&exec_);
        s.eq.schedule(s.eq.now() + cfg_.beaconPeriodNs,
                      [this, i, tEnd]() { beacon(i, tEnd); });
    }
}

/**
 * One beacon round trip, executing on three domains in turn: the
 * machine samples its counters, the controller folds them into the
 * fleet digest and acks, and the ack schedules the machine's next
 * beacon. Every capture stays within the inline callback buffer.
 */
void
Fleet::beacon(unsigned i, Time tEnd)
{
    System &s = *systems_[i];
    if (s.eq.now() >= tEnd)
        return;
    const std::uint64_t ops = s.dev.totalOps();
    const std::uint64_t ev = s.eq.executed();
    exec_.post(
        domainOf_[i], ctrlDomain_, s.eq.now() + cfg_.fabricLatencyNs,
        [this, i, tEnd, ops, ev]() {
            beacons_++;
            ctrlHash_ = sim::fnv(ctrlHash_, i);
            ctrlHash_ = sim::fnv(ctrlHash_, ops);
            ctrlHash_ = sim::fnv(ctrlHash_, ev);
            ctrlHash_ = sim::fnv(ctrlHash_, ctrlEq_.now());
            exec_.post(ctrlDomain_, domainOf_[i],
                       ctrlEq_.now() + cfg_.fabricLatencyNs,
                       [this, i, tEnd]() {
                           System &sys = *systems_[i];
                           if (sys.eq.now() >= tEnd)
                               return;
                           sys.eq.schedule(
                               sys.eq.now() + cfg_.beaconPeriodNs,
                               [this, i, tEnd]() { beacon(i, tEnd); });
                       });
        });
}

void
Fleet::settle()
{
    Time tMax = ctrlEq_.now();
    for (const auto &s : systems_)
        tMax = std::max(tMax, s->eq.now());
    for (const auto &s : systems_)
        s->eq.schedule(tMax, [] {});
    ctrlEq_.schedule(tMax, [] {});
    exec_.run();
}

std::uint64_t
Fleet::totalEvents() const
{
    std::uint64_t n = ctrlEq_.executed();
    for (const auto &s : systems_)
        n += s->eq.executed();
    return n;
}

} // namespace bpd::sys
