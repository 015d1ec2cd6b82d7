/**
 * @file
 * Shared helpers for the fabric bench binaries (fabric_fio,
 * fabric_incast): the executor/bookkeeping JSON fields, and per-connection / per-reactor
 * emission from the target's tables. Everything here is a pure
 * function of simulation state, so two binaries folding the same state
 * produce the same digest — the property the 1/2/4-shard CI gates
 * compare.
 */

#ifndef BPD_BENCH_FABRIC_COMMON_HPP
#define BPD_BENCH_FABRIC_COMMON_HPP

#include <cstdint>
#include <string>

#include "bench/common.hpp"
#include "fabric/target.hpp"
#include "sim/stats.hpp"
#include "system/fleet.hpp"

namespace bpd::bench {

/** Shared executor/bookkeeping fields every fleet scenario emits. */
inline void
execFields(BenchJson::Scenario &sc, sys::Fleet &fleet,
           std::uint64_t digest, double wallSec)
{
    const sim::SimExecutor &ex = fleet.executor();
    const std::uint64_t events = fleet.totalEvents();
    BenchJson::field(sc, "events", events);
    BenchJson::fieldF(sc, "wall_sec", wallSec);
    BenchJson::fieldF(sc, "events_per_sec",
                      wallSec > 0 ? static_cast<double>(events) / wallSec
                                  : 0.0);
    BenchJson::field(sc, "shards", ex.shardCount());
    BenchJson::field(sc, "domains", ex.domainCount());
    BenchJson::field(sc, "lookahead_ns",
                     ex.lookahead() == sim::kNever ? 0 : ex.lookahead());
    BenchJson::field(sc, "windows", ex.windows());
    BenchJson::field(sc, "messages", ex.delivered());
    double stall = 0;
    for (unsigned s = 0; s < ex.shardCount(); s++)
        stall += ex.shardStallSec(s);
    BenchJson::fieldF(sc, "barrier_stall_sec", stall);
    BenchJson::field(sc, "beacons", fleet.beacons());
    BenchJson::field(sc, "device_ops", fleet.target().dev.totalOps());
    BenchJson::fieldS(sc, "digest",
                      sim::strf("%016llx",
                                static_cast<unsigned long long>(digest)));
}

/** Per-connection JSON fields from the target's connection table. */
inline void
connFields(BenchJson::Scenario &sc, const fab::FabricTarget &tgt)
{
    for (const auto &[id, info] : tgt.connections()) {
        const std::string p = sim::strf("conn.%u.", id);
        BenchJson::field(sc, p + "tenant", info.tenant);
        BenchJson::field(sc, p + "pasid", info.remotePasid);
        BenchJson::field(sc, p + "reactor", info.reactor);
        BenchJson::field(sc, p + "ops", info.ops);
        BenchJson::field(sc, p + "read_bytes", info.readBytes);
        BenchJson::field(sc, p + "write_bytes", info.writeBytes);
        BenchJson::field(sc, p + "in_capsule_writes",
                         info.inCapsuleWrites);
        BenchJson::field(sc, p + "rdma_writes", info.rdmaWrites);
        BenchJson::field(sc, p + "peak_inflight", info.peakInflight);
    }
}

/**
 * Per-reactor JSON fields ("reactors" + "reactor.N.*") from the
 * target's lane accounting; perf_report renders these as the reactor
 * breakdown table.
 */
inline void
reactorFields(BenchJson::Scenario &sc, const fab::FabricTarget &tgt)
{
    BenchJson::field(sc, "reactors", tgt.reactorCount());
    for (std::uint32_t r = 0; r < tgt.reactorCount(); r++) {
        const fab::FabricTarget::ReactorStats &rs = tgt.reactorStats()[r];
        const std::string p = sim::strf("reactor.%u.", r);
        BenchJson::field(sc, p + "capsules", rs.capsules);
        BenchJson::field(sc, p + "rdma_setups", rs.rdmaSetups);
        BenchJson::field(sc, p + "busy_ns", rs.busyNs);
    }
}

inline std::uint64_t
hashConnections(std::uint64_t h, const fab::FabricTarget &tgt)
{
    for (const auto &[id, info] : tgt.connections()) {
        h = fnv(h, id);
        h = fnv(h, info.tenant);
        h = fnv(h, info.remotePasid);
        h = fnv(h, info.reactor);
        h = fnv(h, info.ops);
        h = fnv(h, info.readBytes);
        h = fnv(h, info.writeBytes);
        h = fnv(h, info.inCapsuleWrites);
        h = fnv(h, info.rdmaWrites);
        h = fnv(h, info.peakInflight);
    }
    return h;
}

/** Fold the per-reactor lane clocks and counters (shard-invariant:
 *  reactors are virtual-time lanes inside the target's one domain). */
inline std::uint64_t
hashReactors(std::uint64_t h, const fab::FabricTarget &tgt)
{
    h = fnv(h, tgt.reactorCount());
    for (std::uint32_t r = 0; r < tgt.reactorCount(); r++) {
        const fab::FabricTarget::ReactorStats &rs = tgt.reactorStats()[r];
        h = fnv(h, rs.capsules);
        h = fnv(h, rs.rdmaSetups);
        h = fnv(h, rs.busyNs);
    }
    return h;
}

inline std::uint64_t
hashFleetClocks(std::uint64_t h, sys::Fleet &fleet)
{
    for (unsigned i = 0; i < fleet.size(); i++) {
        h = fnv(h, fleet.system(i).now());
        h = fnv(h, fleet.system(i).eq.executed());
    }
    h = fnv(h, fleet.controllerDigest());
    h = fnv(h, fleet.beacons());
    return h;
}

} // namespace bpd::bench

#endif // BPD_BENCH_FABRIC_COMMON_HPP
