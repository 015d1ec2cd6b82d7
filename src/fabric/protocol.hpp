/**
 * @file
 * NVMe-oF-style fabric protocol model: capsules, transfer phases and
 * the latency profile shared by FabricTarget and FabricInitiator.
 *
 * The simulated transport mirrors the split real SPDK targets make
 * between in-capsule data and RDMA-read transfers: a write whose
 * payload fits the in-capsule threshold rides inside the command
 * capsule (one fabric traversal carries command + data); a larger
 * write sends a header-only capsule and the target pulls the payload
 * with an RDMA read (an extra round trip plus work-request setup).
 * Reads always return their data in the response capsule, modeling the
 * target-side RDMA write that real transports overlap with the
 * completion.
 *
 * Every fabric message is an executor post() across a declared
 * channel whose minimum latency is oneWayNs — which is exactly why
 * remote clients parallelize under the conservative-window executor:
 * unlike the zero-latency intra-machine completion callback, the fabric
 * hop gives the executor an honest lookahead (DESIGN.md §13).
 */

#ifndef BPD_FABRIC_PROTOCOL_HPP
#define BPD_FABRIC_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace bpd::fab {

/**
 * PASID under which the target claims the device exclusively. All
 * per-connection queue pairs are created with this owner; attribution
 * flows through Command::tenant instead (see FabricTarget).
 */
constexpr Pasid kFabricOwnerPasid = 0xfab0;

/**
 * Remote tenants are numbered kConnTenantBase + connection id, keeping
 * them disjoint from local process PASIDs (small integers) so two
 * clients that happen to share a local PASID stay distinct rows in the
 * target's TenantAccounting. The (connection, remote PASID) binding is
 * recorded per connection and reported by the benches.
 */
constexpr TenantId kConnTenantBase = 0x10000;

/**
 * Device-selector sentinel for FabricInitiator::connect: "use the
 * target profile's serveSlot" (the classic one-device target).
 */
constexpr std::size_t kProfileSlot = ~static_cast<std::size_t>(0);

/** Fabric transport latency/geometry profile. */
struct FabricProfile
{
    /** One-way propagation+switching latency; also the declared
     *  channel minimum (= executor lookahead for fabric scenarios). */
    Time oneWayNs = 5 * kUs;
    /** Link bandwidth (~100 Gb/s RDMA NIC). */
    double bwBytesPerNs = 12.5;
    /** Command/response capsule header bytes (ICD header + SQE). */
    std::uint32_t capsuleBytes = 64;
    /** Writes up to this many bytes ride in the command capsule;
     *  larger ones take the two-phase RDMA-read path (SPDK's default
     *  in-capsule data size). */
    std::uint32_t inCapsuleBytes = 8192;
    /** Admin processing per connect/disconnect capsule; one admin
     *  queue serializes these, so connection storms queue here. */
    Time adminProcessNs = 2 * kUs;
    /** Reactor cost to parse and route one I/O capsule; serialized
     *  across connections (one polling reactor per target). */
    Time targetProcessNs = 300;
    /** Cost to build and post the RDMA-read work request. */
    Time rdmaSetupNs = 600;
    /** Initiator-side submit cost (build capsule, post send). */
    Time initiatorSubmitNs = 150;
    /** Initiator-side completion cost (poll CQ, copy out). */
    Time initiatorCompleteNs = 100;
    /** Per-connection I/O queue depth granted at connect. */
    std::uint32_t queueDepth = 256;
    /**
     * Enforce @ref queueDepth per connection at capsule admission:
     * submissions beyond the depth queue initiator-side (FIFO) and
     * drain as completions free slots — never silently dropped. Off
     * only for the bench self-check (fabric_incast --no-admission),
     * which demonstrates the victim-tail collapse admission prevents;
     * the target then parks device-queue overflow instead of failing.
     */
    bool enforceDepth = true;
    /**
     * Data-path reactors on the target (SPDK runs one reactor per
     * core). Connections map onto reactors deterministically
     * (sys::connReactor in placement.hpp); the admin queue stays
     * single so connection ids — and therefore tenant ids and the
     * conn→reactor mapping — are granted in one serial order
     * regardless of reactor count. 0 is treated as 1.
     */
    std::uint32_t reactors = 1;
    /**
     * Device slot a connection binds to when its connect capsule does
     * not name one (FabricInitiator::connect passes kProfileSlot).
     * The target claims each served slot's device exclusively on first
     * use; connects naming a slot the kernel never attached are
     * answered NoDevice, evicted slots DeviceEvicted (ConnectStatus).
     */
    std::size_t serveSlot = 0;

    /** Fabric traversal time for a capsule carrying @p payloadBytes. */
    Time
    wireNs(std::uint64_t payloadBytes) const
    {
        return oneWayNs
               + static_cast<Time>(
                   static_cast<double>(capsuleBytes + payloadBytes)
                   / bwBytesPerNs);
    }

    /** Raw RDMA data return (no capsule header on the wire). */
    Time
    rdmaDataNs(std::uint64_t bytes) const
    {
        return oneWayNs
               + static_cast<Time>(static_cast<double>(bytes)
                                   / bwBytesPerNs);
    }

    /** Does a write of @p len bytes ride in the command capsule? */
    bool
    inCapsule(std::uint32_t len) const
    {
        return len <= inCapsuleBytes;
    }

    /**
     * Modeled latency a qd-1 remote I/O adds over the same I/O on a
     * local exclusive userspace driver (SpdkDriver with the same
     * SpdkCosts), assuming an idle target reactor and undilated CPUs.
     *
     * Stated bound: measured remote mean latency must equal the local
     * SPDK mean plus this overhead to within max(1 us, 5%) — the
     * residual is per-device media-jitter seeding, since everything
     * else in the path is deterministic. bench/fabric_fio enforces
     * this in its fabric_vs_local scenario.
     */
    Time
    modeledOverheadNs(std::uint32_t len, bool isWrite) const
    {
        const Time ends = initiatorSubmitNs + initiatorCompleteNs
                          + targetProcessNs;
        if (!isWrite)
            return ends + wireNs(0) + wireNs(len);
        if (inCapsule(len))
            return ends + wireNs(len) + wireNs(0);
        return ends + wireNs(0) + rdmaSetupNs + wireNs(0)
               + rdmaDataNs(len) + wireNs(0);
    }
};

/** Connection life cycle at the initiator. */
enum class ConnState : std::uint8_t {
    Idle,       //!< no connection (never connected, or torn down)
    Connecting, //!< connect capsule sent, I/O queues locally
    Connected,  //!< queue pair granted; I/O flows
    Draining,   //!< disconnect requested; in-flight I/O completing
};

const char *toString(ConnState s);

/**
 * Outcome of a connect capsule, carried in the ack. Anything but Ok
 * leaves the initiator Idle with pre-connect-queued I/O failed.
 */
enum class ConnectStatus : std::uint8_t {
    Ok,            //!< queue pair granted; I/O flows
    Refused,       //!< device claim or queue-pair grant failed
    NoDevice,      //!< selector names a slot the kernel never attached
    DeviceEvicted, //!< selector names a health-evicted device
};

const char *toString(ConnectStatus s);

} // namespace bpd::fab

#endif // BPD_FABRIC_PROTOCOL_HPP
