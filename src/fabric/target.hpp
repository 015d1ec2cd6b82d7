/**
 * @file
 * Simulated NVMe-oF target: claims a System's devices over the
 * SpdkDriver-style exclusive path and serves them to remote initiators
 * over executor channels. Each connect capsule names a device slot
 * (FabricProfile::serveSlot when the initiator passes kProfileSlot) —
 * the namespace-selection analogue — and the connection's queue pair
 * lives on that slot's device. Devices are claimed lazily on first
 * use, so a hot-plugged slot becomes servable without restarting the
 * target.
 *
 * Each accepted connection gets its own I/O queue pair, created under
 * the target's owner PASID (the exclusive claim refuses any other
 * owner); every command the target submits on a connection's behalf
 * carries Command::tenant = the connection's bound tenant, so the
 * device's attribution sites — co-located with the aggregate
 * counters — fold remote traffic into TenantAccounting bit-exactly
 * (System::verifyTenantSums holds on the target with remote-only
 * traffic).
 *
 * A single admin queue serializes connect/disconnect processing
 * (connection storms queue behind adminProcessNs each); the data path
 * runs FabricProfile::reactors polling reactors, each a virtual-time
 * busy-clock lane inside this one executor domain, mirroring SPDK's
 * reactor-per-core target. Connections map onto reactors by
 * sys::connReactor(connId, reactors) — deterministic because the
 * single admin queue grants connection ids in one serial order.
 * Device submit/reap costs reuse SpdkCosts so a remote I/O is
 * structurally "local SPDK plus fabric". When a connection's device
 * queue fills (possible only with admission disabled), the overflow
 * parks per connection and retries as reaps free slots — never a
 * panic, never a drop.
 *
 * Threading discipline: every method below other than the accessors
 * runs on the target's executor domain — initiators reach them only
 * via exec.post() lambdas — and the target touches initiator state
 * only by posting back. Shared-nothing, so shard placement cannot
 * change behavior.
 */

#ifndef BPD_FABRIC_TARGET_HPP
#define BPD_FABRIC_TARGET_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "fabric/protocol.hpp"
#include "spdk/spdk.hpp"
#include "ssd/nvme.hpp"
#include "system/placement.hpp"
#include "system/system.hpp"

namespace bpd::fab {

class FabricInitiator;

class FabricTarget
{
  public:
    explicit FabricTarget(sys::System &target, FabricProfile profile = {},
                          spdk::SpdkCosts costs = {});
    ~FabricTarget();
    FabricTarget(const FabricTarget &) = delete;
    FabricTarget &operator=(const FabricTarget &) = delete;

    /** Register the executor domain this target's System runs on. */
    void bind(sim::SimExecutor &exec, std::uint32_t domain);

    /**
     * Claim the profile's serveSlot device and start the polling
     * reactors (occupies reactorCount() CPUs on the target machine).
     * Other slots' devices are claimed lazily when a connect first
     * names them.
     * @retval false when another owner already claimed the device.
     */
    bool serve();

    std::uint32_t domain() const { return domain_; }
    sys::System &system() { return sys_; }
    const FabricProfile &profile() const { return prof_; }

    /** Target-side view of one connection (live or torn down). */
    struct ConnInfo
    {
        Pasid remotePasid = 0;  //!< client-local PASID from connect
        TenantId tenant = 0;    //!< kConnTenantBase + connection id
        std::uint32_t reactor = 0; //!< sys::connReactor(id, reactors)
        std::size_t slot = 0;      //!< device slot the connect named
        DevId dev = 0;             //!< that slot's DevId
        Time connectedAt = 0;
        bool open = false;
        std::uint64_t ops = 0;
        std::uint64_t readBytes = 0;
        std::uint64_t writeBytes = 0;
        std::uint64_t inCapsuleWrites = 0;
        std::uint64_t rdmaWrites = 0;
        std::uint32_t peakInflight = 0; //!< max device I/Os at once
    };

    /** Per-reactor data-path accounting (virtual-time lanes). */
    struct ReactorStats
    {
        std::uint64_t capsules = 0;   //!< I/O capsules parsed here
        std::uint64_t rdmaSetups = 0; //!< RDMA-read WRs built here
        Time busyNs = 0;              //!< lane busy time accumulated
    };

    /** Connections by id, in accept order (stats survive teardown). */
    const std::map<std::uint32_t, ConnInfo> &connections() const
    {
        return info_;
    }

    /** @name Aggregate target statistics */
    ///@{
    std::uint64_t accepts() const { return accepts_; }
    std::uint64_t disconnects() const { return disconnects_; }
    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t capsules() const { return capsules_; }
    std::uint64_t rdmaTransfers() const { return rdmaTransfers_; }
    std::uint64_t staleCapsules() const { return staleCapsules_; }
    std::uint64_t pendingIos() const { return pendingIos_; }
    /** Device-queue overflows parked (nonzero only with admission
     *  disabled — the bench self-check exercises this path). */
    std::uint64_t overflowParks() const { return overflowParks_; }
    ///@}

    /** Data-path reactor count (profile, with 0 treated as 1). */
    std::uint32_t reactorCount() const
    {
        return prof_.reactors ? prof_.reactors : 1;
    }

    /** Per-reactor accounting, indexed by reactor id. */
    const std::vector<ReactorStats> &reactorStats() const
    {
        return reactorStats_;
    }

    /** @name Fabric RPCs (target-domain entry points)
     * Invoked by initiator-posted lambdas; never call directly from
     * another domain's event. @p gen is the initiator's generation at
     * send time — a mismatch against the connection's bound generation
     * means the capsule raced a reset and is dropped.
     */
    ///@{
    void rpcConnect(FabricInitiator *ini, std::uint32_t gen,
                    Pasid clientPasid, std::uint32_t clientDomain,
                    std::size_t slot);
    void rpcDisconnect(std::uint32_t connId, std::uint32_t gen);
    void rpcAbort(std::uint32_t connId, std::uint32_t gen);
    void rpcIo(std::uint32_t connId, std::uint32_t gen,
               std::uint64_t cid, ssd::Op op, DevAddr addr,
               std::uint32_t len,
               std::shared_ptr<std::vector<std::uint8_t>> payload);
    void rpcRdmaData(std::uint32_t connId, std::uint32_t gen,
                     std::uint64_t cid,
                     std::shared_ptr<std::vector<std::uint8_t>> payload);
    ///@}

  private:
    /** A write parked at the target while its RDMA read is in flight. */
    struct PendingXfer
    {
        DevAddr addr = 0;
        std::uint32_t len = 0;
        Time capsuleAt = 0; //!< capsule arrival (span start)
    };

    /** A ready-to-submit command parked on device-queue overflow. */
    struct ParkedIo
    {
        std::uint64_t cid = 0;
        ssd::Op op = ssd::Op::Read;
        DevAddr addr = 0;
        std::uint32_t len = 0;
        std::shared_ptr<std::vector<std::uint8_t>> buf;
        Time capsuleAt = 0;
        obs::TraceId trace = 0;
    };

    struct Conn
    {
        std::uint32_t id = 0;
        std::uint32_t gen = 0; //!< initiator generation at connect
        FabricInitiator *ini = nullptr;
        std::uint32_t clientDomain = 0;
        std::uint32_t reactor = 0; //!< data-path lane, fixed at accept
        std::size_t slot = 0;      //!< device slot this conn serves
        ssd::NvmeDevice *dev = nullptr; //!< that slot's device
        bool open = false;
        ssd::QueuePair *qp = nullptr;
        std::map<std::uint64_t, PendingXfer> xfers;
        std::uint32_t inflight = 0; //!< pending at target (incl. parked)
        std::uint32_t devInflight = 0; //!< on the device, not yet reaped
        /** Overflow FIFO; each reap retries the front (see execIo). */
        std::deque<ParkedIo> parked;
    };

    Conn *conn(std::uint32_t connId, std::uint32_t gen);
    /** NoDevice/DeviceEvicted/Refused check + lazy exclusive claim. */
    ConnectStatus admitSlot(std::size_t slot);
    void finishConnect(FabricInitiator *ini, std::uint32_t gen,
                       Pasid clientPasid, std::uint32_t clientDomain,
                       std::size_t slot, Time capsuleAt);
    void execIo(std::uint32_t connId, std::uint64_t cid, ssd::Op op,
                DevAddr addr, std::uint32_t len,
                std::shared_ptr<std::vector<std::uint8_t>> payload,
                Time capsuleAt);
    bool submitIo(Conn *cp, const ParkedIo &io);
    void retryParked(Conn *cp);
    void beginTeardown(std::uint32_t connId);
    void teardownPoll(std::uint32_t connId);

    sys::System &sys_;
    FabricProfile prof_;
    spdk::SpdkCosts costs_;
    sim::SimExecutor *exec_ = nullptr;
    std::uint32_t domain_ = 0;
    bool serving_ = false;
    Time adminFreeAt_ = 0; //!< admin queue busy until
    /** Per-reactor busy-until clocks, indexed by reactor id. */
    std::vector<Time> ioFreeAt_;
    std::vector<ReactorStats> reactorStats_;
    std::uint32_t nextConnId_ = 1;
    /** Slots whose device this target claimed (released at teardown). */
    std::vector<std::size_t> claimedSlots_;
    std::map<std::uint32_t, std::unique_ptr<Conn>> conns_;
    std::map<std::uint32_t, ConnInfo> info_;

    std::uint64_t accepts_ = 0;
    std::uint64_t disconnects_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t capsules_ = 0;
    std::uint64_t rdmaTransfers_ = 0;
    std::uint64_t staleCapsules_ = 0;
    std::uint64_t pendingIos_ = 0;
    std::uint64_t overflowParks_ = 0;

    /** Cancels queued teardown polls if the target dies first. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace bpd::fab

#endif // BPD_FABRIC_TARGET_HPP
