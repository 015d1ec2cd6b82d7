/**
 * @file
 * Simulated NVMe-oF initiator: the client-machine half of the fabric
 * pair. Lives on a remote System's executor domain, exposes the same
 * read/write(Tid, DevAddr, buf, cb) surface as SpdkDriver so FioRunner
 * can drive a remote device with an unchanged closed loop, and turns
 * each I/O into capsules posted across the declared fabric channel.
 *
 * Connection life cycle (ConnState in protocol.hpp): connect() sends a
 * connect capsule and queues I/O locally until the ack grants a queue
 * pair; disconnect() drains in-flight I/O then releases the remote
 * queue pair; reset() models a hard transport loss — every in-flight
 * I/O fails immediately at the client, a generation counter fences the
 * stale capsules still crossing the wire (both directions), and the
 * target aborts the old connection when the abort capsule lands.
 *
 * Queue-depth admission (FabricProfile::enforceDepth): at most
 * queueDepth I/Os per connection are on the wire or at the target at
 * once. Excess submissions park in a FIFO here and are admitted as
 * completions free slots — never silently dropped, and never reordered
 * against each other. Draining still admits queued I/O (disconnect
 * completes everything); reset fails queued and in-flight I/O alike.
 *
 * Threading discipline mirrors FabricTarget: all methods run on the
 * client's domain; the target reaches back only via exec.post() onto
 * onConnectAck/onRdmaRead/onResponse.
 */

#ifndef BPD_FABRIC_INITIATOR_HPP
#define BPD_FABRIC_INITIATOR_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fabric/protocol.hpp"
#include "kern/kernel.hpp"
#include "sim/stats.hpp"
#include "system/system.hpp"

namespace bpd::fab {

class FabricTarget;

class FabricInitiator
{
  public:
    /**
     * Connect-completion callback. Anything but ConnectStatus::Ok
     * means no connection was established (a reset that races a
     * pending connect reports Refused).
     */
    using ConnectCb = std::function<void(ConnectStatus)>;

    FabricInitiator(sys::System &host, FabricTarget &target);
    ~FabricInitiator();
    FabricInitiator(const FabricInitiator &) = delete;
    FabricInitiator &operator=(const FabricInitiator &) = delete;

    /** Register the executor domain this initiator's System runs on. */
    void bind(sim::SimExecutor &exec, std::uint32_t domain);

    /**
     * Send the connect capsule. @p clientPasid is the client-local
     * process identity reported to the target (recorded per connection;
     * the remote tenant id itself is kConnTenantBase + connection id).
     * @p deviceSlot selects the target-side device slot the connection
     * binds to — kProfileSlot means the target profile's serveSlot.
     * Naming an unattached slot is answered NoDevice, an evicted one
     * DeviceEvicted. Panics unless Idle; I/O submitted while
     * Connecting queues locally and flushes in order on the ack.
     */
    void connect(Pasid clientPasid, ConnectCb cb = {},
                 std::size_t deviceSlot = kProfileSlot);

    /**
     * Graceful teardown: stop accepting new I/O, wait for in-flight
     * completions, then release the remote queue pair. @p cb fires once
     * the state is back to Idle (reconnecting is then legal).
     */
    void disconnect(std::function<void()> cb = {});

    /**
     * Hard transport reset. All in-flight and queued I/O fails with
     * -Inval at the current virtual time; responses still on the wire
     * are dropped by the generation fence; the target learns via an
     * abort capsule and tears the old connection down. State returns to
     * Idle immediately — a new connect() may race the abort safely.
     */
    void reset();

    /** @name SpdkDriver-shaped data path (FioRunner engine surface) */
    ///@{
    void read(Tid tid, DevAddr addr, std::span<std::uint8_t> buf,
              kern::IoCb cb);
    void write(Tid tid, DevAddr addr, std::span<const std::uint8_t> buf,
               kern::IoCb cb);
    ///@}

    ConnState state() const { return state_; }
    bool connected() const { return state_ == ConnState::Connected; }
    FabricTarget &target() { return target_; }
    std::uint32_t domain() const { return domain_; }
    /** Connection id granted by the target (0 before first ack). */
    std::uint32_t connId() const { return connId_; }
    /** Device slot the last connect() named (after kProfileSlot
     *  resolution against the target profile). */
    std::size_t deviceSlot() const { return slot_; }
    /** Remote tenant this connection's I/O is attributed to. */
    TenantId remoteTenant() const { return tenant_; }
    /** I/Os submitted but not yet completed or failed. */
    std::uint64_t pendingIos() const { return pending_.size(); }
    /** Admitted I/Os currently holding depth slots (≤ queueDepth). */
    std::uint32_t inflight() const { return inflight_; }
    /** Submissions waiting initiator-side for a depth slot. */
    std::uint64_t depthQueued() const { return depthQueue_.size(); }
    const FabricProfile &profile() const { return prof_; }

    /** Client-side connection statistics. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t inCapsuleWrites = 0;
        std::uint64_t rdmaWrites = 0;
        std::uint64_t readBytes = 0;
        std::uint64_t writeBytes = 0;
        std::uint64_t queuedBeforeConnect = 0;
        std::uint64_t queuedOnDepth = 0; //!< held back by admission
        std::uint32_t maxInflight = 0;   //!< peak admitted, ≤ queueDepth
        std::uint64_t rejected = 0;   //!< I/O refused while Idle/Draining
        std::uint64_t resets = 0;
        std::uint64_t staleDrops = 0; //!< responses fenced by a reset
        Time connectLatencyNs = 0;    //!< last connect round trip
        sim::Histogram latency;       //!< per-I/O client-observed ns
    };

    const Stats &stats() const { return stats_; }

    /** @name Target-posted entry points (client-domain only) */
    ///@{
    void onConnectAck(std::uint32_t gen, ConnectStatus st,
                      std::uint32_t connId, TenantId tenant);
    /** Target pulls the payload of command @p cid (two-phase write). */
    void onRdmaRead(std::uint32_t gen, std::uint64_t cid);
    /** @p st is the device completion status; DeviceEvicted surfaces
     *  at the caller as -ENODEV, any other failure as -EINVAL. */
    void onResponse(std::uint32_t gen, std::uint64_t cid, ssd::Status st,
                    Time deviceNs,
                    std::shared_ptr<std::vector<std::uint8_t>> data);
    ///@}

  private:
    struct PendingIo
    {
        ssd::Op op = ssd::Op::Read;
        DevAddr addr = 0;
        std::span<std::uint8_t> buf;
        kern::Request req;
        Time start = 0;
        Tid tid = 0;
        bool inCapsule = false;
        bool admitted = false; //!< holds one of the queueDepth slots
    };

    void doIo(Tid tid, ssd::Op op, DevAddr addr,
              std::span<std::uint8_t> buf, kern::IoCb cb);
    /**
     * QoS gate in front of admit(): charges the connection tenant's
     * token buckets on the client host's registry, parking over-limit
     * cids until refill. Called only where an I/O first becomes
     * eligible (doIo while Connected, the post-ack flush) — depth-queue
     * readmissions go straight to admit() so an I/O is never charged
     * twice. Park resumes are generation-fenced: a reset fails the
     * pending I/O and the late resume is a no-op.
     */
    void gateAndAdmit(std::uint64_t cid);
    void admit(std::uint64_t cid);
    void drainDepthQueue();
    void sendCapsule(std::uint64_t cid);
    void failIo(std::uint64_t cid, Time when);
    void finishIo(std::uint64_t cid, ssd::Status st, Time deviceNs,
                  const std::shared_ptr<std::vector<std::uint8_t>> &data);
    void scheduleDrainPoll();

    sys::System &host_;
    FabricTarget &target_;
    FabricProfile prof_; //!< copied from the target at construction
    sim::SimExecutor *exec_ = nullptr;
    std::uint32_t domain_ = 0;
    ConnState state_ = ConnState::Idle;
    /** Bumped by every reset; fences stale wire traffic both ways. */
    std::uint32_t gen_ = 0;
    std::uint32_t connId_ = 0;
    std::size_t slot_ = 0; //!< resolved device slot of the last connect
    TenantId tenant_ = kSystemTenant;
    Pasid pasid_ = kNoPasid;
    Time connectSentAt_ = 0;
    ConnectCb connectCb_;
    std::function<void()> disconnectCb_;
    std::uint64_t nextCid_ = 1;
    std::map<std::uint64_t, PendingIo> pending_;
    std::vector<std::uint64_t> preConnectQueue_; //!< cids, issue order
    /** Submissions over queueDepth, FIFO; admitted as slots free up. */
    std::deque<std::uint64_t> depthQueue_;
    std::uint32_t inflight_ = 0; //!< admitted I/Os holding depth slots
    Stats stats_;

    /** Cancels queued drain polls if the initiator dies first. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace bpd::fab

#endif // BPD_FABRIC_INITIATOR_HPP
