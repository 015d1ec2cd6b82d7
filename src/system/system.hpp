/**
 * @file
 * Full simulated machine: event queue, frames, IOMMU, Optane-class SSD,
 * ext4, kernel, and the BypassD module wired together. Benches, tests and
 * examples construct one System and drive workloads on it.
 */

#ifndef BPD_SYSTEM_SYSTEM_HPP
#define BPD_SYSTEM_SYSTEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "bypassd/module.hpp"
#include "bypassd/userlib.hpp"
#include "fs/vfs.hpp"
#include "iommu/iommu.hpp"
#include "kern/aio.hpp"
#include "kern/kernel.hpp"
#include "mem/frame_allocator.hpp"
#include "obs/metrics.hpp"
#include "obs/tenant.hpp"
#include "obs/trace.hpp"
#include "qos/qos.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/sim_executor.hpp"
#include "ssd/block_store.hpp"
#include "ssd/device_slot.hpp"
#include "ssd/nvme.hpp"
#include "system/device_map.hpp"

namespace bpd::sys {

struct SystemConfig
{
    /** Per-device-slot capacity; the volume is deviceBytes*maxDevices. */
    std::uint64_t deviceBytes = 64ull << 30;
    DevId devId = 1;         //!< slot i gets devId + i
    std::uint64_t seed = 42; //!< slot i gets seed + i
    /** Device slots in the fleet (1 = classic single-device machine). */
    std::size_t maxDevices = 1;
    /** Slots attached at boot; 0 means all. The rest hot-plug later. */
    std::size_t onlineDevices = 0;
    ssd::SsdProfile ssd = ssd::SsdProfile::optaneP5800X();
    /** Per-slot SSD profile overrides (inject health models). */
    std::map<std::size_t, ssd::SsdProfile> slotSsd;
    /**
     * Health monitor: when on, a device (never slot 0) whose injected
     * media-error count reaches evictAfterMediaErrors is evicted — new
     * commands fail with DeviceEvicted, its FTEs are revoked, tenants
     * fail over. Off by default; healthy-fleet digests are unchanged.
     */
    bool healthMonitor = false;
    std::uint64_t evictAfterMediaErrors = 4;
    iommu::IommuProfile iommu;
    kern::CostModel costs;
    kern::KernelConfig kernel;
    fs::FsConfig fs;
    bypassd::UserLibConfig userlib;
};

class System
{
  public:
    explicit System(SystemConfig cfg = {});
    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Create a process; its PASID is bound in the IOMMU. */
    kern::Process &newProcess(std::uint32_t uid = 1000,
                              std::uint32_t gid = 1000);

    /** Attach (or fetch) the BypassD shim for a process. */
    bypassd::UserLib &userLib(kern::Process &p);

    /**
     * Run the simulation to quiescence. When the system is bound to a
     * sharded executor the whole executor runs — this system's queue
     * plus every peer domain — so closed-loop drivers written against
     * run() work unchanged under an executor.
     */
    void
    run()
    {
        if (exec_)
            exec_->run();
        else
            eq.run();
    }

    /** Run until virtual time @p t. */
    void
    runUntil(Time t)
    {
        sim::panicIf(exec_ != nullptr,
                     "runUntil on an executor-bound system");
        eq.runUntil(t);
    }

    /**
     * Route run() through @p exec, which must own this system's queue
     * as domain @p domainId. Bind only after setup: arming workloads
     * calls run() internally, and an executor run drives every domain.
     */
    void
    bindExecutor(sim::SimExecutor *exec, std::uint32_t domainId)
    {
        exec_ = exec;
        execDomain_ = domainId;
    }

    /** Domain id under the bound executor (meaningful when bound). */
    std::uint32_t executorDomain() const { return execDomain_; }

    Time now() const { return eq.now(); }

    /**
     * Turn on request-scoped tracing at the given verbosity and wire
     * the tracer into every layer (kernel, device, IOMMU, BypassD
     * module, journal). Idempotent; the level is fixed by the first
     * call. Tracing only observes the simulation — same-seed digests
     * are bit-identical with tracing on or off.
     */
    obs::Tracer &enableTracing(obs::Level level = obs::Level::Device);

    /** The active tracer, or nullptr when tracing is off. */
    obs::Tracer *tracer() { return tracer_.get(); }

    /**
     * Turn on per-tenant attribution and wire the counter table into
     * every layer (kernel, device, IOMMU, BypassD module, ext4 +
     * journal, page cache). Idempotent. Accounting only observes the
     * simulation — same-seed digests are bit-identical with it on or
     * off — and collectMetrics() then publishes one sub-registry per
     * tenant whose counters sum exactly to the system totals.
     */
    obs::TenantAccounting &enableTenantAccounting();

    /** Is per-tenant attribution on? */
    bool tenantAccountingEnabled() const { return acctEnabled_; }

    /** The per-tenant counter table (rows appear once enabled). */
    const obs::TenantAccounting &tenantAccounting() const { return acct_; }

    /**
     * Turn on per-tenant QoS and wire the registry into every
     * submission site (kernel deviceIo, UserLib direct path, every
     * fleet device's SQ arbitration and the SPDK drivers on those
     * devices; fabric initiators read it via qos()). Idempotent. A
     * registry with no limits set admits everything without touching
     * state, so enabling QoS alone is digest-neutral;
     * setLimit()/weights then make it bite.
     */
    qos::Registry &enableQos();

    /** The QoS registry, or nullptr when QoS is off. */
    qos::Registry *qos() { return qos_.get(); }
    const qos::Registry *qos() const { return qos_.get(); }

    /**
     * Pull current counters out of every component's stat accessors
     * into the metrics registry (cheap; call before snapshotting).
     */
    void collectMetrics();

    /**
     * Check the attribution invariant: for every accounted counter,
     * the sum over all tenants equals the matching system total
     * bit-exactly (attribution sites are co-located with the aggregate
     * increments, so any divergence is a bug). Device-attributable
     * counters are checked in three directions: tenant sums vs system
     * totals, per-device x per-tenant sums folded over devices vs each
     * tenant's row, and folded over tenants vs each device's hardware
     * counters. Returns an empty string when the invariant holds — or
     * when accounting is off — and a description of the first violated
     * counter otherwise.
     */
    std::string verifyTenantSums();

    /** @name Multi-device fleet */
    ///@{
    /**
     * Evict device slot @p slot (never 0): the device fails new
     * commands with DeviceEvicted (in-flight I/O drains normally), and
     * every file-table cache homed on it is revoked so direct-path
     * tenants fault, re-fmap, get VBA 0 and fall back to the kernel,
     * where I/O to the dead device fails with ENODEV. Idempotent.
     */
    void evictDevice(std::size_t slot);

    bool deviceEvicted(std::size_t slot) const
    {
        return devices.evicted(slot);
    }

    /**
     * Hot-plug the next unattached slot: create its kernel queue, bind
     * every live process' PASID into its IOMMU context (sorted-pid
     * order — deterministic), and open it for placement.
     * @return The attached slot's index.
     */
    std::size_t plugDevice();

    /**
     * DevId of the device a file's data is homed on, or 0 when the
     * file does not resolve or has no pinned placement yet (including
     * every file of a classic single-device system, which never pins).
     * Pure lookup — never pins a home, never perturbs placement.
     */
    DevId deviceOfFile(const std::string &path) const;
    ///@}

    /**
     * Declared first so they outlive every component that holds a
     * tracer pointer or emits from a teardown path.
     */
    obs::MetricsRegistry metrics;

  private:
    /** Lives next to metrics so it outlives every attributing layer. */
    obs::TenantAccounting acct_;
    bool acctEnabled_ = false;

    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<qos::Registry> qos_;

    sim::SimExecutor *exec_ = nullptr; //!< not owned; see bindExecutor
    std::uint32_t execDomain_ = 0;

    /** One pending-eviction latch per slot (health monitor). */
    std::vector<bool> evictPending_;

    static DeviceMapConfig mapCfgOf(const SystemConfig &c);

  public:
    SystemConfig cfg;
    sim::EventQueue eq;
    mem::FrameAllocator frames;
    /** The device fleet (slot 0 is the classic single device). */
    DeviceMap devices;
    /** Slot 0's IOMMU context (legacy single-device accessor). */
    iommu::Iommu &iommu;
    /** The flat volume spanning every slot's store. */
    ssd::BlockStore &store;
    /** Slot 0's device (legacy single-device accessor). */
    ssd::NvmeDevice &dev;
    fs::Ext4Fs ext4;
    fs::Vfs vfs;
    kern::Kernel kernel;
    kern::Aio aio;
    bypassd::BypassdModule module;
};

} // namespace bpd::sys

#endif // BPD_SYSTEM_SYSTEM_HPP
