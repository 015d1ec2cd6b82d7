#include "system/system.hpp"

#include <algorithm>
#include <string_view>

#include "sim/logging.hpp"

namespace bpd::sys {

DeviceMapConfig
System::mapCfgOf(const SystemConfig &c)
{
    DeviceMapConfig m;
    m.slotBytes = c.deviceBytes;
    m.maxDevices = std::max<std::size_t>(c.maxDevices, 1);
    m.onlineDevices = c.onlineDevices == 0
                          ? m.maxDevices
                          : std::min(c.onlineDevices, m.maxDevices);
    m.devIdBase = c.devId;
    m.seedBase = c.seed;
    m.ssd = c.ssd;
    m.iommu = c.iommu;
    m.slotSsd = c.slotSsd;
    return m;
}

System::System(SystemConfig config)
    : cfg(config),
      devices(eq, mapCfgOf(cfg)),
      iommu(devices.slot(0).iommu),
      store(devices.volume()),
      dev(devices.slot(0).dev),
      ext4(store, cfg.fs, &eq),
      vfs(ext4),
      kernel(eq, frames, iommu, vfs, dev, cfg.costs, cfg.kernel),
      aio(kernel),
      module(kernel)
{
    evictPending_.assign(devices.size(), false);
    // Slot 0 is the constructor-wired classic device; attach the other
    // boot-online slots to the kernel's routing table.
    const std::size_t online = cfg.onlineDevices == 0
                                   ? devices.size()
                                   : std::min<std::size_t>(
                                         cfg.onlineDevices,
                                         devices.size());
    for (std::size_t i = 1; i < online; i++)
        kernel.attachSlot(devices.slot(i).dev, devices.slot(i).iommu,
                          devices.slotBase(i));
    if (devices.size() > 1) {
        // Per-inode home-device placement: the file system allocates an
        // inode's blocks inside its home slot's block range, and the
        // kernel homes fsync flushes and BypassD FTEs by the same map —
        // one source of truth, so extents never straddle devices.
        // Single-device systems keep the classic allocator
        // bit-identically (null placement).
        ext4.setPlacement([this](const fs::Inode &ino) {
            return devices.blockRange(devices.homeSlotOf(ino.ino));
        });
        kernel.setHomeSlot([this](const fs::Inode &ino) {
            return devices.homeSlotOf(ino.ino);
        });
    }
    if (cfg.healthMonitor) {
        // The hook fires at media-error completion time; eviction is
        // deferred one event so revocation never runs inside the
        // device's completion path. Slot 0 is never monitored: it
        // holds the file-system metadata and cannot be evicted.
        for (std::size_t i = 1; i < devices.size(); i++) {
            devices.slot(i).dev.setHealthHook(
                [this, i](std::uint64_t errors) {
                    if (errors < cfg.evictAfterMediaErrors
                        || evictPending_[i])
                        return;
                    evictPending_[i] = true;
                    eq.after(0, [this, i]() { evictDevice(i); });
                });
        }
    }
}

void
System::evictDevice(std::size_t slot)
{
    sim::panicIf(slot == 0, "slot 0 (metadata home) cannot be evicted");
    sim::panicIf(slot >= devices.size(),
                 "evictDevice: slot out of range");
    if (devices.evicted(slot))
        return;
    devices.slot(slot).dev.setEvicted(true);
    module.revokeSlot(slot);
}

std::size_t
System::plugDevice()
{
    const std::size_t next = kernel.slotCount();
    sim::panicIf(next >= devices.size(),
                 "plugDevice: no unattached slot left");
    kernel.attachSlot(devices.slot(next).dev, devices.slot(next).iommu,
                      devices.slotBase(next));
    devices.setPresent(next, true);
    return next;
}

DevId
System::deviceOfFile(const std::string &path) const
{
    InodeNum ino = 0;
    if (ext4.resolve(path, &ino) != fs::FsStatus::Ok)
        return 0;
    auto it = devices.homes().find(ino);
    if (it == devices.homes().end())
        return 0;
    return devices.slot(it->second).dev.devId();
}

System::~System()
{
    // Members destroy in reverse declaration order, so `module` is
    // gone by the time `kernel` drops its processes — and with them
    // any UserLib whose destructor unwinds user queues through the
    // module. Detach the shims here while every layer is still alive.
    kernel.forEachProcess(
        [](kern::Process &p) { p.userLibOwner.reset(); });
}

kern::Process &
System::newProcess(std::uint32_t uid, std::uint32_t gid)
{
    kern::Process &p = kernel.createProcess(fs::Credentials{uid, gid});
    if (tracer_) {
        obs::ReplayRec r;
        r.op = obs::ReplayRec::NewProcess;
        r.proc = p.pasid();
        r.aux = (static_cast<std::uint64_t>(uid) << 32) | gid;
        tracer_->replayMark(r, p.pasid());
    }
    return p;
}

obs::Tracer &
System::enableTracing(obs::Level level)
{
    if (tracer_)
        return *tracer_;
    tracer_ = std::make_unique<obs::Tracer>(eq, level, &metrics);
    obs::Tracer *t = tracer_.get();
    kernel.setTracer(t);
    // Wire every fleet slot (including not-yet-plugged ones, so
    // hot-plug needs no re-wiring).
    for (std::size_t i = 0; i < devices.size(); i++) {
        devices.slot(i).dev.setTracer(t);
        devices.slot(i).iommu.setTracer(t);
    }
    module.setTracer(t);
    // Journal commits show up as instants on their own "fs" track.
    const std::uint16_t fsTrack = t->track("fs");
    ext4.journal().setCommitObserver([t, fsTrack](std::size_t records) {
        if (t->wants(obs::Level::Layers))
            t->instant(fsTrack, "journal.commit", 0,
                       {{"records",
                         static_cast<std::int64_t>(records)}});
    });
    return *tracer_;
}

obs::TenantAccounting &
System::enableTenantAccounting()
{
    if (acctEnabled_)
        return acct_;
    acctEnabled_ = true;
    kernel.setTenantAccounting(&acct_);
    for (std::size_t i = 0; i < devices.size(); i++) {
        devices.slot(i).dev.setTenantAccounting(&acct_);
        devices.slot(i).iommu.setTenantAccounting(&acct_);
    }
    module.setTenantAccounting(&acct_);
    // The kernel names the tenant it is executing filesystem code for;
    // ext4/journal/page-cache read that slot at their attribution sites.
    const TenantId *active = kernel.activeTenantPtr();
    ext4.setTenantAccounting(&acct_, active);
    kernel.pageCache().setTenantAccounting(&acct_, active);
    // Either enable order works: a QoS registry enabled earlier starts
    // attributing throttles now.
    if (qos_)
        qos_->setAccounting(&acct_);
    return acct_;
}

qos::Registry &
System::enableQos()
{
    if (qos_)
        return *qos_;
    qos_ = std::make_unique<qos::Registry>(eq);
    kernel.setQos(qos_.get());
    // Wire every fleet slot (including not-yet-plugged ones, so
    // hot-plug needs no re-wiring).
    for (std::size_t i = 0; i < devices.size(); i++)
        devices.slot(i).dev.setQos(qos_.get());
    if (acctEnabled_)
        qos_->setAccounting(&acct_);
    return *qos_;
}

obs::TenantCounters
System::counterTotals(std::optional<std::size_t> slot)
{
    obs::TenantCounters t;
    const std::size_t end = slot ? *slot + 1 : devices.size();
    for (std::size_t i = slot.value_or(0); i < end; i++) {
        const ssd::NvmeDevice &d = devices.slot(i).dev;
        const iommu::Iommu &mmu = devices.slot(i).iommu;
        t.ssdOps += d.totalOps();
        t.ssdReadBytes += d.readBytes();
        t.ssdWriteBytes += d.writeBytes();
        t.ssdTranslationFaults += d.translationFaults();
        t.iommuVbaTranslations += mmu.vbaTranslations();
        t.iommuVbaFaults += mmu.vbaFaults();
        t.iommuPageWalkFrames += mmu.framesRead();
    }
    if (slot)
        return t;
    t.kernSyscalls = kernel.syscallCount();
    t.fsJournalRecords = ext4.journal().records();
    t.fsMetadataOps = ext4.metadataOps();
    t.fsPageCacheHits = kernel.pageCache().hits();
    t.fsPageCacheMisses = kernel.pageCache().misses();
    t.bypassdColdFmaps = module.coldFmaps();
    t.bypassdWarmFmaps = module.warmFmaps();
    t.bypassdRejectedFmaps = module.rejectedFmaps();
    t.bypassdRevokedVictims = module.revokedVictims();
    if (qos_) {
        t.qosThrottles = qos_->throttles();
        t.qosThrottledBytes = qos_->throttledBytes();
    }
    return t;
}

std::string
System::verifyTenantSums()
{
    if (!acctEnabled_)
        return {};
    std::string err;
    auto check = [&err](const std::string &scope,
                        const obs::TenantCounters &sum,
                        const obs::TenantCounters &total) {
        obs::forEachTenantKey([&](const char *group, const char *name,
                                  bool, auto m) {
            if (err.empty() && sum.*m != total.*m)
                err = sim::strf(
                    "%s.%s: tenant sum %llu != %s total %llu", group,
                    name, static_cast<unsigned long long>(sum.*m),
                    scope.c_str(),
                    static_cast<unsigned long long>(total.*m));
        });
    };
    // Every row against the system totals, then each slot's rows
    // against its own device (whose device-less keys are all zero, so
    // a device-less charge booked on a device row shows too).
    obs::TenantCounters all;
    acct_.forEachRow([&all](DevId, TenantId,
                            const obs::TenantCounters &row) {
        all += row;
    });
    check("system", all, counterTotals());
    for (std::size_t i = 0; i < devices.size(); i++) {
        const DevId d = devices.slot(i).dev.devId();
        check(sim::strf("device %u", unsigned(d)), acct_.device(d),
              counterTotals(i));
    }
    return err;
}

void
System::collectMetrics()
{
    // Every accounted key of @p c into @p m: under its own group for
    // kNoDevice (qos.* only when QoS is on, so non-QoS configs keep
    // their exact key set), else the ssd/iommu keys under
    // ssd.devN/iommu.devN for device @p d.
    auto publish = [this](obs::MetricsRegistry &m, DevId d,
                          const obs::TenantCounters &c) {
        obs::forEachTenantKey([&](const char *group, const char *name,
                                  bool perDevice, auto f) {
            if (d != obs::kNoDevice) {
                if (perDevice)
                    m.counter(sim::strf("%s.dev%u", group, unsigned(d)),
                              name)
                        .set(c.*f);
            } else if (qos_ || std::string_view(group) != "qos") {
                m.counter(group, name).set(c.*f);
            }
        });
    };
    metrics.counter("sim", "events_executed").set(eq.executed());
    // The accounted keys' totals; iommu.* and ssd.* fold across every
    // fleet slot (identical to the classic single-device values when
    // maxDevices == 1).
    publish(metrics, obs::kNoDevice, counterTotals());
    // The walk cache is the IOMMU's one cache: FTEs are never cached
    // (Section 4.3), and no System path models DMA IOVA translation.
    std::uint64_t wcHit = 0, wcMiss = 0, devMediaErrs = 0;
    for (std::size_t i = 0; i < devices.size(); i++) {
        wcHit += devices.slot(i).iommu.walkCache().hits();
        wcMiss += devices.slot(i).iommu.walkCache().misses();
        devMediaErrs += devices.slot(i).dev.mediaErrors();
    }
    metrics.counter("iommu", "walk_cache_hits").set(wcHit);
    metrics.counter("iommu", "walk_cache_misses").set(wcMiss);
    if (devices.size() > 1) {
        metrics.counter("ssd", "media_errors").set(devMediaErrs);
        // Per-device breakdown groups (multi-device fleets only, so
        // classic single-device metric output is unchanged).
        for (std::size_t i = 0; i < devices.size(); i++) {
            const ssd::NvmeDevice &d = devices.slot(i).dev;
            publish(metrics, d.devId(), counterTotals(i));
            const std::string g
                = sim::strf("ssd.dev%u", unsigned(d.devId()));
            metrics.counter(g, "media_errors").set(d.mediaErrors());
            metrics.counter(g, "evicted").set(d.evicted() ? 1 : 0);
        }
    }
    metrics.counter("fs", "journal_commits")
        .set(ext4.journal().committedTxns());
    metrics.counter("bypassd", "revocations").set(module.revocations());
    std::uint64_t directReads = 0, directWrites = 0, fallbacks = 0,
                  iommuFaults = 0;
    kernel.forEachProcess([&](kern::Process &p) {
        if (!p.userLib)
            return;
        directReads += p.userLib->directReads();
        directWrites += p.userLib->directWrites();
        fallbacks += p.userLib->kernelFallbackOps();
        iommuFaults += p.userLib->iommuFaults();
    });
    metrics.counter("bypassd", "direct_reads").set(directReads);
    metrics.counter("bypassd", "direct_writes").set(directWrites);
    metrics.counter("bypassd", "kernel_fallback_ops").set(fallbacks);
    metrics.counter("bypassd", "iommu_faults").set(iommuFaults);
    metrics.gauge("ssd", "resident_bytes")
        .set(static_cast<double>(store.residentBytes()));
    metrics.gauge("sim", "now_ns").set(static_cast<double>(eq.now()));
    if (qos_)
        metrics.counter("qos", "admits").set(qos_->admits());

    if (!acctEnabled_)
        return;
    // Per-tenant sub-registries, each key a fold of the tenant's rows;
    // the per-device x per-tenant groups are published for fleets only
    // so classic single-device tenant output keeps its exact key set.
    acct_.forEach([&](TenantId id, const obs::TenantCounters &tc) {
        publish(metrics.tenant(id), obs::kNoDevice, tc);
    });
    if (devices.size() > 1)
        acct_.forEachRow([&](DevId d, TenantId id,
                             const obs::TenantCounters &row) {
            if (d != obs::kNoDevice)
                publish(metrics.tenant(id), d, row);
        });
    // UserLib stats are already tracked per process; a process is a
    // tenant, so publish them straight into its sub-registry.
    kernel.forEachProcess([&](kern::Process &p) {
        if (!p.userLib)
            return;
        obs::MetricsRegistry &m = metrics.tenant(p.pasid());
        m.counter("bypassd", "direct_reads")
            .set(p.userLib->directReads());
        m.counter("bypassd", "direct_writes")
            .set(p.userLib->directWrites());
        m.counter("bypassd", "kernel_fallback_ops")
            .set(p.userLib->kernelFallbackOps());
        m.counter("bypassd", "iommu_faults")
            .set(p.userLib->iommuFaults());
    });
}

bypassd::UserLib &
System::userLib(kern::Process &p)
{
    if (p.userLib)
        return *p.userLib;
    // The process owns its shim: teardown happens with the process,
    // before its address space (see Process::userLibOwner).
    auto lib = std::make_shared<bypassd::UserLib>(kernel, module, p,
                                                  cfg.userlib);
    bypassd::UserLib *raw = lib.get();
    p.userLibOwner = std::move(lib);
    return *raw;
}

} // namespace bpd::sys
