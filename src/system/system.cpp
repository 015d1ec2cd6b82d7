#include "system/system.hpp"

#include <algorithm>

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
        // BypassD module homes FTEs by the same map — one source of
        // truth, so extents never straddle devices. Single-device
        // systems keep the classic allocator bit-identically (null
        // placement).
        ext4.setPlacement([this](const fs::Inode &ino) {
            return devices.blockRange(devices.homeSlotOf(ino.ino));
        });
        module.setHomeSlot([this](const fs::Inode &ino) {
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

std::string
System::verifyTenantSums()
{
    if (!acctEnabled_)
        return {};
    obs::TenantCounters sum;
    acct_.forEach([&](TenantId, const obs::TenantCounters &tc) {
        sum.kernSyscalls += tc.kernSyscalls;
        sum.ssdOps += tc.ssdOps;
        sum.ssdReadBytes += tc.ssdReadBytes;
        sum.ssdWriteBytes += tc.ssdWriteBytes;
        sum.ssdTranslationFaults += tc.ssdTranslationFaults;
        sum.iommuVbaTranslations += tc.iommuVbaTranslations;
        sum.iommuVbaFaults += tc.iommuVbaFaults;
        sum.iommuPageWalkFrames += tc.iommuPageWalkFrames;
        sum.fsJournalRecords += tc.fsJournalRecords;
        sum.fsMetadataOps += tc.fsMetadataOps;
        sum.fsPageCacheHits += tc.fsPageCacheHits;
        sum.fsPageCacheMisses += tc.fsPageCacheMisses;
        sum.bypassdColdFmaps += tc.bypassdColdFmaps;
        sum.bypassdWarmFmaps += tc.bypassdWarmFmaps;
        sum.bypassdRejectedFmaps += tc.bypassdRejectedFmaps;
        sum.bypassdRevokedVictims += tc.bypassdRevokedVictims;
        sum.qosThrottles += tc.qosThrottles;
        sum.qosThrottledBytes += tc.qosThrottledBytes;
    });
    // Fleet totals: the hardware-side counters fold across every slot.
    std::uint64_t devOps = 0, devRead = 0, devWrite = 0, devTf = 0;
    std::uint64_t ioTrans = 0, ioFaults = 0, ioFrames = 0;
    for (std::size_t i = 0; i < devices.size(); i++) {
        const ssd::NvmeDevice &d = devices.slot(i).dev;
        const iommu::Iommu &mmu = devices.slot(i).iommu;
        devOps += d.totalOps();
        devRead += d.readBytes();
        devWrite += d.writeBytes();
        devTf += d.translationFaults();
        ioTrans += mmu.vbaTranslations();
        ioFaults += mmu.vbaFaults();
        ioFrames += mmu.framesRead();
    }
    const std::pair<const char *, std::pair<std::uint64_t,
                                            std::uint64_t>>
        checks[] = {
            {"kern.syscalls", {sum.kernSyscalls, kernel.syscallCount()}},
            {"ssd.ops", {sum.ssdOps, devOps}},
            {"ssd.read_bytes", {sum.ssdReadBytes, devRead}},
            {"ssd.write_bytes", {sum.ssdWriteBytes, devWrite}},
            {"ssd.translation_faults", {sum.ssdTranslationFaults, devTf}},
            {"iommu.vba_translations",
             {sum.iommuVbaTranslations, ioTrans}},
            {"iommu.vba_faults", {sum.iommuVbaFaults, ioFaults}},
            {"iommu.page_walk_frames",
             {sum.iommuPageWalkFrames, ioFrames}},
            {"fs.journal_records",
             {sum.fsJournalRecords, ext4.journal().records()}},
            {"fs.metadata_ops", {sum.fsMetadataOps, ext4.metadataOps()}},
            {"fs.page_cache_hits",
             {sum.fsPageCacheHits, kernel.pageCache().hits()}},
            {"fs.page_cache_misses",
             {sum.fsPageCacheMisses, kernel.pageCache().misses()}},
            {"bypassd.cold_fmaps",
             {sum.bypassdColdFmaps, module.coldFmaps()}},
            {"bypassd.warm_fmaps",
             {sum.bypassdWarmFmaps, module.warmFmaps()}},
            {"bypassd.rejected_fmaps",
             {sum.bypassdRejectedFmaps, module.rejectedFmaps()}},
            {"bypassd.revoked_victims",
             {sum.bypassdRevokedVictims, module.revokedVictims()}},
            // QoS off: both sides are zero, the rows hold trivially.
            {"qos.throttles",
             {sum.qosThrottles, qos_ ? qos_->throttles() : 0}},
            {"qos.throttled_bytes",
             {sum.qosThrottledBytes,
              qos_ ? qos_->throttledBytes() : 0}},
        };
    for (const auto &[name, v] : checks)
        if (v.first != v.second)
            return sim::strf("%s: tenant sum %llu != system total %llu",
                             name,
                             static_cast<unsigned long long>(v.first),
                             static_cast<unsigned long long>(v.second));

    // Directions 2 and 3: the per-device x per-tenant table must fold
    // bit-exactly into (a) each tenant's device-attributable counters
    // and (b) each device's hardware counters.
    std::map<TenantId, obs::DeviceTenantCounters> byTenant;
    std::map<DevId, obs::DeviceTenantCounters> byDev;
    acct_.forEachDevice([&](DevId d, TenantId t,
                            const obs::DeviceTenantCounters &dc) {
        for (obs::DeviceTenantCounters *out : {&byTenant[t], &byDev[d]}) {
            out->ssdOps += dc.ssdOps;
            out->ssdReadBytes += dc.ssdReadBytes;
            out->ssdWriteBytes += dc.ssdWriteBytes;
            out->ssdTranslationFaults += dc.ssdTranslationFaults;
            out->iommuVbaTranslations += dc.iommuVbaTranslations;
            out->iommuVbaFaults += dc.iommuVbaFaults;
            out->iommuPageWalkFrames += dc.iommuPageWalkFrames;
        }
    });
    std::string err;
    auto check7 = [&err](const char *scope, std::uint64_t id,
                         const obs::DeviceTenantCounters &got,
                         std::uint64_t ops, std::uint64_t rd,
                         std::uint64_t wr, std::uint64_t tf,
                         std::uint64_t vt, std::uint64_t vf,
                         std::uint64_t pw) {
        if (!err.empty())
            return;
        const std::pair<const char *, std::pair<std::uint64_t,
                                                std::uint64_t>>
            rows[] = {
                {"ssd.ops", {got.ssdOps, ops}},
                {"ssd.read_bytes", {got.ssdReadBytes, rd}},
                {"ssd.write_bytes", {got.ssdWriteBytes, wr}},
                {"ssd.translation_faults",
                 {got.ssdTranslationFaults, tf}},
                {"iommu.vba_translations",
                 {got.iommuVbaTranslations, vt}},
                {"iommu.vba_faults", {got.iommuVbaFaults, vf}},
                {"iommu.page_walk_frames",
                 {got.iommuPageWalkFrames, pw}},
            };
        for (const auto &[name, v] : rows)
            if (v.first != v.second) {
                err = sim::strf(
                    "%s %llu %s: device-fold %llu != reference %llu",
                    scope, static_cast<unsigned long long>(id), name,
                    static_cast<unsigned long long>(v.first),
                    static_cast<unsigned long long>(v.second));
                return;
            }
    };
    acct_.forEach([&](TenantId t, const obs::TenantCounters &tc) {
        auto it = byTenant.find(t);
        const obs::DeviceTenantCounters zero;
        check7("tenant", t, it == byTenant.end() ? zero : it->second,
               tc.ssdOps, tc.ssdReadBytes, tc.ssdWriteBytes,
               tc.ssdTranslationFaults, tc.iommuVbaTranslations,
               tc.iommuVbaFaults, tc.iommuPageWalkFrames);
    });
    for (std::size_t i = 0; i < devices.size(); i++) {
        const ssd::NvmeDevice &d = devices.slot(i).dev;
        const iommu::Iommu &mmu = devices.slot(i).iommu;
        auto it = byDev.find(d.devId());
        const obs::DeviceTenantCounters zero;
        check7("device", d.devId(),
               it == byDev.end() ? zero : it->second, d.totalOps(),
               d.readBytes(), d.writeBytes(), d.translationFaults(),
               mmu.vbaTranslations(), mmu.vbaFaults(), mmu.framesRead());
    }
    return err;
}

void
System::collectMetrics()
{
    metrics.counter("sim", "events_executed").set(eq.executed());
    metrics.counter("kern", "syscalls").set(kernel.syscallCount());
    // iommu.* and ssd.* totals fold across every fleet slot (identical
    // to the classic single-device values when maxDevices == 1).
    // The IOTLB is left out: it caches DMA IOVAs, and no System path
    // translates one (FTEs are never cached, Section 4.3).
    std::uint64_t ioTrans = 0, ioFaults = 0, ioFrames = 0, wcHit = 0,
                  wcMiss = 0;
    std::uint64_t devOps = 0, devRead = 0, devWrite = 0, devTf = 0,
                  devMediaErrs = 0;
    for (std::size_t i = 0; i < devices.size(); i++) {
        const ssd::NvmeDevice &d = devices.slot(i).dev;
        const iommu::Iommu &mmu = devices.slot(i).iommu;
        ioTrans += mmu.vbaTranslations();
        ioFaults += mmu.vbaFaults();
        ioFrames += mmu.framesRead();
        wcHit += mmu.walkCache().hits();
        wcMiss += mmu.walkCache().misses();
        devOps += d.totalOps();
        devRead += d.readBytes();
        devWrite += d.writeBytes();
        devTf += d.translationFaults();
        devMediaErrs += d.mediaErrors();
    }
    metrics.counter("iommu", "vba_translations").set(ioTrans);
    metrics.counter("iommu", "vba_faults").set(ioFaults);
    metrics.counter("iommu", "page_walk_frames").set(ioFrames);
    metrics.counter("iommu", "walk_cache_hits").set(wcHit);
    metrics.counter("iommu", "walk_cache_misses").set(wcMiss);
    metrics.counter("ssd", "ops").set(devOps);
    metrics.counter("ssd", "read_bytes").set(devRead);
    metrics.counter("ssd", "write_bytes").set(devWrite);
    metrics.counter("ssd", "translation_faults").set(devTf);
    if (devices.size() > 1) {
        metrics.counter("ssd", "media_errors").set(devMediaErrs);
        // Per-device breakdown groups (multi-device fleets only, so
        // classic single-device metric output is unchanged).
        for (std::size_t i = 0; i < devices.size(); i++) {
            const ssd::NvmeDevice &d = devices.slot(i).dev;
            const iommu::Iommu &mmu = devices.slot(i).iommu;
            const std::string g
                = sim::strf("ssd.dev%u", unsigned(d.devId()));
            metrics.counter(g, "ops").set(d.totalOps());
            metrics.counter(g, "read_bytes").set(d.readBytes());
            metrics.counter(g, "write_bytes").set(d.writeBytes());
            metrics.counter(g, "translation_faults")
                .set(d.translationFaults());
            metrics.counter(g, "media_errors").set(d.mediaErrors());
            metrics.counter(g, "evicted").set(d.evicted() ? 1 : 0);
            const std::string gi
                = sim::strf("iommu.dev%u", unsigned(d.devId()));
            metrics.counter(gi, "vba_translations")
                .set(mmu.vbaTranslations());
            metrics.counter(gi, "vba_faults").set(mmu.vbaFaults());
            metrics.counter(gi, "page_walk_frames")
                .set(mmu.framesRead());
        }
    }
    metrics.counter("fs", "journal_commits")
        .set(ext4.journal().committedTxns());
    metrics.counter("fs", "journal_records")
        .set(ext4.journal().records());
    metrics.counter("fs", "metadata_ops").set(ext4.metadataOps());
    metrics.counter("fs", "page_cache_hits")
        .set(kernel.pageCache().hits());
    metrics.counter("fs", "page_cache_misses")
        .set(kernel.pageCache().misses());
    metrics.counter("bypassd", "cold_fmaps").set(module.coldFmaps());
    metrics.counter("bypassd", "warm_fmaps").set(module.warmFmaps());
    metrics.counter("bypassd", "revocations").set(module.revocations());
    metrics.counter("bypassd", "revoked_victims")
        .set(module.revokedVictims());
    metrics.counter("bypassd", "rejected_fmaps")
        .set(module.rejectedFmaps());
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
    // qos.* appears only when QoS is on, so non-QoS configs keep their
    // exact metric key set.
    if (qos_) {
        metrics.counter("qos", "admits").set(qos_->admits());
        metrics.counter("qos", "throttles").set(qos_->throttles());
        metrics.counter("qos", "throttled_bytes")
            .set(qos_->throttledBytes());
    }

    if (!acctEnabled_)
        return;
    // Per-tenant sub-registries. Each key mirrors a system total above
    // and the attribution sites are co-located with the aggregate
    // increments, so sum-over-tenants equals the total bit-exactly.
    acct_.forEach([&](TenantId id, const obs::TenantCounters &tc) {
        obs::MetricsRegistry &m = metrics.tenant(id);
        m.counter("kern", "syscalls").set(tc.kernSyscalls);
        m.counter("ssd", "ops").set(tc.ssdOps);
        m.counter("ssd", "read_bytes").set(tc.ssdReadBytes);
        m.counter("ssd", "write_bytes").set(tc.ssdWriteBytes);
        m.counter("ssd", "translation_faults")
            .set(tc.ssdTranslationFaults);
        m.counter("iommu", "vba_translations")
            .set(tc.iommuVbaTranslations);
        m.counter("iommu", "vba_faults").set(tc.iommuVbaFaults);
        m.counter("iommu", "page_walk_frames")
            .set(tc.iommuPageWalkFrames);
        m.counter("fs", "journal_records").set(tc.fsJournalRecords);
        m.counter("fs", "metadata_ops").set(tc.fsMetadataOps);
        m.counter("fs", "page_cache_hits").set(tc.fsPageCacheHits);
        m.counter("fs", "page_cache_misses").set(tc.fsPageCacheMisses);
        m.counter("bypassd", "cold_fmaps").set(tc.bypassdColdFmaps);
        m.counter("bypassd", "warm_fmaps").set(tc.bypassdWarmFmaps);
        m.counter("bypassd", "rejected_fmaps")
            .set(tc.bypassdRejectedFmaps);
        m.counter("bypassd", "revoked_victims")
            .set(tc.bypassdRevokedVictims);
        if (qos_) {
            m.counter("qos", "throttles").set(tc.qosThrottles);
            m.counter("qos", "throttled_bytes")
                .set(tc.qosThrottledBytes);
        }
    });
    // Per-device x per-tenant breakdown. Published for fleets only so
    // classic single-device tenant output keeps its exact key set.
    if (devices.size() > 1)
        acct_.forEachDevice([&](DevId d, TenantId id,
                                const obs::DeviceTenantCounters &dc) {
        obs::MetricsRegistry &m = metrics.tenant(id);
        const std::string g = sim::strf("ssd.dev%u", unsigned(d));
        m.counter(g, "ops").set(dc.ssdOps);
        m.counter(g, "read_bytes").set(dc.ssdReadBytes);
        m.counter(g, "write_bytes").set(dc.ssdWriteBytes);
        m.counter(g, "translation_faults").set(dc.ssdTranslationFaults);
        const std::string gi = sim::strf("iommu.dev%u", unsigned(d));
        m.counter(gi, "vba_translations").set(dc.iommuVbaTranslations);
        m.counter(gi, "vba_faults").set(dc.iommuVbaFaults);
        m.counter(gi, "page_walk_frames").set(dc.iommuPageWalkFrames);
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
