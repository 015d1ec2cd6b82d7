/**
 * @file
 * Per-tenant attribution: a tenant is a process address space (the id
 * equals the process PASID; tenant 0 is the system/kernel catch-all).
 *
 * Components hold a `TenantAccounting *` that is null until the System
 * enables tenant accounting, so the disabled path is a single pointer
 * test with zero allocations (asserted by test_obs_alloc). Accounting
 * never schedules events, draws randomness, or changes control flow:
 * enabling it is digest-neutral by construction (asserted by tests and
 * by the CI traced-vs-untraced gate, which runs with it enabled).
 *
 * The sum invariant: every per-tenant counter is incremented at the
 * same program point as the pre-existing system-total counter it
 * shadows, so for each exported key, sum over tenants == system total,
 * bit-exactly. Shared-structure stats (the walk cache) deliberately
 * stay system-only: a hit caused by one tenant's fill serving another
 * has no honest single owner.
 *
 * Header-only on purpose: bpd_fs / bpd_ssd / bpd_iommu do not link
 * bpd_obs, but all of them attribute work to tenants.
 */

#ifndef BPD_OBS_TENANT_HPP
#define BPD_OBS_TENANT_HPP

#include <cstdint>
#include <map>

#include "common/types.hpp"

namespace bpd::obs {

/** One tenant's slice of every attributable system counter. */
struct TenantCounters
{
    // kern
    std::uint64_t kernSyscalls = 0;

    // ssd (per-command, at the device dispatcher)
    std::uint64_t ssdOps = 0;
    std::uint64_t ssdReadBytes = 0;
    std::uint64_t ssdWriteBytes = 0;
    std::uint64_t ssdTranslationFaults = 0;

    // iommu (per-PASID translate/fault/walk paths)
    std::uint64_t iommuVbaTranslations = 0;
    std::uint64_t iommuVbaFaults = 0;
    std::uint64_t iommuPageWalkFrames = 0;

    // fs (journal, metadata and page cache, scoped by the kernel)
    std::uint64_t fsJournalRecords = 0;
    std::uint64_t fsMetadataOps = 0;
    std::uint64_t fsPageCacheHits = 0;
    std::uint64_t fsPageCacheMisses = 0;

    // bypassd module (fmap / revocation bookkeeping)
    std::uint64_t bypassdColdFmaps = 0;
    std::uint64_t bypassdWarmFmaps = 0;
    std::uint64_t bypassdRejectedFmaps = 0;
    std::uint64_t bypassdRevokedVictims = 0;

    // qos (token-bucket throttles at the submission sites; global only
    // — QoS gates before device routing, so there is no device axis)
    std::uint64_t qosThrottles = 0;
    std::uint64_t qosThrottledBytes = 0;
};

/**
 * One (device, tenant) slice of the device-attributable counters.
 * Only the ssd and iommu keys have a per-device axis: those layers
 * act on behalf of exactly one device per operation. fs/kern/bypassd
 * counters stay device-less (a journal record or fmap is not "on" a
 * device in any honest sense — placement decides later).
 */
struct DeviceTenantCounters
{
    std::uint64_t ssdOps = 0;
    std::uint64_t ssdReadBytes = 0;
    std::uint64_t ssdWriteBytes = 0;
    std::uint64_t ssdTranslationFaults = 0;

    std::uint64_t iommuVbaTranslations = 0;
    std::uint64_t iommuVbaFaults = 0;
    std::uint64_t iommuPageWalkFrames = 0;
};

/**
 * The per-tenant counter table. One instance lives in the System;
 * every component that attributes work holds a pointer to it (null
 * when accounting is off).
 *
 * The device axis mirrors the tenant axis: every `dev(d, t)` increment
 * is co-located with the matching `of(t)` increment (same program
 * point), so for each device-attributable key the sum over devices of
 * a tenant's per-device rows equals that tenant's global counter, and
 * the sum over tenants of one device's rows equals the device's own
 * aggregate stat — both bit-exactly (System::verifyTenantSums checks
 * all three directions).
 */
class TenantAccounting
{
  public:
    /** Find-or-create the counter row for @p id. */
    TenantCounters &of(TenantId id) { return tenants_[id]; }

    /** Find-or-create the (device, tenant) row. */
    DeviceTenantCounters &dev(DevId d, TenantId id)
    {
        return devTenants_[{d, id}];
    }

    /** Row for @p id, or null when the tenant never did anything. */
    const TenantCounters *find(TenantId id) const
    {
        auto it = tenants_.find(id);
        return it == tenants_.end() ? nullptr : &it->second;
    }

    template <typename Fn> void forEach(Fn &&fn) const
    {
        for (const auto &[id, row] : tenants_)
            fn(id, row);
    }

    /** Visit every (device, tenant) row in (device, tenant) order. */
    template <typename Fn> void forEachDevice(Fn &&fn) const
    {
        for (const auto &[key, row] : devTenants_)
            fn(key.first, key.second, row);
    }

    bool empty() const { return tenants_.empty(); }

  private:
    std::map<TenantId, TenantCounters> tenants_;
    std::map<std::pair<DevId, TenantId>, DeviceTenantCounters>
        devTenants_;
};

} // namespace bpd::obs

#endif // BPD_OBS_TENANT_HPP
