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
 * One table: every charge lands on exactly one (device, tenant) row.
 * The ssd and iommu keys act on behalf of one device per operation and
 * are charged on that device's row; every other key is charged on the
 * tenant's device-less row. The per-tenant and per-device views are
 * folds over the rows, so they agree with each other by construction.
 *
 * The sum invariant: every charge is made at the same program point as
 * the system-total counter it shadows, so for each key the sum over all
 * rows equals the system total, and for each ssd/iommu key the sum over
 * one device's rows equals that device's own counter, bit-exactly
 * (System::verifyTenantSums checks both). Shared-structure stats (the
 * walk cache) deliberately stay system-only: a hit caused by one
 * tenant's fill serving another has no honest single owner.
 *
 * Header-only on purpose: bpd_fs / bpd_ssd / bpd_iommu do not link
 * bpd_obs, but all of them attribute work to tenants.
 */

#ifndef BPD_OBS_TENANT_HPP
#define BPD_OBS_TENANT_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "common/types.hpp"

namespace bpd::obs {

/** One (device, tenant) slice of every attributable system counter. */
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

    // qos (token-bucket throttles at the submission sites; QoS gates
    // before device routing, so these have no device axis)
    std::uint64_t qosThrottles = 0;
    std::uint64_t qosThrottledBytes = 0;
};

/**
 * Walk every TenantCounters key once, in export order, as
 * `f(group, name, perDevice, member)`: the key shadows the system
 * metric `group.name`, `member` points at its field, and per-device
 * keys (ssd, iommu) are charged on a device's row while the others go
 * on the tenant's device-less row. Folds, checks and exporters walk
 * this list, so none of them names a key by hand.
 */
template <typename F>
void
forEachTenantKey(F &&f)
{
    using C = TenantCounters;
    f("kern", "syscalls", false, &C::kernSyscalls);
    f("ssd", "ops", true, &C::ssdOps);
    f("ssd", "read_bytes", true, &C::ssdReadBytes);
    f("ssd", "write_bytes", true, &C::ssdWriteBytes);
    f("ssd", "translation_faults", true, &C::ssdTranslationFaults);
    f("iommu", "vba_translations", true, &C::iommuVbaTranslations);
    f("iommu", "vba_faults", true, &C::iommuVbaFaults);
    f("iommu", "page_walk_frames", true, &C::iommuPageWalkFrames);
    f("fs", "journal_records", false, &C::fsJournalRecords);
    f("fs", "metadata_ops", false, &C::fsMetadataOps);
    f("fs", "page_cache_hits", false, &C::fsPageCacheHits);
    f("fs", "page_cache_misses", false, &C::fsPageCacheMisses);
    f("bypassd", "cold_fmaps", false, &C::bypassdColdFmaps);
    f("bypassd", "warm_fmaps", false, &C::bypassdWarmFmaps);
    f("bypassd", "rejected_fmaps", false, &C::bypassdRejectedFmaps);
    f("bypassd", "revoked_victims", false, &C::bypassdRevokedVictims);
    f("qos", "throttles", false, &C::qosThrottles);
    f("qos", "throttled_bytes", false, &C::qosThrottledBytes);
}

/** Add every key of @p b to @p a. */
inline TenantCounters &
operator+=(TenantCounters &a, const TenantCounters &b)
{
    forEachTenantKey(
        [&](const char *, const char *, bool, auto m) { a.*m += b.*m; });
    return a;
}

/** DevId of a tenant's device-less row; no device slot has id 0. */
inline constexpr DevId kNoDevice = 0;

/**
 * The counter table: one TenantCounters row per (device, tenant). One
 * instance lives in the System; every component that attributes work
 * holds a pointer to it (null when accounting is off).
 */
class TenantAccounting
{
  public:
    /** Tenant @p id's device-less row (kern, fs, bypassd, qos keys). */
    TenantCounters &of(TenantId id) { return rows_[{id, kNoDevice}]; }

    /**
     * The (device @p d, tenant @p id) row: the only place the ssd and
     * iommu keys are charged.
     */
    TenantCounters &dev(DevId d, TenantId id) { return rows_[{id, d}]; }

    /** Tenant @p id's rows folded over devices; none if it has no row. */
    std::optional<TenantCounters> find(TenantId id) const
    {
        auto it = rows_.lower_bound({id, kNoDevice});
        if (it == rows_.end() || it->first.first != id)
            return std::nullopt;
        return foldTenant(it);
    }

    /** Visit each tenant's rows folded over devices, in tenant order. */
    template <typename Fn> void forEach(Fn &&fn) const
    {
        for (auto it = rows_.begin(); it != rows_.end();) {
            const TenantId id = it->first.first;
            fn(id, foldTenant(it));
        }
    }

    /** Device @p d's rows folded over tenants. */
    TenantCounters device(DevId d) const
    {
        TenantCounters sum;
        for (const auto &[key, row] : rows_)
            if (key.second == d)
                sum += row;
        return sum;
    }

    /** Visit every row as fn(device, tenant, row), tenant by tenant. */
    template <typename Fn> void forEachRow(Fn &&fn) const
    {
        for (const auto &[key, row] : rows_)
            fn(key.second, key.first, row);
    }

    bool empty() const { return rows_.empty(); }

  private:
    /** Keyed tenant-first, so one tenant's rows are adjacent. */
    using Rows = std::map<std::pair<TenantId, DevId>, TenantCounters>;

    /** Sum the rows of @p it's tenant, leaving @p it past them. */
    TenantCounters foldTenant(Rows::const_iterator &it) const
    {
        const TenantId id = it->first.first;
        TenantCounters sum;
        for (; it != rows_.end() && it->first.first == id; ++it)
            sum += it->second;
        return sum;
    }

    Rows rows_;
};

} // namespace bpd::obs

#endif // BPD_OBS_TENANT_HPP
