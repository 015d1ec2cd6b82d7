/**
 * @file
 * Per-tenant attribution (obs/tenant.hpp + the attribution sites in
 * kern/ssd/iommu/fs/bypassd): the sum invariant — for every exported
 * counter, sum over tenants == system total, bit-exactly — on all five
 * engines; survival of the revocation fallback (work keeps landing on
 * the same tenant after the reader is pushed to the kernel path);
 * each verifyTenantSums check firing on a planted charge; digest
 * neutrality of enabling accounting; the per-device metric groups
 * folding to the totals; and tenant round-tripping through the
 * metrics snapshot and the replay stream.
 */

#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "sim/logging.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

namespace {

wl::FioJob
smallJob(wl::Engine e, wl::RwMode rw)
{
    wl::FioJob job;
    job.engine = e;
    job.rw = rw;
    job.bs = 4096;
    job.numJobs = 2;
    job.perProcess = true;
    job.runtime = 500 * kUs;
    job.warmup = 50 * kUs;
    job.fileBytes = 2ull << 20;
    job.seed = 11;
    job.filePrefix = "/tenant";
    return job;
}

std::unique_ptr<sys::System>
freshSystem(std::uint64_t seed = 7, std::size_t maxDevices = 1)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30; // per slot
    cfg.seed = seed;
    cfg.maxDevices = maxDevices;
    return std::make_unique<sys::System>(cfg);
}

/** A 3-device system after a write job homed files on every slot. */
std::unique_ptr<sys::System>
fleetAfterWrites()
{
    auto s = freshSystem(7, 3);
    s->enableTenantAccounting();
    wl::FioJob job = smallJob(wl::Engine::Sync, wl::RwMode::RandWrite);
    job.numJobs = 4;
    wl::FioRunner runner(*s);
    runner.run(job);
    return s;
}

/**
 * Split a per-device key such as "ssd.dev2.ops" into its group and
 * device ("ssd.dev2") and its name ("ops"); false for other keys.
 */
bool
deviceKey(const std::string &key, std::string &group, std::string &name)
{
    static const std::regex re("^((ssd|iommu)\\.dev[0-9]+)\\.(.+)$");
    std::smatch m;
    if (!std::regex_match(key, m, re))
        return false;
    group = m[1];
    name = m[3];
    return true;
}

} // namespace

TEST(TenantSums, AllEnginesSumToSystemTotals)
{
    const wl::Engine engines[] = {wl::Engine::Sync, wl::Engine::Libaio,
                                  wl::Engine::IoUring, wl::Engine::Spdk,
                                  wl::Engine::Bypassd};
    for (wl::Engine e : engines) {
        auto s = freshSystem();
        s->enableTenantAccounting();
        wl::FioRunner runner(*s);
        runner.run(smallJob(e, wl::RwMode::RandRead));

        EXPECT_EQ(s->verifyTenantSums(), "") << wl::toString(e);
        EXPECT_FALSE(s->tenantAccounting().empty()) << wl::toString(e);

        std::uint64_t ssdOps = 0;
        s->tenantAccounting().forEach(
            [&](TenantId, const obs::TenantCounters &tc) {
                ssdOps += tc.ssdOps;
            });
        EXPECT_EQ(ssdOps, s->dev.totalOps()) << wl::toString(e);
    }
}

TEST(TenantSums, WritePathJournalAndCacheAttributed)
{
    auto s = freshSystem();
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));

    // The job runs O_DIRECT; drive the page cache with a buffered
    // reader of the file the first fio process wrote.
    kern::Process &p = s->newProcess(4000, 4000);
    int fd = -1;
    s->kernel.sysOpen(p, "/tenant0.dat", fs::kOpenRead, 0644,
                      [&](int f) { fd = f; });
    s->run();
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> buf(4096);
    for (int i = 0; i < 4; i++) {
        long long got = -1;
        s->kernel.sysPread(p, fd, buf, (i % 2) * 4096,
                           [&](long long n, kern::IoTrace) { got = n; });
        s->run();
        ASSERT_GT(got, 0);
    }

    EXPECT_EQ(s->verifyTenantSums(), "");
    std::uint64_t journal = 0;
    s->tenantAccounting().forEach(
        [&](TenantId, const obs::TenantCounters &tc) {
            journal += tc.fsJournalRecords;
        });
    EXPECT_GT(journal, 0u);

    // The buffered reader's hits and misses land on its own row.
    const auto row = s->tenantAccounting().find(p.pasid());
    ASSERT_TRUE(row.has_value());
    EXPECT_GT(row->fsPageCacheMisses, 0u);
    EXPECT_GT(row->fsPageCacheHits, 0u);
}

TEST(TenantSums, SurvivesRevocationFallback)
{
    auto s = freshSystem();
    s->enableTenantAccounting();

    kern::Process &reader = s->newProcess(1000, 1000);
    const int cfd
        = s->kernel.setupCreateFile(reader, "/rv.dat", 8ull << 20, 3);
    ASSERT_GE(cfd, 0);
    int rc = -1;
    s->kernel.sysClose(reader, cfd, [&](int r) { rc = r; });
    s->run();

    bypassd::UserLib &lib = s->userLib(reader);
    int fd = -1;
    lib.open("/rv.dat", fs::kOpenRead | fs::kOpenDirect, 0644,
             [&](int f) { fd = f; });
    s->run();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(lib.isDirect(fd));
    lib.prepareThread(0);

    const Time tEnd = s->now() + 20 * kMs;
    std::vector<std::uint8_t> buf(4096);
    sim::Rng rng(5);
    std::uint64_t opsAfterRevoke = 0;
    Time revokeAt = 0;

    std::function<void()> loop = [&]() {
        if (s->now() >= tEnd)
            return;
        const std::uint64_t off
            = rng.nextUint((8ull << 20) / 4096) * 4096;
        lib.pread(0, fd, buf, off, [&](long long n, kern::IoTrace) {
            ASSERT_GT(n, 0);
            if (revokeAt != 0)
                opsAfterRevoke++;
            loop();
        });
    };
    loop();

    kern::Process &intruder = s->newProcess(1001, 1001);
    s->eq.schedule(10 * kMs, [&]() {
        s->kernel.sysOpen(intruder, "/rv.dat", fs::kOpenRead, 0644,
                          [&](int f) {
                              ASSERT_GE(f, 0);
                              revokeAt = s->now();
                          });
    });
    s->run();

    ASSERT_NE(revokeAt, 0u);
    EXPECT_GT(opsAfterRevoke, 0u) << "no reads on the fallback path";
    EXPECT_EQ(s->verifyTenantSums(), "");

    // Revocation is booked to the revoked tenant, and its ops keep
    // accruing on the same row after the fallback to the kernel path.
    const auto row = s->tenantAccounting().find(reader.pasid());
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->bypassdRevokedVictims, 1u);
    EXPECT_GE(row->ssdOps, opsAfterRevoke);
    EXPECT_GT(row->kernSyscalls, 0u) << "fallback reads are syscalls";
}

TEST(TenantSums, UnmatchedChargeIsReported)
{
    auto s = freshSystem();
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));
    ASSERT_EQ(s->verifyTenantSums(), "");

    // A charge with no matching system-total increment.
    acct.of(kSystemTenant).fsJournalRecords++;
    const std::string err = s->verifyTenantSums();
    EXPECT_NE(err.find("fs.journal_records"), std::string::npos) << err;
    EXPECT_NE(err.find("system total"), std::string::npos) << err;
}

TEST(TenantSums, ChargeOnTheWrongDeviceIsReported)
{
    auto s = fleetAfterWrites();
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    ASSERT_EQ(s->verifyTenantSums(), "");

    // Move one ssd.ops charge from slot 0's row to slot 1's: every
    // system total still matches, but both devices' folds are off.
    const DevId from = s->devices.slot(0).dev.devId();
    const DevId to = s->devices.slot(1).dev.devId();
    std::optional<TenantId> tenant;
    acct.forEachRow(
        [&](DevId d, TenantId t, const obs::TenantCounters &row) {
            if (d == from && row.ssdOps > 0 && !tenant)
                tenant = t;
        });
    ASSERT_TRUE(tenant.has_value());
    acct.dev(from, *tenant).ssdOps--;
    acct.dev(to, *tenant).ssdOps++;

    const std::string err = s->verifyTenantSums();
    EXPECT_NE(err.find("ssd.ops"), std::string::npos) << err;
    EXPECT_NE(err.find(sim::strf("device %u total", unsigned(from))),
              std::string::npos)
        << err;
}

TEST(TenantSums, DisabledAccountingReportsNothing)
{
    auto s = freshSystem();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Sync, wl::RwMode::RandRead));
    EXPECT_EQ(s->verifyTenantSums(), "");
    EXPECT_TRUE(s->tenantAccounting().empty());
}

TEST(TenantNeutrality, AccountingDoesNotChangeDigests)
{
    auto run = [&](bool accounting) {
        auto s = freshSystem(21);
        s->enableTracing(obs::Level::Requests);
        if (accounting)
            s->enableTenantAccounting();
        wl::FioRunner runner(*s);
        runner.run(smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
        return std::pair<std::uint64_t, std::uint64_t>{
            obs::replayDigest(s->tracer()->data().replay),
            s->eq.executed()};
    };
    const auto off = run(false);
    const auto on = run(true);
    EXPECT_EQ(off.first, on.first) << "accounting changed the stream";
    EXPECT_EQ(off.second, on.second) << "accounting scheduled events";
}

TEST(TenantMetrics, ScopedSnapshotsSumToTotals)
{
    auto s = freshSystem();
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    s->collectMetrics();

    const obs::MetricsSnapshot snap = s->metrics.snapshot();
    ASSERT_FALSE(snap.tenants.empty());
    for (const auto &[key, tenantSum] : [&] {
             std::map<std::string, std::uint64_t> sums;
             for (const auto &[id, sub] : snap.tenants)
                 for (const auto &[k, v] : sub.counters)
                     sums[k] += v;
             return sums;
         }()) {
        const auto it = snap.counters.find(key);
        ASSERT_NE(it, snap.counters.end()) << key;
        EXPECT_EQ(tenantSum, it->second) << key;
    }
}

TEST(TenantMetrics, SingleDeviceExportsNoDeviceGroups)
{
    auto s = freshSystem();
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    s->collectMetrics();

    const obs::MetricsSnapshot snap = s->metrics.snapshot();
    ASSERT_FALSE(snap.tenants.empty());
    std::string group, name;
    auto expectNone = [&](const obs::MetricsSnapshot &m) {
        EXPECT_EQ(m.counters.count("ssd.media_errors"), 0u);
        for (const auto &[key, v] : m.counters)
            EXPECT_FALSE(deviceKey(key, group, name)) << key;
    };
    expectNone(snap);
    for (const auto &[id, sub] : snap.tenants)
        expectNone(sub);
}

TEST(TenantMetrics, DeviceGroupsFoldToTotals)
{
    auto s = fleetAfterWrites();
    s->collectMetrics();
    const obs::MetricsSnapshot snap = s->metrics.snapshot();

    // Each per-tenant device group, summed over tenants, equals the
    // system-level group of that device.
    std::map<std::string, std::uint64_t> tenantSums;
    std::string group, name;
    for (const auto &[id, sub] : snap.tenants)
        for (const auto &[key, v] : sub.counters)
            if (deviceKey(key, group, name))
                tenantSums[key] += v;
    ASSERT_FALSE(tenantSums.empty());
    for (const auto &[key, sum] : tenantSums) {
        const auto it = snap.counters.find(key);
        ASSERT_NE(it, snap.counters.end()) << key;
        EXPECT_EQ(sum, it->second) << key;
    }

    // The system-level device groups, summed over devices, equal the
    // system totals; and the traffic really reached several devices.
    std::map<std::string, std::uint64_t> deviceSums;
    unsigned busyDevices = 0;
    for (const auto &[key, v] : snap.counters) {
        if (!deviceKey(key, group, name) || name == "evicted")
            continue;
        const std::string total
            = group.substr(0, group.find('.')) + "." + name;
        deviceSums[total] += v;
        if (name == "ops" && v > 0)
            busyDevices++;
    }
    EXPECT_EQ(busyDevices, 3u);
    for (const char *total :
         {"ssd.ops", "ssd.read_bytes", "ssd.write_bytes",
          "ssd.translation_faults", "ssd.media_errors",
          "iommu.vba_translations", "iommu.vba_faults",
          "iommu.page_walk_frames"}) {
        ASSERT_EQ(deviceSums.count(total), 1u) << total;
        ASSERT_EQ(snap.counters.count(total), 1u) << total;
        EXPECT_EQ(deviceSums[total], snap.counters.at(total)) << total;
    }
    EXPECT_EQ(deviceSums.size(), 8u);
}

TEST(TenantReplay, StreamCarriesTenantAndRoundTrips)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 7;
    sys::System s(cfg);
    s.enableTracing(obs::Level::Requests);
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    runner.run(smallJob(wl::Engine::IoUring, wl::RwMode::RandRead));

    obs::TraceData data = s.tracer()->data();
    obs::ReplayMeta meta;
    meta.config = obs::configToMap(s.cfg);
    meta.counters = obs::curatedCounters(s);
    meta.digest = obs::replayDigest(data.replay);
    meta.events = s.eq.executed();
    meta.simNs = s.now();

    ASSERT_FALSE(data.replay.empty());
    for (const obs::ReplayRec &r : data.replay)
        EXPECT_EQ(r.tenant, r.proc)
            << "runner ops attribute to the issuing process";

    const std::string path
        = ::testing::TempDir() + "bpd_tenant_replay.json";
    obs::TraceWriter w;
    ASSERT_TRUE(w.open(path));
    w.append("tenant", data, &meta);
    ASSERT_TRUE(w.close());
    obs::RecordedTrace trace;
    std::string err;
    ASSERT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(trace.processes.size(), 1u);

    const obs::RecordedProcess &rec = trace.processes[0];
    ASSERT_EQ(rec.ops.size(), data.replay.size());
    for (std::size_t i = 0; i < rec.ops.size(); i++)
        EXPECT_EQ(rec.ops[i].tenant, data.replay[i].tenant);

    obs::ReplayResult res;
    ASSERT_TRUE(obs::replayRun(rec, {}, res, err)) << err;
    EXPECT_EQ(res.digest, rec.digest);
}
