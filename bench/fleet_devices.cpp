/**
 * @file
 * fleet_devices: fig10-style shared-writer study across a multi-device
 * target. One storage machine exposes 4-16 device slots through the
 * fabric target; every slot is shared by two remote writer connections
 * (closed-loop 4 KiB in-capsule writes), exercising the device map,
 * per-slot queue pairs and the connect-capsule device selector
 * end to end. Per-device and per-tenant results go to the
 * bypassd-bench-v1 JSON, and each cell's digest is bit-identical at
 * any shard count (the 1/2/4-shard CI gate).
 *
 * Cells:
 *  - fleet_devN (N = 4, 8, 16; --quick runs N = 4 only): the healthy
 *    sweep. Self-checks: every stream finishes, no I/O error, and the
 *    per-device x per-tenant accounting sums bit-exactly to the
 *    system totals (System::verifyTenantSums).
 *  - fleet_eviction_baseline / fleet_eviction: the 4-device geometry
 *    with a mixed 4 KiB / 16 KiB write pattern (the large writes take
 *    the two-phase RDMA-read path). The eviction cell evicts the
 *    victim slot mid-run: its writers see -ENODEV, reset, and
 *    reconnect to the next surviving slot — every stream still
 *    finishes every write. The bench exits non-zero when a stream
 *    hangs (I/O to the evicted device neither drained nor failed),
 *    when a victim stream did not fail over, or when the surviving
 *    devices' p99 write latency exceeds 2x the no-fault baseline.
 *
 * Usage: fleet_devices [--quick] [--shards N] [--label NAME]
 *                      [--out FILE] [--trace FILE] [--metrics FILE]
 *                      [--trace-level N]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/fabric_common.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "sim/sim_executor.hpp"
#include "system/fleet.hpp"

using namespace bpd;
using namespace bpd::bench;

namespace {

constexpr unsigned kWritersPerDev = 2;
constexpr std::uint32_t kLargeWrite = 16 << 10; //!< two-phase RDMA path
constexpr std::uint32_t kSmallWrite = 4 << 10;  //!< in-capsule path

unsigned
writesPerStream(bool quick)
{
    return quick ? 120 : 320;
}

/** Per-stream outcome of one writer cell. */
struct StreamOut
{
    std::size_t homeSlot = 0;  //!< slot the connect capsule named
    std::size_t finalSlot = 0; //!< slot after any failover
    std::uint64_t done = 0;    //!< completed writes
    std::uint64_t enodev = 0;  //!< writes failed with -ENODEV
    std::uint64_t failovers = 0; //!< reset+reconnect round trips
    sim::Histogram lat;          //!< client-observed ns (incl. failures)
};

struct CellOut
{
    std::vector<StreamOut> streams;
    std::vector<std::uint64_t> deviceOps; //!< target slot dev totalOps
    std::uint64_t digest = kFnvSeed;
    std::uint64_t events = 0;
    double wallSec = 0;
};

/**
 * One shared-writer cell on a fresh fleet: devs slots, kWritersPerDev
 * closed-loop writers per slot (stream s lives on client machine s+1
 * and connects to slot s % devs). With @p mixed every fourth write is
 * 16 KiB (two-phase RDMA); otherwise all writes are 4 KiB in-capsule.
 * With @p evictSlot >= 0 the target evicts that slot at @p evictAt and
 * its writers fail over to the next surviving slot.
 */
CellOut
runWriterCell(sys::Fleet &fleet, unsigned devs, unsigned writes,
              bool mixed, long evictSlot, Time evictAt)
{
    const unsigned streams = devs * kWritersPerDev;
    const std::uint64_t slotHalf = fleet.target().cfg.deviceBytes / 2;
    CellOut out;
    out.streams.resize(streams);
    const double t0 = wallNow();

    fab::FabricTarget tgt(fleet.target(), fab::FabricProfile{});
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    sim::panicIf(!tgt.serve(), "fleet_devices target could not claim");

    fleet.settle();
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    for (unsigned s = 0; s < streams; s++) {
        sys::System &client = fleet.system(s + 1);
        inis.push_back(
            std::make_unique<fab::FabricInitiator>(client, tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(s + 1));
        fab::FabricInitiator *ini = inis.back().get();
        const std::size_t slot = s % devs;
        out.streams[s].homeSlot = slot;
        out.streams[s].finalSlot = slot;
        client.eq.schedule(client.now(), [ini, s, slot] {
            ini->connect(static_cast<Pasid>(400 + s),
                         [](fab::ConnectStatus st) {
                             sim::panicIf(st != fab::ConnectStatus::Ok,
                                          "fleet_devices connect failed");
                         },
                         slot);
        });
    }
    fleet.settle();
    for (auto &ini : inis)
        sim::panicIf(!ini->connected(),
                     "fleet_devices connect did not settle");
    fleet.settle();

    // Closed loops, qd-1 per connection. Each stream owns a 64 MiB
    // slot-local region keyed by its global stream index, so failover
    // onto another device never collides with that device's own
    // writers.
    std::vector<std::vector<std::uint8_t>> bufs(
        streams, std::vector<std::uint8_t>(kLargeWrite));
    std::vector<std::shared_ptr<std::function<void()>>> loops(streams);
    for (unsigned s = 0; s < streams; s++) {
        sys::System &client = fleet.system(s + 1);
        fab::FabricInitiator *ini = inis[s].get();
        const DevAddr base
            = slotHalf + static_cast<DevAddr>(s) * (64ull << 20);
        StreamOut *st = &out.streams[s];
        loops[s] = std::make_shared<std::function<void()>>();
        *loops[s] = [s, ini, base, writes, mixed, devs, evictSlot, st,
                     &bufs, &loops] {
            if (st->done >= writes)
                return;
            const std::uint32_t len
                = mixed && st->done % 4 == 3 ? kLargeWrite : kSmallWrite;
            const DevAddr addr
                = base + (st->done % 256) * kLargeWrite;
            ini->write(
                0, addr,
                std::span<const std::uint8_t>(bufs[s].data(), len),
                [s, ini, devs, evictSlot, st, &loops](long long n,
                                                      kern::IoTrace) {
                    if (n >= 0) {
                        st->done++;
                        (*loops[s])();
                        return;
                    }
                    sim::panicIf(n != kern::errOf(fs::FsStatus::NoDev),
                                 "fleet_devices write failed without "
                                 "eviction");
                    st->enodev++;
                    // Fail over: drop the dead connection and rebind
                    // to the next surviving slot, then resume the
                    // loop there (the failed write is retried).
                    std::size_t next = (st->finalSlot + 1) % devs;
                    if (static_cast<long>(next) == evictSlot)
                        next = (next + 1) % devs;
                    st->finalSlot = next;
                    st->failovers++;
                    ini->reset();
                    ini->connect(static_cast<Pasid>(400 + s),
                                 [s, &loops](fab::ConnectStatus cst) {
                                     sim::panicIf(
                                         cst != fab::ConnectStatus::Ok,
                                         "fleet_devices failover "
                                         "connect failed");
                                     (*loops[s])();
                                 },
                                 next);
                });
        };
        client.eq.schedule(client.now(), [s, &loops] { (*loops[s])(); });
    }

    if (evictSlot >= 0) {
        sys::System &target = fleet.target();
        target.eq.schedule(target.now() + evictAt, [&target, evictSlot] {
            target.evictDevice(static_cast<std::size_t>(evictSlot));
        });
    }

    fleet.start(fleet.system(1).now() + 10 * kMs);
    fleet.run();

    std::uint64_t &h = out.digest;
    for (unsigned s = 0; s < streams; s++) {
        const StreamOut &st = out.streams[s];
        out.streams[s].lat = inis[s]->stats().latency;
        h = fnv(h, st.done);
        h = fnv(h, st.enodev);
        h = fnv(h, st.failovers);
        h = fnv(h, st.finalSlot);
        h = hashHistogram(h, inis[s]->stats().latency);
    }
    for (std::size_t d = 0; d < devs; d++) {
        const std::uint64_t ops
            = fleet.target().devices.slot(d).dev.totalOps();
        out.deviceOps.push_back(ops);
        h = fnv(h, ops);
    }
    h = hashConnections(h, tgt);
    h = hashReactors(h, tgt);
    h = hashFleetClocks(h, fleet);
    out.events = fleet.totalEvents();
    out.wallSec = wallNow() - t0;

    fleet.settle();
    for (auto &ini : inis)
        if (ini->connected())
            ini->disconnect();
    fleet.settle();
    return out;
}

/** Merge the latency histograms of streams homed on @p pred slots. */
template <typename Pred>
sim::Histogram
mergeLat(const CellOut &cell, Pred pred)
{
    sim::Histogram all;
    for (const StreamOut &st : cell.streams)
        if (pred(st.homeSlot))
            all.merge(st.lat);
    return all;
}

/** Fresh fabric fleet: devs-slot target + one client machine/stream. */
sys::FleetConfig
fleetConfig(unsigned devs, unsigned shards)
{
    sys::FleetConfig fc;
    fc.systems = devs * kWritersPerDev + 1;
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 4ull << 30; // per slot
    fc.seed = 23;
    fc.base.maxDevices = devs;
    return fc;
}

/** Per-device + per-tenant JSON for one cell. */
void
cellFields(BenchJson::Scenario &sc, const CellOut &cell, unsigned devs,
           sys::System &target)
{
    for (std::size_t d = 0; d < devs; d++) {
        const std::string p = sim::strf("dev.%zu.", d);
        BenchJson::field(sc, p + "dev_id",
                         target.devices.slot(d).dev.devId());
        BenchJson::field(sc, p + "device_ops", cell.deviceOps[d]);
        const sim::Histogram lat
            = mergeLat(cell, [d](std::size_t s) { return s == d; });
        BenchJson::field(sc, p + "writes", lat.count());
        BenchJson::field(sc, p + "p50_ns", lat.p50());
        BenchJson::field(sc, p + "p99_ns", lat.p99());
        // This slot's accounting rows folded over tenants — the fold
        // verifyTenantSums checks against the device's hardware
        // counters.
        const obs::TenantCounters acct = target.tenantAccounting().device(
            target.devices.slot(d).dev.devId());
        BenchJson::field(sc, p + "acct_ssd_ops", acct.ssdOps);
        BenchJson::field(sc, p + "acct_bytes",
                         acct.ssdReadBytes + acct.ssdWriteBytes);
    }
    for (std::size_t s = 0; s < cell.streams.size(); s++) {
        const StreamOut &st = cell.streams[s];
        const std::string p = sim::strf("stream.%zu.", s);
        BenchJson::field(sc, p + "home_slot", st.homeSlot);
        BenchJson::field(sc, p + "final_slot", st.finalSlot);
        BenchJson::field(sc, p + "writes", st.done);
        BenchJson::field(sc, p + "enodev", st.enodev);
        BenchJson::field(sc, p + "failovers", st.failovers);
        BenchJson::field(sc, p + "p99_ns", st.lat.p99());
    }
}

/** The healthy sweep; false when a self-check fails. */
bool
runSweep(const std::vector<unsigned> &devCounts, unsigned shards,
         unsigned writes, ObsCapture &obs, BenchJson &json)
{
    banner("fleet_devices",
           sim::strf("shared writers, %u per device, %u writes/stream",
                     kWritersPerDev, writes));
    row("devices", {"streams", "p50 ns", "p99 ns", "dev ops", "wall s"});
    bool ok = true;
    for (unsigned devs : devCounts) {
        sys::Fleet fleet(fleetConfig(devs, shards));
        fleet.target().enableTenantAccounting();
        const std::string label = sim::strf("fleet_dev%u", devs);
        obs.attach(fleet.target());
        CellOut cell = runWriterCell(fleet, devs, writes,
                                     /*mixed=*/false, /*evictSlot=*/-1,
                                     0);
        checkTenantSums(fleet.target());
        std::uint64_t devOpsTotal = 0;
        for (std::uint64_t o : cell.deviceOps)
            devOpsTotal += o;
        for (const StreamOut &st : cell.streams)
            if (st.done != writes || st.enodev != 0) {
                std::fprintf(stderr,
                             "fleet_dev%u: stream on slot %zu finished "
                             "%llu/%u writes (%llu enodev)\n",
                             devs, st.homeSlot,
                             static_cast<unsigned long long>(st.done),
                             writes,
                             static_cast<unsigned long long>(st.enodev));
                ok = false;
            }
        const sim::Histogram all
            = mergeLat(cell, [](std::size_t) { return true; });
        row(sim::strf("%u", devs),
            {fmt("%.0f", static_cast<double>(cell.streams.size())),
             fmt("%.0f", static_cast<double>(all.p50())),
             fmt("%.0f", static_cast<double>(all.p99())),
             fmt("%.0f", static_cast<double>(devOpsTotal)),
             fmt("%.2f", cell.wallSec)});

        BenchJson::Scenario &sc = json.add(label);
        BenchJson::field(sc, "devices", devs);
        BenchJson::field(sc, "writers_per_device", kWritersPerDev);
        BenchJson::field(sc, "writes_per_stream", writes);
        BenchJson::field(sc, "lat_p50_ns", all.p50());
        BenchJson::field(sc, "lat_p99_ns", all.p99());
        cellFields(sc, cell, devs, fleet.target());
        execFields(sc, fleet, cell.digest, cell.wallSec);
        std::printf("%s digest %016llx\n", label.c_str(),
                    static_cast<unsigned long long>(cell.digest));
        obs.capture("fleet_devices/" + label, fleet.target());
    }
    return ok;
}

/**
 * The eviction study: a no-fault baseline cell, then the same geometry
 * with the victim slot evicted mid-run. Returns false when the
 * fail-over self-checks fail.
 */
bool
runEviction(unsigned shards, unsigned writes, bool quick, ObsCapture &obs,
            BenchJson &json)
{
    const unsigned devs = 4;
    const long victim = devs - 1; // never slot 0 (metadata home)
    const Time evictAt = (quick ? 1 : 2) * kMs;

    sys::Fleet base(fleetConfig(devs, shards));
    base.target().enableTenantAccounting();
    obs.attach(base.target());
    CellOut cb = runWriterCell(base, devs, writes, /*mixed=*/true,
                               /*evictSlot=*/-1, 0);
    checkTenantSums(base.target());
    obs.capture("fleet_devices/eviction_baseline", base.target());

    sys::Fleet fault(fleetConfig(devs, shards));
    fault.target().enableTenantAccounting();
    obs.attach(fault.target());
    CellOut cf = runWriterCell(fault, devs, writes, /*mixed=*/true,
                               victim, evictAt);
    checkTenantSums(fault.target());
    obs.capture("fleet_devices/eviction", fault.target());

    // Self-checks. Completion first: a stream that did not finish
    // means an I/O to the evicted device hung instead of draining or
    // failing (closed loops stall forever on a lost completion).
    bool ok = true;
    std::uint64_t failovers = 0, enodev = 0;
    for (const StreamOut &st : cf.streams) {
        failovers += st.failovers;
        enodev += st.enodev;
        if (st.done != writes) {
            std::fprintf(stderr,
                         "fleet_eviction: stream on slot %zu HUNG at "
                         "%llu/%u writes\n",
                         st.homeSlot,
                         static_cast<unsigned long long>(st.done),
                         writes);
            ok = false;
        }
        if (static_cast<long>(st.homeSlot) == victim
            && st.failovers == 0) {
            std::fprintf(stderr,
                         "fleet_eviction: victim stream never failed "
                         "over\n");
            ok = false;
        }
        if (static_cast<long>(st.homeSlot) != victim
            && st.failovers != 0) {
            std::fprintf(stderr,
                         "fleet_eviction: survivor stream on slot %zu "
                         "failed over unexpectedly\n",
                         st.homeSlot);
            ok = false;
        }
    }
    // Victims on surviving devices hold latency: their p99 under the
    // fault stays within 2x the no-fault baseline (the failed-over
    // writers add at most one extra qd-1 stream per surviving slot).
    const auto survivor
        = [victim](std::size_t s) { return static_cast<long>(s) != victim; };
    const sim::Histogram baseLat = mergeLat(cb, survivor);
    const sim::Histogram faultLat = mergeLat(cf, survivor);
    const Time bound = 2 * baseLat.p99();
    if (faultLat.p99() > bound) {
        std::fprintf(stderr,
                     "fleet_eviction: surviving-device p99 %llu ns "
                     "exceeds bound %llu ns\n",
                     static_cast<unsigned long long>(faultLat.p99()),
                     static_cast<unsigned long long>(bound));
        ok = false;
    }

    banner("fleet_eviction",
           sim::strf("4 devices, victim slot %ld evicted at %llu us",
                     victim,
                     static_cast<unsigned long long>(evictAt / kUs)));
    row("cell", {"surv p50", "surv p99", "failovers", "enodev"});
    row("baseline",
        {fmt("%.0f", static_cast<double>(baseLat.p50())),
         fmt("%.0f", static_cast<double>(baseLat.p99())), "-", "-"});
    row("evicted",
        {fmt("%.0f", static_cast<double>(faultLat.p50())),
         fmt("%.0f", static_cast<double>(faultLat.p99())),
         fmt("%.0f", static_cast<double>(failovers)),
         fmt("%.0f", static_cast<double>(enodev))});
    std::printf("survivor tail bound %llu ns: %s\n",
                static_cast<unsigned long long>(bound),
                ok ? "held (all streams completed)" : "FAILED");

    BenchJson::Scenario &sb = json.add("fleet_eviction_baseline");
    BenchJson::field(sb, "devices", devs);
    BenchJson::field(sb, "writes_per_stream", writes);
    BenchJson::field(sb, "survivor_p99_ns", baseLat.p99());
    cellFields(sb, cb, devs, base.target());
    execFields(sb, base, cb.digest, cb.wallSec);
    std::printf("fleet_eviction_baseline digest %016llx\n",
                static_cast<unsigned long long>(cb.digest));

    BenchJson::Scenario &sc = json.add("fleet_eviction");
    BenchJson::field(sc, "devices", devs);
    BenchJson::field(sc, "writes_per_stream", writes);
    BenchJson::field(sc, "victim_slot", static_cast<std::uint64_t>(victim));
    BenchJson::field(sc, "evict_at_ns", evictAt);
    BenchJson::field(sc, "failovers", failovers);
    BenchJson::field(sc, "enodev", enodev);
    BenchJson::field(sc, "survivor_p99_ns", faultLat.p99());
    BenchJson::field(sc, "survivor_bound_ns", bound);
    BenchJson::field(sc, "eviction_ok", ok ? 1 : 0);
    cellFields(sc, cf, devs, fault.target());
    execFields(sc, fault, cf.digest, cf.wallSec);
    std::printf("fleet_eviction digest %016llx\n",
                static_cast<unsigned long long>(cf.digest));
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned shards = 1;
    std::string label = "local";
    std::string out;
    ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--shards" && i + 1 < argc) {
            const int v = std::atoi(argv[++i]);
            if (v < 1) {
                std::fprintf(stderr,
                             "fleet_devices: --shards must be >= 1\n");
                return 2;
            }
            shards = static_cast<unsigned>(v);
        } else if (a == "--label" && i + 1 < argc) {
            label = argv[++i];
        } else if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: fleet_devices [--quick] [--shards N] "
                         "[--label NAME] [--out FILE] [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    sim::setVerbose(false);
    const unsigned writes = writesPerStream(quick);
    const std::vector<unsigned> devCounts
        = quick ? std::vector<unsigned>{4}
                : std::vector<unsigned>{4, 8, 16};

    BenchJson json;
    bool ok = runSweep(devCounts, shards, writes, obs, json);
    ok = runEviction(shards, writes, quick, obs, json) && ok;

    bool io = true;
    if (!out.empty())
        io = json.write(out, label, quick) && io;
    io = obs.write() && io;
    if (!ok)
        std::fprintf(stderr, "fleet_devices: self-check FAILED\n");
    return ok && io ? 0 : 1;
}
