/**
 * @file
 * fabric_fio: NVMe-oF-style fabric benchmarks — many client machines
 * driving one simulated storage target over the executor's fabric
 * channels (src/fabric). Three scenarios:
 *
 *  - fabric_fio_8x1: eight client machines x one target, three fio
 *    jobs per client mixing 4 KiB reads, 4 KiB in-capsule writes and
 *    16 KiB RDMA-read writes. Reports per-connection and per-tenant
 *    stats; the digest folds every client's fio results, the target's
 *    per-connection counters and the fleet controller hash, so CI can
 *    assert bit-identical results at 1/2/4 shards.
 *  - fabric_storm: twelve clients connecting in a 10 us-staggered
 *    storm, then issuing read bursts. Reports connect-latency
 *    percentiles and checks the target's single admin queue actually
 *    serialized the grants.
 *  - fabric_vs_local: the same 4 KiB qd-1 random-read job on local
 *    sync / BypassD / SPDK engines and on a remote fabric client.
 *    Enforces the latency model's stated bound: remote mean = local
 *    SPDK mean + FabricProfile::modeledOverheadNs within
 *    max(1 us, 5%). Exit 1 on violation.
 *
 * Output: bypassd-bench-v1 JSON (--out), perf_report-diffable. Under
 * --trace, fabric_fio_8x1 captures each machine as its own process.
 *
 * Usage: fabric_fio [--quick] [--shards N] [--label NAME] [--out FILE]
 *                   [--trace FILE] [--metrics FILE] [--trace-level N]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/fabric_common.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "sim/sim_executor.hpp"
#include "system/fleet.hpp"
#include "workloads/fio.hpp"

using namespace bpd;
using namespace bpd::bench;

namespace {

/**
 * fabric_fio_8x1: 8 clients x 3 jobs against one target. Clients cycle
 * through three shapes so one run covers every data path: 4 KiB random
 * reads, 4 KiB random writes (in-capsule) and 16 KiB random writes
 * (two-phase RDMA read).
 */
std::uint64_t
runFabricFio(bool quick, unsigned shards, bench::BenchJson &json,
             bench::ObsCapture &obs)
{
    const char *name = "fabric_fio_8x1";
    constexpr unsigned kClients = 8;
    constexpr unsigned kJobs = 3;
    constexpr std::uint64_t kFileBytes = 64ull << 20;
    sim::setVerbose(false);

    sys::FleetConfig fc;
    fc.systems = kClients + 1;
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 8ull << 30;
    fc.seed = 42;
    sys::Fleet fleet(fc);

    sys::System &target = fleet.target();
    target.enableTenantAccounting();
    obs.attach(target);

    fab::FabricProfile prof;
    fab::FabricTarget tgt(target, prof);
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    sim::panicIf(!tgt.serve(), "fabric target could not claim device");

    const double t0 = wallNow();
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    std::vector<std::unique_ptr<wl::FioRunner>> runners;
    std::vector<wl::FioPending> pending;
    Time horizon = 0;
    const Time runtime = (quick ? 10 : 80) * kMs;
    for (unsigned c = 1; c <= kClients; c++) {
        sys::System &client = fleet.system(c);
        obs.attach(client);
        inis.push_back(
            std::make_unique<fab::FabricInitiator>(client, tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(c));

        wl::FioJob j;
        j.engine = wl::Engine::Fabric;
        j.fabric = inis.back().get();
        j.numJobs = kJobs;
        j.fileBytes = kFileBytes;
        j.bs = c % 3 == 0 ? 16384 : 4096;
        j.rw = c % 3 == 1 ? wl::RwMode::RandRead : wl::RwMode::RandWrite;
        j.runtime = runtime;
        j.warmup = 1 * kMs;
        j.seed = 100 + c;
        j.filePrefix = sim::strf("/fab%u", c);
        j.fabricBase = fc.deviceBytes / 2
                       + static_cast<DevAddr>(c - 1) * kJobs * kFileBytes;
        runners.push_back(std::make_unique<wl::FioRunner>(client));
        pending.push_back(runners.back()->arm(j));
        horizon = std::max(horizon,
                           client.now() + j.warmup + j.runtime);
    }
    fleet.start(horizon);
    fleet.run();
    const double wallSec = wallNow() - t0;

    std::uint64_t h = kFnvSeed;
    double iops = 0;
    std::uint64_t ops = 0, bytes = 0;
    sim::Histogram all;
    for (unsigned c = 1; c <= kClients; c++) {
        const wl::FioResult res
            = runners[c - 1]->collect(std::move(pending[c - 1]));
        h = fnv(h, res.ops);
        h = fnv(h, res.bytes);
        h = fnv(h, res.elapsed);
        h = hashHistogram(h, res.latency);
        const auto &st = inis[c - 1]->stats();
        h = fnv(h, st.reads);
        h = fnv(h, st.writes);
        h = fnv(h, st.inCapsuleWrites);
        h = fnv(h, st.rdmaWrites);
        h = fnv(h, st.readBytes);
        h = fnv(h, st.writeBytes);
        iops += res.iops();
        ops += res.ops;
        bytes += res.bytes;
        all.merge(res.latency);
    }
    h = hashConnections(h, tgt);
    h = hashReactors(h, tgt);
    h = fnv(h, target.dev.totalOps());
    h = hashFleetClocks(h, fleet);

    bench::checkTenantSums(target);
    for (unsigned i = 0; i < fleet.size(); i++)
        obs.capture(sim::strf("%s/%s", name,
                              i == 0 ? "target"
                                     : sim::strf("client%u", i).c_str()),
                    fleet.system(i));

    bench::BenchJson::Scenario &sc = json.add(name);
    bench::BenchJson::field(sc, "clients", kClients);
    bench::BenchJson::field(sc, "ops", ops);
    bench::BenchJson::field(sc, "bytes", bytes);
    bench::BenchJson::fieldF(sc, "iops", iops);
    bench::BenchJson::field(sc, "lat_p50_ns", all.p50());
    bench::BenchJson::field(sc, "lat_p99_ns", all.p99());
    bench::BenchJson::field(sc, "rdma_transfers", tgt.rdmaTransfers());
    bench::BenchJson::field(sc, "capsules", tgt.capsules());
    connFields(sc, tgt);
    reactorFields(sc, tgt);
    bench::tenantFields(sc, target,
                        static_cast<double>(runtime) / kSec);
    execFields(sc, fleet, h, wallSec);

    std::printf("%-18s %8llu ops %10.0f iops p50 %llu ns p99 %llu ns "
                "digest %016llx\n",
                name, static_cast<unsigned long long>(ops), iops,
                static_cast<unsigned long long>(all.p50()),
                static_cast<unsigned long long>(all.p99()),
                static_cast<unsigned long long>(h));
    return h;
}

/**
 * fabric_storm: clients connect in a staggered storm; the single admin
 * queue must serialize the grants (>= adminProcessNs apart) while read
 * bursts from already-connected clients keep the I/O reactor busy.
 */
std::uint64_t
runFabricStorm(bool quick, unsigned shards, bench::BenchJson &json)
{
    const char *name = "fabric_storm";
    constexpr unsigned kClients = 12;
    const unsigned burst = quick ? 64 : 256;
    sim::setVerbose(false);

    sys::FleetConfig fc;
    fc.systems = kClients + 1;
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 4ull << 30;
    fc.seed = 7;
    sys::Fleet fleet(fc);

    sys::System &target = fleet.target();
    fab::FabricProfile prof;
    fab::FabricTarget tgt(target, prof);
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    sim::panicIf(!tgt.serve(), "fabric target could not claim device");

    const double t0 = wallNow();
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    std::vector<Time> ackAt(kClients, 0);
    std::vector<std::uint64_t> done(kClients, 0);
    std::vector<std::vector<std::uint8_t>> bufs(
        kClients, std::vector<std::uint8_t>(4096));
    // One closed read loop per client, started by its connect ack.
    std::vector<std::shared_ptr<std::function<void()>>> loops(kClients);
    for (unsigned c = 0; c < kClients; c++) {
        sys::System &client = fleet.system(c + 1);
        inis.push_back(
            std::make_unique<fab::FabricInitiator>(client, tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(c + 1));
        fab::FabricInitiator *ini = inis.back().get();
        const DevAddr base = fc.deviceBytes / 2
                             + static_cast<DevAddr>(c) * (1ull << 20);
        loops[c] = std::make_shared<std::function<void()>>();
        *loops[c] = [c, ini, base, burst, &done, &bufs, &loops] {
            if (done[c] >= burst)
                return;
            ini->read(0, base + (done[c] % 256) * 4096, bufs[c],
                      [c, &done, &loops](long long n, kern::IoTrace) {
                          sim::panicIf(n < 0, "storm read failed");
                          done[c]++;
                          (*loops[c])();
                      });
        };
        client.eq.schedule(
            client.now() + static_cast<Time>(c) * 10 * kUs,
            [c, ini, &ackAt, &loops, &client] {
                ini->connect(static_cast<Pasid>(200 + c),
                             [c, &ackAt, &loops,
                              &client](fab::ConnectStatus st) {
                                 sim::panicIf(st != fab::ConnectStatus::Ok,
                                              "storm connect refused");
                                 ackAt[c] = client.now();
                                 (*loops[c])();
                             });
            });
    }
    fleet.start((quick ? 4 : 8) * kMs);
    fleet.run();
    const double wallSec = wallNow() - t0;

    sim::Histogram connectLat;
    std::uint64_t totalReads = 0;
    std::uint64_t h = kFnvSeed;
    for (unsigned c = 0; c < kClients; c++) {
        connectLat.record(inis[c]->stats().connectLatencyNs);
        totalReads += done[c];
        h = fnv(h, ackAt[c]);
        h = fnv(h, done[c]);
        h = fnv(h, inis[c]->stats().connectLatencyNs);
        h = hashHistogram(h, inis[c]->stats().latency);
    }
    // The serialization invariant: one admin queue, grants spaced by at
    // least its per-capsule cost even under a simultaneous-arrival
    // storm (staggering narrower than adminProcessNs still queues).
    std::vector<Time> sorted = ackAt;
    std::sort(sorted.begin(), sorted.end());
    Time minSpacing = sim::kNever;
    for (std::size_t i = 1; i < sorted.size(); i++)
        minSpacing = std::min(minSpacing, sorted[i] - sorted[i - 1]);
    h = fnv(h, minSpacing);
    h = hashConnections(h, tgt);
    h = fnv(h, target.dev.totalOps());
    h = hashFleetClocks(h, fleet);

    bench::BenchJson::Scenario &sc = json.add(name);
    bench::BenchJson::field(sc, "clients", kClients);
    bench::BenchJson::field(sc, "accepts", tgt.accepts());
    bench::BenchJson::field(sc, "reads", totalReads);
    bench::BenchJson::field(sc, "connect_p50_ns", connectLat.p50());
    bench::BenchJson::field(sc, "connect_p99_ns", connectLat.p99());
    bench::BenchJson::field(sc, "connect_max_ns", connectLat.max());
    bench::BenchJson::field(sc, "min_ack_spacing_ns", minSpacing);
    execFields(sc, fleet, h, wallSec);

    std::printf("%-18s %8llu reads, connect p50 %llu ns p99 %llu ns, "
                "min ack spacing %llu ns, digest %016llx\n",
                name, static_cast<unsigned long long>(totalReads),
                static_cast<unsigned long long>(connectLat.p50()),
                static_cast<unsigned long long>(connectLat.p99()),
                static_cast<unsigned long long>(minSpacing),
                static_cast<unsigned long long>(h));
    sim::panicIf(tgt.accepts() != kClients, "storm lost connections");
    sim::panicIf(minSpacing < prof.adminProcessNs,
                 "admin queue failed to serialize the connect storm");
    return h;
}

/**
 * fabric_vs_local: 4 KiB qd-1 random reads and in-capsule writes,
 * local engines vs the same job over the fabric. The local baselines
 * are hoisted: each engine x shape runs exactly once up front, and
 * every fabric cell below checks its residual against the hoisted SPDK
 * mean — adding fabric cells no longer reruns the local sweep, so the
 * bench's wall time grows with the fabric cells alone. Returns false
 * when any cell violates the latency model's stated bound.
 */
bool
runFabricVsLocal(bool quick, unsigned shards, bench::BenchJson &json,
                 std::uint64_t *digestOut)
{
    const char *name = "fabric_vs_local";
    sim::setVerbose(false);

    wl::FioJob job;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 1;
    job.fileBytes = 64ull << 20;
    job.runtime = (quick ? 20 : 120) * kMs;
    job.warmup = 2 * kMs;
    job.seed = 5;

    sys::SystemConfig cfg;
    cfg.deviceBytes = 4ull << 30;
    cfg.seed = 7;

    struct Cell
    {
        std::string label;
        wl::FioResult res;
    };
    std::vector<Cell> cells;
    std::uint64_t h = kFnvSeed;

    // Hoisted local baselines, one run per engine x shape. The full
    // three-engine table only makes sense for the read shape; the
    // write shape needs just the SPDK mean the bound compares against.
    const std::pair<wl::Engine, const char *> kEngines[] = {
        {wl::Engine::Sync, "sync"},
        {wl::Engine::Bypassd, "bypassd"},
        {wl::Engine::Spdk, "spdk"},
    };
    double spdkReadMean = 0;
    for (const auto &[eng, label] : kEngines) {
        wl::FioJob j = job;
        j.engine = eng;
        j.filePrefix = sim::strf("/vs_%s", label);
        cells.push_back(Cell{label, bench::runFio(j, cfg)});
        h = fnv(h, cells.back().res.ops);
        h = hashHistogram(h, cells.back().res.latency);
        if (eng == wl::Engine::Spdk)
            spdkReadMean = cells.back().res.latency.mean();
    }
    double spdkWriteMean = 0;
    {
        wl::FioJob j = job;
        j.engine = wl::Engine::Spdk;
        j.rw = wl::RwMode::RandWrite;
        j.filePrefix = "/vs_spdk_w";
        cells.push_back(Cell{"spdk_write", bench::runFio(j, cfg)});
        h = fnv(h, cells.back().res.ops);
        h = hashHistogram(h, cells.back().res.latency);
        spdkWriteMean = cells.back().res.latency.mean();
    }

    // Remote cells: ONE fleet, ONE connected initiator, reused across
    // shapes with a settle() between cells so the sequence stays
    // deterministic at any shard count.
    sys::FleetConfig fc;
    fc.systems = 2;
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = cfg.deviceBytes;
    fc.seed = cfg.seed;
    sys::Fleet fleet(fc);
    fab::FabricProfile prof;
    fab::FabricTarget tgt(fleet.target(), prof);
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    sim::panicIf(!tgt.serve(), "fabric target could not claim device");
    fab::FabricInitiator ini(fleet.system(1), tgt);
    ini.bind(fleet.executor(), fleet.domainOf(1));

    struct FabCell
    {
        const char *label;
        wl::RwMode rw;
        bool isWrite;
        double spdkMean;
        double residual = 0;
        double bound = 0;
        double overhead = 0;
        bool ok = false;
    };
    FabCell fabCells[] = {
        {"fabric", wl::RwMode::RandRead, false, spdkReadMean},
        {"fabric_write", wl::RwMode::RandWrite, true, spdkWriteMean},
    };
    for (FabCell &fcell : fabCells) {
        wl::FioJob j = job;
        j.engine = wl::Engine::Fabric;
        j.rw = fcell.rw;
        j.fabric = &ini;
        j.fabricBase = fc.deviceBytes / 2;
        wl::FioRunner runner(fleet.system(1));
        wl::FioPending p = runner.arm(j);
        fleet.start(fleet.system(1).now() + j.warmup + j.runtime);
        fleet.run();
        cells.push_back(Cell{fcell.label, runner.collect(std::move(p))});
        h = fnv(h, cells.back().res.ops);
        h = hashHistogram(h, cells.back().res.latency);
        fleet.settle();

        const double remoteMean = cells.back().res.latency.mean();
        fcell.overhead = static_cast<double>(
            prof.modeledOverheadNs(job.bs, fcell.isWrite));
        const double expected = fcell.spdkMean + fcell.overhead;
        fcell.residual = remoteMean - expected;
        fcell.bound = std::max(1000.0, 0.05 * remoteMean);
        fcell.ok = fcell.residual >= -fcell.bound
                   && fcell.residual <= fcell.bound;
    }
    h = hashFleetClocks(h, fleet);
    *digestOut = h;
    const bool ok = fabCells[0].ok && fabCells[1].ok;

    bench::banner(name, "local engines vs remote fabric (4 KiB qd-1)");
    bench::row("engine", {"mean ns", "p50 ns", "p99 ns", "iops"});
    for (const Cell &c : cells)
        bench::row(c.label,
                   {bench::fmt("%.0f", c.res.latency.mean()),
                    bench::fmt("%.0f",
                               static_cast<double>(c.res.latency.p50())),
                    bench::fmt("%.0f",
                               static_cast<double>(c.res.latency.p99())),
                    bench::fmt("%.0f", c.res.iops())});
    for (const FabCell &fcell : fabCells)
        std::printf("%s: modeled overhead %.0f ns; residual %+.0f ns "
                    "(bound %.0f ns) %s\n",
                    fcell.label, fcell.overhead, fcell.residual,
                    fcell.bound, fcell.ok ? "ok" : "VIOLATED");

    bench::BenchJson::Scenario &sc = json.add(name);
    for (const Cell &c : cells) {
        bench::BenchJson::fieldF(sc, c.label + "_mean_ns",
                                 c.res.latency.mean());
        bench::BenchJson::field(sc, c.label + "_p50_ns",
                                c.res.latency.p50());
        bench::BenchJson::field(sc, c.label + "_p99_ns",
                                c.res.latency.p99());
        bench::BenchJson::field(sc, c.label + "_ops", c.res.ops);
    }
    for (const FabCell &fcell : fabCells) {
        const std::string p = std::string(fcell.label) + "_";
        bench::BenchJson::fieldF(sc, p + "modeled_overhead_ns",
                                 fcell.overhead);
        bench::BenchJson::fieldF(sc, p + "residual_ns", fcell.residual);
        bench::BenchJson::fieldF(sc, p + "residual_bound_ns",
                                 fcell.bound);
    }
    bench::BenchJson::field(sc, "model_ok", ok ? 1 : 0);
    execFields(sc, fleet, h, 0);
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
    bench::ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--shards" && i + 1 < argc) {
            const int v = std::atoi(argv[++i]);
            if (v < 1) {
                std::fprintf(stderr,
                             "fabric_fio: --shards must be >= 1\n");
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
                         "usage: fabric_fio [--quick] [--shards N] "
                         "[--label NAME] [--out FILE] [--trace FILE] "
                         "[--metrics FILE] [--trace-level N]\n");
            return 2;
        }
    }

    bench::banner("fabric_fio",
                  quick ? "NVMe-oF fabric target scenarios (quick)"
                        : "NVMe-oF fabric target scenarios");

    bench::BenchJson json;
    runFabricFio(quick, shards, json, obs);
    runFabricStorm(quick, shards, json);
    std::uint64_t vsDigest = 0;
    const bool modelOk = runFabricVsLocal(quick, shards, json, &vsDigest);

    if (!out.empty()
        && !json.write(out, label, quick,
                       std::thread::hardware_concurrency()))
        return 1;
    if (!obs.write())
        return 1;
    if (!modelOk) {
        std::fprintf(stderr,
                     "fabric_fio: latency model bound violated — remote "
                     "mean is not local SPDK + modeled overhead within "
                     "max(1 us, 5%%)\n");
        return 1;
    }
    return 0;
}
