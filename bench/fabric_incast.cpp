/**
 * @file
 * fabric_incast: many-clients-into-one-target burst studies for the
 * fabric's production-pressure features — queue-depth admission and
 * sharded reactors. One fleet (N clients + 1 target) hosts every cell
 * back to back, with Fleet::settle() aligning clocks between cells, so
 * the whole sequence — including the serve/connect/disconnect churn
 * between cells — is a deterministic function of the cell order and
 * stays bit-identical at any shard count.
 *
 *  - incast_r1/r2/r4: every client bursts a deep open-loop read train
 *    into the target at once (burst >> queueDepth, so admission queues
 *    most of it initiator-side). Per-connection p50/p99 plus the
 *    per-reactor lane table; the scaling rows show the capsule
 *    serialization point dissolving as reactors are added.
 *  - incast_weighted: hundreds of connections (several initiators per
 *    client machine) split into heavy (weight 4) and light (weight 1)
 *    QoS lanes, bursting through two phases with a mid-phase hard
 *    reset of every 8th connection and a reconnect between phases.
 *    Weighted-fair SQ arbitration must give the heavy lanes a lower
 *    mean latency than the light lanes, every reset must fail its
 *    backlog (completions + failures == issued, no leaked depth
 *    slots), and the digest must stay shard-invariant with QoS live.
 *  - incast_admission: an aggressor connection floods the target while
 *    victim connections run closed-loop qd-1 reads. Three cells —
 *    victims alone (baseline), aggressor with admission enforced,
 *    aggressor with admission disabled — and a victim-tail bound
 *    derived from the baseline and the admission depth. Admission
 *    enforced must hold the victims' p99 under the bound; admission
 *    disabled must blow through it (the self-check that the gate is
 *    sharp). --no-admission gates the disabled cell as if it were the
 *    product config, so it exits non-zero — CI asserts both exits.
 *
 * Output: bypassd-bench-v1 JSON (--out), perf_report-diffable; the
 * per-cell digests gate at 1/2/4 shards in CI.
 *
 * Usage: fabric_incast [--quick] [--shards N] [--no-admission]
 *                      [--label NAME] [--out FILE] [--trace FILE]
 *                      [--metrics FILE] [--trace-level N]
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
#include "qos/qos.hpp"
#include "sim/sim_executor.hpp"
#include "system/fleet.hpp"

using namespace bpd;
using namespace bpd::bench;

namespace {

/** Incast geometry shared by every cell. */
struct Geometry
{
    unsigned conns;        //!< client machines (= connections)
    unsigned burst;        //!< open-loop reads per connection (incast)
    unsigned victimReads;  //!< closed-loop reads per victim (admission)
    unsigned aggressorIos; //!< aggressor flood size (admission)
    unsigned perClient;    //!< initiators per client machine (weighted)
    unsigned laneBurst;    //!< reads per connection per phase (weighted)
};

Geometry
geometry(bool quick)
{
    Geometry g;
    g.conns = quick ? 8 : 32;
    g.burst = quick ? 64 : 256;
    g.victimReads = quick ? 100 : 400;
    g.aggressorIos = quick ? 1500 : 4000;
    g.perClient = quick ? 4 : 8; // 32 conns quick, 256 at full geometry
    g.laneBurst = quick ? 64 : 96;
    return g;
}

/** Small per-connection depth so the bursts exercise admission. */
constexpr std::uint32_t kIncastDepth = 16;

/**
 * Connect one initiator per client machine (client c is fleet system
 * c + 1) and run the fleet until every ack landed.
 */
void
connectAll(sys::Fleet &fleet, fab::FabricTarget &tgt,
           std::vector<std::unique_ptr<fab::FabricInitiator>> &inis,
           unsigned conns)
{
    inis.clear();
    // Whatever ran before (a cell, a teardown) left every machine at
    // its own last-event time; align before scheduling the connects so
    // no capsule is posted into the target's past.
    fleet.settle();
    for (unsigned c = 0; c < conns; c++) {
        sys::System &client = fleet.system(c + 1);
        inis.push_back(
            std::make_unique<fab::FabricInitiator>(client, tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(c + 1));
        fab::FabricInitiator *ini = inis.back().get();
        client.eq.schedule(client.now(), [ini, c] {
            ini->connect(static_cast<Pasid>(300 + c),
                         [](fab::ConnectStatus st) {
                             sim::panicIf(st != fab::ConnectStatus::Ok,
                                          "incast connect refused");
                         });
        });
    }
    fleet.settle();
    for (auto &ini : inis)
        sim::panicIf(!ini->connected(), "incast connect did not settle");
    // The handshake run leaves every machine at its own last-event
    // time; re-align so the cell's submissions start from one instant
    // (and never post into the target's past).
    fleet.settle();
}

/** Disconnect every initiator, drain, and destroy them. */
void
teardownAll(sys::Fleet &fleet,
            std::vector<std::unique_ptr<fab::FabricInitiator>> &inis)
{
    fleet.settle(); // the cell run left clocks ragged; align first
    for (auto &ini : inis)
        ini->disconnect();
    fleet.settle();
    inis.clear();
}

/**
 * One incast cell: every connection issues @p burst open-loop 4 KiB
 * reads at the same instant. Returns the aggregate latency histogram
 * and folds the per-connection stats into @p h.
 */
sim::Histogram
runIncastCell(sys::Fleet &fleet, fab::FabricTarget &tgt,
              std::vector<std::unique_ptr<fab::FabricInitiator>> &inis,
              const Geometry &g, std::uint64_t &h,
              std::vector<sim::Histogram> *perConn)
{
    const std::uint64_t devHalf = fleet.target().cfg.deviceBytes / 2;
    std::vector<std::vector<std::vector<std::uint8_t>>> bufs(g.conns);
    std::uint64_t failures = 0;
    for (unsigned c = 0; c < g.conns; c++) {
        bufs[c].assign(g.burst, std::vector<std::uint8_t>(4096));
        sys::System &client = fleet.system(c + 1);
        fab::FabricInitiator *ini = inis[c].get();
        const DevAddr base
            = devHalf + static_cast<DevAddr>(c) * (4ull << 20);
        client.eq.schedule(client.now(),
                           [ini, base, g, c, &bufs, &failures] {
                               for (unsigned k = 0; k < g.burst; k++)
                                   ini->read(
                                       0, base + (k % 512) * 4096,
                                       bufs[c][k],
                                       [&failures](long long n,
                                                   kern::IoTrace) {
                                           if (n < 0)
                                               failures++;
                                       });
                           });
    }
    fleet.start(fleet.system(1).now() + 4 * kMs);
    fleet.run();
    sim::panicIf(failures != 0, "incast burst saw failed reads");

    sim::Histogram all;
    for (unsigned c = 0; c < g.conns; c++) {
        const fab::FabricInitiator::Stats &st = inis[c]->stats();
        sim::panicIf(st.maxInflight > kIncastDepth,
                     "admission let a connection exceed its depth");
        all.merge(st.latency);
        if (perConn)
            perConn->push_back(st.latency);
        h = fnv(h, st.reads);
        h = fnv(h, st.queuedOnDepth);
        h = fnv(h, st.maxInflight);
        h = hashHistogram(h, st.latency);
    }
    h = hashConnections(h, tgt);
    h = hashReactors(h, tgt);
    return all;
}

/**
 * incast_rN scenarios: the same deep burst at 1, 2 and 4 reactors,
 * fresh target per cell on the shared fleet. The digest of each cell
 * must be bit-identical at any shard count.
 */
void
runIncastScaling(sys::Fleet &fleet, const Geometry &g, BenchJson &json)
{
    banner("fabric_incast",
           sim::strf("%u conns x %u-deep bursts, queue depth %u",
                     g.conns, g.burst, kIncastDepth));
    row("reactors", {"p50 ns", "p99 ns", "max ns", "busy ns", "wall s"});
    for (std::uint32_t r : {1u, 2u, 4u}) {
        const double t0 = wallNow();
        std::uint64_t h = kFnvSeed;
        fab::FabricProfile prof;
        prof.queueDepth = kIncastDepth;
        prof.reactors = r;
        fab::FabricTarget tgt(fleet.target(), prof);
        tgt.bind(fleet.executor(), fleet.domainOf(0));
        sim::panicIf(!tgt.serve(), "incast target could not claim");

        std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
        connectAll(fleet, tgt, inis, g.conns);
        std::vector<sim::Histogram> perConn;
        const sim::Histogram all
            = runIncastCell(fleet, tgt, inis, g, h, &perConn);
        h = hashFleetClocks(h, fleet);
        const double wallSec = wallNow() - t0;

        // The busiest lane's busy time is the serialization point the
        // scaling rows watch shrink as reactors are added.
        Time busyMax = 0;
        for (const auto &rs : tgt.reactorStats())
            busyMax = std::max(busyMax, rs.busyNs);
        row(sim::strf("%u", r),
            {fmt("%.0f", static_cast<double>(all.p50())),
             fmt("%.0f", static_cast<double>(all.p99())),
             fmt("%.0f", static_cast<double>(all.max())),
             fmt("%.0f", static_cast<double>(busyMax)),
             fmt("%.2f", wallSec)});

        BenchJson::Scenario &sc = json.add(sim::strf("incast_r%u", r));
        BenchJson::field(sc, "conns", g.conns);
        BenchJson::field(sc, "burst", g.burst);
        BenchJson::field(sc, "queue_depth", kIncastDepth);
        BenchJson::field(sc, "lat_p50_ns", all.p50());
        BenchJson::field(sc, "lat_p99_ns", all.p99());
        BenchJson::field(sc, "lat_max_ns", all.max());
        for (unsigned c = 0; c < perConn.size(); c++) {
            const std::string p
                = sim::strf("conn.%u.", inis[c]->connId());
            BenchJson::field(sc, p + "p50_ns", perConn[c].p50());
            BenchJson::field(sc, p + "p99_ns", perConn[c].p99());
        }
        reactorFields(sc, tgt);
        checkTenantSums(fleet.target());
        execFields(sc, fleet, h, wallSec);
        std::printf("incast_r%u digest %016llx\n", r,
                    static_cast<unsigned long long>(h));

        teardownAll(fleet, inis);
        // The target destructs here, releasing its claim and reactor
        // cores so the next cell can re-serve with a different count.
    }
}

/**
 * incast_weighted: the QoS weighted-lane cell. perClient initiators on
 * every client machine (hundreds of connections at full geometry) split
 * by index parity into heavy (weight 4) and light (weight 1) lanes on
 * the TARGET system's QoS registry — weights are dispatch-side state,
 * so they are installed while the fleet is settled (single-threaded),
 * never from client-domain callbacks. Two burst phases with churn in
 * between: every 8th connection is hard-reset at a fixed virtual time
 * mid-phase-A (its backlog must fail, counted), reconnected while
 * settled (a new connection id means a new tenant, so its weight is
 * re-installed), then phase B bursts everyone again.
 *
 * Gates: heavy lanes beat light lanes on mean latency (non-churned
 * lanes only — churned lanes lost half their sample to the reset), the
 * churn actually failed I/O, and per-connection accounting closes
 * exactly (completions + failures == issued). Depth and digest
 * invariants are panics, not gates: they hold by construction or the
 * binary is wrong.
 */
bool
runWeightedChurn(sys::Fleet &fleet, const Geometry &g, BenchJson &json)
{
    const unsigned conns = g.conns * g.perClient;
    constexpr std::uint32_t kHeavyWeight = 4;
    const std::uint64_t devHalf = fleet.target().cfg.deviceBytes / 2;
    const double t0 = wallNow();
    std::uint64_t h = kFnvSeed;

    // Weight-only entries: dispatch shaping without rate caps, so the
    // registry never parks and the cell stays a pure WRR study.
    qos::Registry &qos = fleet.target().enableQos();

    fab::FabricProfile prof;
    prof.queueDepth = kIncastDepth;
    prof.reactors = 2;
    fab::FabricTarget tgt(fleet.target(), prof);
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    sim::panicIf(!tgt.serve(), "weighted target could not claim");

    // Connect g.perClient initiators per client machine. Initiator i
    // lives on client machine i / perClient; lane parity (i % 2) puts
    // heavy and light lanes on every machine.
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    fleet.settle();
    for (unsigned i = 0; i < conns; i++) {
        const unsigned sys = i / g.perClient + 1;
        sys::System &client = fleet.system(sys);
        inis.push_back(
            std::make_unique<fab::FabricInitiator>(client, tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(sys));
        fab::FabricInitiator *ini = inis.back().get();
        client.eq.schedule(client.now(), [ini, i] {
            ini->connect(static_cast<Pasid>(500 + i),
                         [](fab::ConnectStatus st) {
                             sim::panicIf(st != fab::ConnectStatus::Ok,
                                          "weighted connect refused");
                         });
        });
    }
    fleet.settle();
    for (auto &ini : inis)
        sim::panicIf(!ini->connected(),
                     "weighted connect did not settle");
    fleet.settle();

    // Weights key on the connection tenant (kConnTenantBase + id), so
    // they can only be installed once the ack granted an id — and must
    // be re-installed after a reconnect mints a new one.
    auto setWeight = [&](unsigned i) {
        qos::TenantLimit lim; // no rate caps: weight-only entry
        lim.weight = (i % 2 == 0) ? kHeavyWeight : 1;
        qos.setLimit(fab::kConnTenantBase + inis[i]->connId(), lim);
    };
    for (unsigned i = 0; i < conns; i++)
        setWeight(i);

    std::vector<std::vector<std::vector<std::uint8_t>>> bufs(conns);
    std::vector<std::uint64_t> issued(conns, 0);
    std::vector<std::uint64_t> done(conns, 0);
    std::vector<std::uint64_t> failed(conns, 0);
    auto burst = [&](unsigned i) {
        sys::System &client = fleet.system(i / g.perClient + 1);
        fab::FabricInitiator *ini = inis[i].get();
        const DevAddr base
            = devHalf + static_cast<DevAddr>(i) * (4ull << 20);
        bufs[i].assign(g.laneBurst, std::vector<std::uint8_t>(4096));
        issued[i] += g.laneBurst;
        client.eq.schedule(client.now(), [ini, base, g, i, &bufs, &done,
                                          &failed] {
            for (unsigned k = 0; k < g.laneBurst; k++)
                ini->read(0, base + (k % 512) * 4096, bufs[i][k],
                          [i, &done, &failed](long long n,
                                              kern::IoTrace) {
                              if (n < 0)
                                  failed[i]++;
                              else
                                  done[i]++;
                          });
        });
    };

    // Phase A: everyone bursts; every 8th connection is hard-reset
    // 20 us in, while its burst is still mostly parked on the depth
    // queue — the reset must fail all of it at the client.
    constexpr Time kResetAt = 20 * kUs;
    unsigned churned = 0;
    for (unsigned i = 0; i < conns; i++) {
        burst(i);
        if (i % 8 != 0)
            continue;
        churned++;
        sys::System &client = fleet.system(i / g.perClient + 1);
        fab::FabricInitiator *ini = inis[i].get();
        client.eq.schedule(client.now() + kResetAt,
                           [ini] { ini->reset(); });
    }
    fleet.start(fleet.system(1).now() + 4 * kMs);
    fleet.run();

    // Reconnect the churned connections while settled and re-install
    // their lane weights for the freshly minted tenants.
    fleet.settle();
    for (unsigned i = 0; i < conns; i += 8) {
        sys::System &client = fleet.system(i / g.perClient + 1);
        fab::FabricInitiator *ini = inis[i].get();
        client.eq.schedule(client.now(), [ini, i] {
            ini->connect(static_cast<Pasid>(500 + i),
                         [](fab::ConnectStatus st) {
                             sim::panicIf(st != fab::ConnectStatus::Ok,
                                          "weighted reconnect refused");
                         });
        });
    }
    fleet.settle();
    for (unsigned i = 0; i < conns; i += 8) {
        sim::panicIf(!inis[i]->connected(),
                     "weighted reconnect did not settle");
        setWeight(i);
    }
    fleet.settle();

    // Phase B: the tail burst, churned connections included.
    for (unsigned i = 0; i < conns; i++)
        burst(i);
    fleet.start(fleet.system(1).now() + 4 * kMs);
    fleet.run();

    // Accounting closes exactly per connection: a reset may delay a
    // failure callback (deferred to observe the torn-down initiator)
    // but may never drop one or leak a depth slot.
    std::uint64_t totalFailed = 0;
    sim::Histogram heavy;
    sim::Histogram light;
    for (unsigned i = 0; i < conns; i++) {
        sim::panicIf(done[i] + failed[i] != issued[i],
                     "weighted churn dropped a completion");
        sim::panicIf(inis[i]->stats().maxInflight > kIncastDepth,
                     "weighted lane exceeded its depth");
        totalFailed += failed[i];
        if (i % 8 != 0) // non-churned lanes carry the fairness signal
            (i % 2 == 0 ? heavy : light).merge(inis[i]->stats().latency);
        h = fnv(h, issued[i]);
        h = fnv(h, done[i]);
        h = fnv(h, failed[i]);
        h = fnv(h, inis[i]->stats().reads);
        h = fnv(h, inis[i]->stats().queuedOnDepth);
        h = fnv(h, inis[i]->stats().maxInflight);
        h = fnv(h, inis[i]->stats().resets);
        h = fnv(h, inis[i]->stats().staleDrops);
        h = hashHistogram(h, inis[i]->stats().latency);
    }
    h = hashConnections(h, tgt);
    h = hashReactors(h, tgt);
    h = hashFleetClocks(h, fleet);
    const double wallSec = wallNow() - t0;

    const bool laneOk = heavy.mean() < light.mean();
    const bool churnOk = totalFailed > 0;
    const bool ok = laneOk && churnOk;

    banner("incast_weighted",
           sim::strf("%u conns (%u/machine), weight %u vs 1, "
                     "%u churned mid-phase",
                     conns, g.perClient, kHeavyWeight, churned));
    row("lane", {"mean ns", "p50 ns", "p99 ns"});
    row("heavy",
        {fmt("%.0f", heavy.mean()),
         fmt("%.0f", static_cast<double>(heavy.p50())),
         fmt("%.0f", static_cast<double>(heavy.p99()))});
    row("light",
        {fmt("%.0f", light.mean()),
         fmt("%.0f", static_cast<double>(light.p50())),
         fmt("%.0f", static_cast<double>(light.p99()))});
    std::printf("weighted lanes: heavy mean %.0f vs light %.0f -> %s; "
                "churn failed %llu I/Os across %u resets -> %s\n",
                heavy.mean(), light.mean(),
                laneOk ? "ok" : "NOT AHEAD",
                static_cast<unsigned long long>(totalFailed), churned,
                churnOk ? "ok" : "NO FAILURES (reset missed backlog)");

    BenchJson::Scenario &sc = json.add("incast_weighted");
    BenchJson::field(sc, "conns", conns);
    BenchJson::field(sc, "per_client", g.perClient);
    BenchJson::field(sc, "lane_burst", g.laneBurst);
    BenchJson::field(sc, "heavy_weight", kHeavyWeight);
    BenchJson::field(sc, "churned", churned);
    BenchJson::field(sc, "churn_failed_ios", totalFailed);
    BenchJson::fieldF(sc, "heavy_mean_ns", heavy.mean());
    BenchJson::fieldF(sc, "light_mean_ns", light.mean());
    BenchJson::field(sc, "heavy_p99_ns", heavy.p99());
    BenchJson::field(sc, "light_p99_ns", light.p99());
    BenchJson::field(sc, "qos_admits", qos.admits());
    BenchJson::field(sc, "qos_throttles", qos.throttles());
    BenchJson::field(sc, "weighted_ok", ok ? 1 : 0);
    reactorFields(sc, tgt);
    checkTenantSums(fleet.target());
    execFields(sc, fleet, h, wallSec);
    std::printf("incast_weighted digest %016llx\n",
                static_cast<unsigned long long>(h));

    teardownAll(fleet, inis);
    return ok;
}

/**
 * incast_admission: victims' tail with and without admission. Returns
 * false when the gate fails (which cell is gated depends on
 * @p noAdmission).
 */
bool
runAdmission(sys::Fleet &fleet, const Geometry &g, bool noAdmission,
             BenchJson &json)
{
    const unsigned victims = g.conns - 1;
    const std::uint64_t devHalf = fleet.target().cfg.deviceBytes / 2;

    struct CellOut
    {
        sim::Histogram victimLat;
        sim::Histogram aggressorLat;
        std::uint64_t overflowParks = 0;
        std::uint64_t queuedOnDepth = 0;
    };

    // One cell: victims run closed-loop qd-1 reads; with @p aggressor,
    // the initiator on client machine 1 floods open-loop reads at t0.
    std::uint64_t h = kFnvSeed;
    auto runCell = [&](bool aggressor, bool enforce) {
        fab::FabricProfile prof;
        prof.queueDepth = kIncastDepth;
        prof.enforceDepth = enforce;
        fab::FabricTarget tgt(fleet.target(), prof);
        tgt.bind(fleet.executor(), fleet.domainOf(0));
        sim::panicIf(!tgt.serve(), "admission target could not claim");
        std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
        connectAll(fleet, tgt, inis, g.conns);

        std::vector<std::vector<std::uint8_t>> vbufs(
            victims, std::vector<std::uint8_t>(4096));
        std::vector<std::uint64_t> done(victims, 0);
        std::vector<std::shared_ptr<std::function<void()>>> loops(
            victims);
        for (unsigned v = 0; v < victims; v++) {
            // Victim v rides the initiator on client machine v + 2.
            sys::System &client = fleet.system(v + 2);
            fab::FabricInitiator *ini = inis[v + 1].get();
            const DevAddr base
                = devHalf + static_cast<DevAddr>(v + 1) * (4ull << 20);
            loops[v] = std::make_shared<std::function<void()>>();
            *loops[v] = [v, ini, base, g, &done, &vbufs, &loops] {
                if (done[v] >= g.victimReads)
                    return;
                ini->read(0, base + (done[v] % 512) * 4096, vbufs[v],
                          [v, &done, &loops](long long n,
                                             kern::IoTrace) {
                              sim::panicIf(n < 0, "victim read failed");
                              done[v]++;
                              (*loops[v])();
                          });
            };
            client.eq.schedule(client.now(),
                               [v, &loops] { (*loops[v])(); });
        }
        std::vector<std::vector<std::uint8_t>> abufs;
        std::uint64_t aggFailures = 0;
        if (aggressor) {
            abufs.assign(g.aggressorIos,
                         std::vector<std::uint8_t>(4096));
            sys::System &client = fleet.system(1);
            fab::FabricInitiator *ini = inis[0].get();
            client.eq.schedule(
                client.now(), [ini, devHalf, g, &abufs, &aggFailures] {
                    for (unsigned k = 0; k < g.aggressorIos; k++)
                        ini->read(0, devHalf + (k % 512) * 4096,
                                  abufs[k],
                                  [&aggFailures](long long n,
                                                 kern::IoTrace) {
                                      if (n < 0)
                                          aggFailures++;
                                  });
                });
        }
        fleet.start(fleet.system(1).now() + 4 * kMs);
        fleet.run();
        sim::panicIf(aggFailures != 0, "aggressor flood saw failures");

        CellOut out;
        for (unsigned v = 0; v < victims; v++) {
            sim::panicIf(done[v] != g.victimReads,
                         "victim loop did not finish");
            out.victimLat.merge(inis[v + 1]->stats().latency);
            h = hashHistogram(h, inis[v + 1]->stats().latency);
        }
        if (aggressor) {
            out.aggressorLat = inis[0]->stats().latency;
            out.queuedOnDepth = inis[0]->stats().queuedOnDepth;
            h = hashHistogram(h, inis[0]->stats().latency);
        }
        out.overflowParks = tgt.overflowParks();
        h = fnv(h, out.overflowParks);
        h = fnv(h, out.queuedOnDepth);
        h = hashConnections(h, tgt);
        teardownAll(fleet, inis);
        return out;
    };

    const double t0 = wallNow();
    const CellOut base = runCell(/*aggressor=*/false, /*enforce=*/true);
    const CellOut enf = runCell(/*aggressor=*/true, /*enforce=*/true);
    const CellOut dis = runCell(/*aggressor=*/true, /*enforce=*/false);
    h = hashFleetClocks(h, fleet);
    const double wallSec = wallNow() - t0;

    // The bound admission must hold: with admission enforced the
    // aggressor's excess waits at its own initiator, so a victim read
    // waits behind at most queueDepth aggressor commands and its tail
    // stays within 2x the solo baseline. With enforcement off, every
    // flood capsule crosses the wire anyway and the target burns
    // serialized reactor time parking and re-arming it, so the
    // victims' tail blows well past 2x. One bound separates the two
    // regimes at both geometries.
    const Time bound = 2 * base.victimLat.p99();
    const bool enforcedOk = enf.victimLat.p99() <= bound;
    const bool disabledOvershoots = dis.victimLat.p99() > bound;
    const bool ok = noAdmission ? dis.victimLat.p99() <= bound
                                : (enforcedOk && disabledOvershoots);

    banner("incast_admission",
           sim::strf("%u victims (qd-1 reads) vs 1 aggressor "
                     "(%u-deep flood), depth %u",
                     victims, g.aggressorIos, kIncastDepth));
    row("cell", {"victim p50", "victim p99", "agg p99"});
    row("baseline",
        {fmt("%.0f", static_cast<double>(base.victimLat.p50())),
         fmt("%.0f", static_cast<double>(base.victimLat.p99())), "-"});
    row("enforced",
        {fmt("%.0f", static_cast<double>(enf.victimLat.p50())),
         fmt("%.0f", static_cast<double>(enf.victimLat.p99())),
         fmt("%.0f", static_cast<double>(enf.aggressorLat.p99()))});
    row("disabled",
        {fmt("%.0f", static_cast<double>(dis.victimLat.p50())),
         fmt("%.0f", static_cast<double>(dis.victimLat.p99())),
         fmt("%.0f", static_cast<double>(dis.aggressorLat.p99()))});
    std::printf("victim tail bound %llu ns: enforced %s (p99 %llu), "
                "disabled %s (p99 %llu, %llu overflow parks)%s\n",
                static_cast<unsigned long long>(bound),
                enforcedOk ? "held" : "VIOLATED",
                static_cast<unsigned long long>(enf.victimLat.p99()),
                disabledOvershoots ? "overshot (gate is sharp)"
                                   : "DID NOT OVERSHOOT",
                static_cast<unsigned long long>(dis.victimLat.p99()),
                static_cast<unsigned long long>(dis.overflowParks),
                noAdmission ? " [--no-admission: gating disabled cell]"
                            : "");

    BenchJson::Scenario &sc = json.add("incast_admission");
    BenchJson::field(sc, "victims", victims);
    BenchJson::field(sc, "aggressor_ios", g.aggressorIos);
    BenchJson::field(sc, "queue_depth", kIncastDepth);
    BenchJson::field(sc, "victims_baseline_p99_ns",
                     base.victimLat.p99());
    BenchJson::field(sc, "victims_enforced_p99_ns",
                     enf.victimLat.p99());
    BenchJson::field(sc, "victims_disabled_p99_ns",
                     dis.victimLat.p99());
    BenchJson::field(sc, "aggressor_enforced_p99_ns",
                     enf.aggressorLat.p99());
    BenchJson::field(sc, "aggressor_queued_on_depth",
                     enf.queuedOnDepth);
    BenchJson::field(sc, "disabled_overflow_parks", dis.overflowParks);
    BenchJson::field(sc, "tail_bound_ns", bound);
    BenchJson::field(sc, "admission_enforced", noAdmission ? 0 : 1);
    BenchJson::field(sc, "admission_ok", ok ? 1 : 0);
    execFields(sc, fleet, h, wallSec);
    std::printf("incast_admission digest %016llx\n",
                static_cast<unsigned long long>(h));
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool noAdmission = false;
    unsigned shards = 1;
    std::string label = "local";
    std::string out;
    ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--no-admission") {
            noAdmission = true;
        } else if (a == "--shards" && i + 1 < argc) {
            const int v = std::atoi(argv[++i]);
            if (v < 1) {
                std::fprintf(stderr,
                             "fabric_incast: --shards must be >= 1\n");
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
                         "usage: fabric_incast [--quick] [--shards N] "
                         "[--no-admission] [--label NAME] [--out FILE] "
                         "[--trace FILE] [--metrics FILE] "
                         "[--trace-level N]\n");
            return 2;
        }
    }

    sim::setVerbose(false);
    const Geometry g = geometry(quick);

    sys::FleetConfig fc;
    fc.systems = g.conns + 1;
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 8ull << 30;
    fc.seed = 19;
    sys::Fleet fleet(fc);
    fleet.target().enableTenantAccounting();
    obs.attach(fleet.target());

    BenchJson json;
    runIncastScaling(fleet, g, json);
    const bool ok = runAdmission(fleet, g, noAdmission, json);
    // Runs last: it enables QoS on the target system, which must not
    // perturb the earlier cells' digests.
    const bool weightedOk = runWeightedChurn(fleet, g, json);

    obs.capture("fabric_incast/target", fleet.target());
    bool io = true;
    if (!out.empty())
        io = json.write(out, label, quick) && io;
    io = obs.write() && io;
    if (!ok)
        std::fprintf(stderr,
                     "fabric_incast: admission gate FAILED%s\n",
                     noAdmission ? " (expected under --no-admission)"
                                 : "");
    if (!weightedOk)
        std::fprintf(stderr,
                     "fabric_incast: weighted-lane gate FAILED\n");
    return ok && weightedOk && io ? 0 : 1;
}
