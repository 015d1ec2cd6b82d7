/**
 * @file
 * Determinism regression tests (invariant 9: same seed => identical
 * virtual-time outputs) guarding the event-queue/block-store hot-path
 * internals:
 *
 *  - a mixed kernel/BypassD fio workload run twice with the same seed
 *    must produce bit-identical stats digests;
 *  - the event queue's ordering contract (time order, FIFO among
 *    same-time events, cancelled events never run) checked against a
 *    reference model under randomized schedule/cancel sequences.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/fnv.hpp"
#include "sim/random.hpp"
#include "sim/sim_executor.hpp"
#include "system/fleet.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;
using namespace bpd::sim;

namespace {

std::uint64_t
digestFio(std::uint64_t h, const wl::FioResult &r)
{
    h = fnv(h, r.ops);
    h = fnv(h, r.bytes);
    h = fnv(h, r.elapsed);
    h = fnv(h, r.latency.count());
    h = fnv(h, r.latency.min());
    h = fnv(h, r.latency.max());
    h = fnv(h, r.latency.p50());
    h = fnv(h, r.latency.p99());
    return h;
}

/**
 * One kernel-interface job and one BypassD job on a single system.
 * traceLevel 0 runs untraced; 1..3 enable the obs tracer at that
 * verbosity — the digest must not depend on it (tracing transparency).
 * shards > 1 binds the system to a sharded executor as its only
 * domain — the digest must not depend on that either.
 */
std::uint64_t
runMixedWorkload(std::uint64_t seed, int traceLevel = 0,
                 unsigned shards = 1)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 2ull << 30;
    cfg.seed = seed;
    sys::System s(cfg);
    if (traceLevel > 0)
        s.enableTracing(static_cast<obs::Level>(traceLevel));
    std::optional<sim::SimExecutor> ex;
    if (shards > 1) {
        ex.emplace(shards);
        ex->addDomain(s.eq, 0, "sys");
        s.bindExecutor(&*ex);
    }
    wl::FioRunner runner(s);

    std::uint64_t h = kFnvSeed;
    const wl::Engine engines[] = {wl::Engine::Sync, wl::Engine::Bypassd};
    const wl::RwMode modes[] = {wl::RwMode::RandWrite, wl::RwMode::RandRead};
    int jobNum = 0;
    for (wl::Engine e : engines) {
        for (wl::RwMode rw : modes) {
            wl::FioJob job;
            job.engine = e;
            job.rw = rw;
            job.bs = 4096;
            job.numJobs = 2;
            job.runtime = 2 * kMs;
            job.warmup = 200 * kUs;
            job.fileBytes = 8ull << 20;
            job.seed = seed + jobNum;
            job.filePrefix = sim::strf("/mix%d", jobNum);
            jobNum++;
            h = digestFio(h, runner.run(job));
        }
    }
    h = fnv(h, s.now());
    h = fnv(h, s.eq.executed());
    h = fnv(h, s.store.residentBytes());
    return h;
}

/**
 * Scaled-down fleet_fio scenario: three machines, two BypassD jobs
 * each, beacon-coupled to the controller. Digest folds every
 * machine's fio stats plus the controller's delivery-order hash, so
 * any cross-shard reordering — not just dropped work — flips it.
 */
std::uint64_t
runMiniFleet(unsigned shards)
{
    sim::setVerbose(false);
    sys::FleetConfig fc;
    fc.systems = 3;
    fc.shards = shards;
    fc.deviceBytes = 1ull << 30;
    fc.seed = 11;
    fc.fabricLatencyNs = 10 * kUs;
    fc.beaconPeriodNs = 50 * kUs;
    sys::Fleet fleet(fc);

    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 2;
    job.runtime = 3 * kMs;
    job.warmup = 300 * kUs;
    job.fileBytes = 8ull << 20;

    std::vector<std::unique_ptr<wl::FioRunner>> runners;
    std::vector<wl::FioPending> pending;
    Time horizon = 0;
    for (unsigned i = 0; i < fleet.size(); i++) {
        wl::FioJob j = job;
        j.seed = 1 + i;
        j.filePrefix = sim::strf("/mini%u_f", i);
        runners.push_back(
            std::make_unique<wl::FioRunner>(fleet.system(i)));
        pending.push_back(runners.back()->arm(j));
        horizon = std::max(horizon,
                           fleet.system(i).now() + j.warmup + j.runtime);
    }
    fleet.start(horizon);
    fleet.run();

    std::uint64_t h = kFnvSeed;
    for (unsigned i = 0; i < fleet.size(); i++) {
        h = digestFio(h, runners[i]->collect(std::move(pending[i])));
        h = fnv(h, fleet.system(i).now());
        h = fnv(h, fleet.system(i).eq.executed());
    }
    h = fnv(h, fleet.controllerDigest());
    h = fnv(h, fleet.beacons());
    EXPECT_GT(fleet.beacons(), 0u);
    return h;
}

} // namespace

TEST(Determinism, SameSeedSameDigest)
{
    const std::uint64_t a = runMixedWorkload(7);
    const std::uint64_t b = runMixedWorkload(7);
    EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiffer)
{
    EXPECT_NE(runMixedWorkload(7), runMixedWorkload(8));
}

/**
 * Tracing transparency: enabling the obs tracer — at any verbosity —
 * must not perturb the simulation. Instrumentation only reads state;
 * it never schedules events or draws RNG, so the same-seed digest is
 * bit-identical whether tracing is off, requests-only, or full-device
 * detail.
 */
TEST(Determinism, TracingDoesNotPerturbDigest)
{
    const std::uint64_t off = runMixedWorkload(7);
    EXPECT_EQ(off, runMixedWorkload(7, 1)); // Level::Requests
    EXPECT_EQ(off, runMixedWorkload(7, 3)); // Level::Device
}

/**
 * Reference-model check of the execution order contract under random
 * schedule/cancel sequences: events run in (time, schedule order), and
 * cancelled events never run. A stable sort by time of the schedule
 * sequence is the specification.
 */
TEST(Determinism, RandomizedScheduleCancelMatchesReferenceModel)
{
    Rng rng(1234);
    for (int round = 0; round < 50; round++) {
        EventQueue eq;
        struct Ref
        {
            Time when;
            int tag;
            bool cancelled = false;
        };
        std::vector<Ref> refs;
        std::vector<EventId> ids;
        std::vector<int> got;

        const int k = 1 + static_cast<int>(rng.nextUint(200));
        for (int i = 0; i < k; i++) {
            const Time t = rng.nextUint(40);
            ids.push_back(eq.schedule(
                t, [&got, i]() { got.push_back(i); }));
            refs.push_back(Ref{t, i});
        }

        std::size_t live = refs.size();
        for (int i = 0; i < k; i++) {
            if (rng.nextUint(3) == 0) {
                EXPECT_TRUE(eq.cancel(ids[i]));
                EXPECT_FALSE(eq.cancel(ids[i])); // double cancel fails
                refs[i].cancelled = true;
                live--;
            }
        }
        EXPECT_EQ(eq.pending(), live);

        eq.run();

        std::stable_sort(refs.begin(), refs.end(),
                         [](const Ref &a, const Ref &b) {
                             return a.when < b.when;
                         });
        std::vector<int> expected;
        for (const Ref &r : refs) {
            if (!r.cancelled)
                expected.push_back(r.tag);
        }
        EXPECT_EQ(got, expected) << "round " << round;
        EXPECT_EQ(eq.pending(), 0u);
        EXPECT_TRUE(eq.empty());
    }
}

/** Cancellation from inside a running callback, including same-time. */
TEST(Determinism, CancelFromCallbackPreventsSameTimeEvent)
{
    EventQueue eq;
    bool bRan = false;
    EventId b = 0;
    eq.schedule(10, [&]() { EXPECT_TRUE(eq.cancel(b)); });
    b = eq.schedule(10, [&]() { bRan = true; });
    eq.run();
    EXPECT_FALSE(bRan);
    EXPECT_EQ(eq.pending(), 0u);
}

/**
 * Binding a system to a sharded executor as its only domain must be
 * byte-for-byte invisible: same windows of execution, same digest.
 */
TEST(ShardDeterminism, BoundSingleSystemMatchesPlainDigest)
{
    const std::uint64_t plain = runMixedWorkload(7);
    EXPECT_EQ(plain, runMixedWorkload(7, 0, 2));
    EXPECT_EQ(plain, runMixedWorkload(7, 0, 4));
}

/**
 * The beacon-coupled mini fleet exchanges real cross-domain messages;
 * its digest (fio stats + controller delivery-order hash) must be
 * identical at 1, 2, and 4 shards (4 clamps to the 3 machines).
 */
TEST(ShardDeterminism, FleetDigestInvariantAcrossShardCounts)
{
    const std::uint64_t one = runMiniFleet(1);
    EXPECT_EQ(one, runMiniFleet(2));
    EXPECT_EQ(one, runMiniFleet(4));
}
