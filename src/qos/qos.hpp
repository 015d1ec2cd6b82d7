/**
 * @file
 * Per-tenant QoS: token-bucket rate caps enforced at every submission
 * site, plus the weight table the SSD model's weighted-fair SQ
 * arbitration reads (SPDK bdev-QoS shape: enforce at submission,
 * arbitrate at dispatch).
 *
 * A tenant may carry an IOPS cap, a bytes/sec cap, both, or neither
 * (weight-only entries shape dispatch without rate limiting). Buckets
 * refill in VIRTUAL time with exact integer arithmetic — a fractional
 * remainder carries the sub-token credit, so refill is bit-exact and
 * independent of how often the bucket is inspected. Over-limit
 * submissions are never dropped: callers park them on the tenant's
 * FIFO and the registry drains in order as tokens accrue, scheduling
 * one deterministic drain event at the computed ready time.
 *
 * Every submission site passes through the one gate, qos::admit(),
 * which follows the obs:: null-pointer discipline: a null registry is
 * one branch and runs the submission in place (zero allocations —
 * asserted by test_obs_alloc). A registry with no entry for a tenant
 * admits it unconditionally without touching any state, so enabling
 * QoS with no limits is digest-neutral.
 *
 * Ordering invariant: once a tenant has a parked backlog, every new
 * submission parks behind it (tryAcquire refuses even when tokens are
 * available), so per-tenant submission order is preserved end to end.
 */

#ifndef BPD_QOS_QOS_HPP
#define BPD_QOS_QOS_HPP

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "common/types.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring.hpp"

namespace bpd::qos {

/** Per-tenant policy. Zero rate = unlimited on that axis. */
struct TenantLimit
{
    std::uint64_t iopsLimit = 0;   //!< ops per second (0 = unlimited)
    std::uint64_t bytesPerSec = 0; //!< payload bytes/sec (0 = unlimited)
    /** Bucket depth in ops; 0 picks 1 ms worth (min 1). */
    std::uint64_t burstOps = 0;
    /** Bucket depth in bytes; 0 picks 1 ms worth (min 4096). */
    std::uint64_t burstBytes = 0;
    /** Weighted-fair SQ arbitration weight (commands per RR turn). */
    std::uint32_t weight = 1;
};

class Registry
{
  public:
    explicit Registry(sim::EventQueue &eq) : eq_(eq) {}
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Attribute throttle counters per tenant (null = totals only). */
    void setAccounting(obs::TenantAccounting *acct) { acct_ = acct; }

    /** Install or replace @p t's policy. Buckets start full. */
    void
    setLimit(TenantId t, const TenantLimit &lim)
    {
        State &s = states_[t];
        s.limit = lim;
        initBucket(s.ops, lim.iopsLimit,
                   lim.burstOps ? lim.burstOps
                                : std::max<std::uint64_t>(
                                      1, lim.iopsLimit / 1000));
        initBucket(s.bytes, lim.bytesPerSec,
                   lim.burstBytes ? lim.burstBytes
                                  : std::max<std::uint64_t>(
                                        4096, lim.bytesPerSec / 1000));
        s.lastRefill = eq_.now();
    }

    /** Dispatch weight; unregistered tenants (and weight 0) count 1. */
    std::uint32_t
    weightOf(TenantId t) const
    {
        const auto it = states_.find(t);
        if (it == states_.end())
            return 1;
        return std::max<std::uint32_t>(1, it->second.limit.weight);
    }

    /**
     * Charge @p ops / @p bytes against @p t's buckets at the current
     * virtual time. True = admitted (tokens charged, submit now).
     * False = over limit or behind a parked backlog: the submission
     * must park() instead of issuing. Unlimited tenants are admitted
     * without touching any state. Submission sites go through
     * qos::admit(), which pairs the two calls.
     */
    bool
    tryAcquire(TenantId t, std::uint64_t ops, std::uint64_t bytes)
    {
        const auto it = states_.find(t);
        if (it == states_.end())
            return true;
        State &s = it->second;
        if (!s.limit.iopsLimit && !s.limit.bytesPerSec)
            return true; // weight-only entry
        if (!s.parked.empty())
            return false; // FIFO: never overtake the backlog
        refill(s);
        if (!afford(s.ops, ops) || !afford(s.bytes, bytes))
            return false;
        charge(s.ops, ops);
        charge(s.bytes, bytes);
        s.admits++;
        admits_++;
        return true;
    }

    /**
     * Park an over-limit submission on @p t's FIFO. @p resume runs —
     * with the tokens already charged — when the bucket can afford it;
     * parked I/O is delayed, never dropped. One drain event per tenant
     * is armed at the deterministic ready time of the queue head.
     * @p resume is move-only, so a submission can park its completion
     * callback without copying it.
     */
    void
    park(TenantId t, std::uint64_t ops, std::uint64_t bytes,
         sim::EventQueue::Callback resume)
    {
        State &s = states_[t];
        s.parked.push_back(Parked{ops, bytes, std::move(resume)});
        s.throttles++;
        s.throttledBytes += bytes;
        throttles_++;
        throttledBytes_ += bytes;
        if (acct_) {
            obs::TenantCounters &c = acct_->of(t);
            c.qosThrottles++;
            c.qosThrottledBytes += bytes;
        }
        scheduleDrain(t, s);
    }

    /** @name Registry-wide totals (verifyTenantSums counterparts) */
    ///@{
    std::uint64_t throttles() const { return throttles_; }
    std::uint64_t throttledBytes() const { return throttledBytes_; }
    std::uint64_t admits() const { return admits_; }
    ///@}

    /** @name Per-tenant introspection (tests, benches) */
    ///@{
    std::uint64_t
    throttlesOf(TenantId t) const
    {
        const auto it = states_.find(t);
        return it == states_.end() ? 0 : it->second.throttles;
    }

    std::uint64_t
    parkedOf(TenantId t) const
    {
        const auto it = states_.find(t);
        return it == states_.end() ? 0 : it->second.parked.size();
    }
    ///@}

  private:
    /** One rate dimension. tokens is signed: an oversize request (need
     *  > burst) is admitted at full bucket and borrows, so it throttles
     *  instead of stalling forever. */
    struct Bucket
    {
        std::uint64_t rate = 0;  //!< units per second
        std::uint64_t burst = 0; //!< bucket depth
        std::int64_t tokens = 0;
        std::uint64_t frac = 0; //!< refill remainder, < 1e9 (ns scale)
    };

    struct Parked
    {
        std::uint64_t ops = 0;
        std::uint64_t bytes = 0;
        sim::EventQueue::Callback fn;
    };

    struct State
    {
        TenantLimit limit;
        Bucket ops;
        Bucket bytes;
        Time lastRefill = 0;
        sim::Ring<Parked> parked;
        bool drainArmed = false;
        std::uint64_t throttles = 0;
        std::uint64_t throttledBytes = 0;
        std::uint64_t admits = 0;
    };

    static void
    initBucket(Bucket &b, std::uint64_t rate, std::uint64_t burst)
    {
        b.rate = rate;
        b.burst = burst;
        b.tokens = static_cast<std::int64_t>(burst); // start full
        b.frac = 0;
    }

    static constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;

    /** Exact virtual-time refill: credit = rate * dt ns / 1e9, with the
     *  sub-token remainder carried in frac so no credit is ever lost to
     *  rounding (until the bucket clamps full, where excess is spilled —
     *  remainder included, or an idle tenant would bank a phantom
     *  token). */
    void
    refill(State &s)
    {
        const Time now = eq_.now();
        const Time dt = now - s.lastRefill;
        s.lastRefill = now;
        if (dt == 0)
            return;
        refillBucket(s.ops, dt);
        refillBucket(s.bytes, dt);
    }

    static void
    refillBucket(Bucket &b, Time dt)
    {
        if (!b.rate)
            return;
        const unsigned __int128 num
            = static_cast<unsigned __int128>(b.rate) * dt + b.frac;
        const unsigned __int128 add = num / kNsPerSec;
        b.frac = static_cast<std::uint64_t>(num % kNsPerSec);
        unsigned __int128 t
            = static_cast<unsigned __int128>(
                  static_cast<std::int64_t>(b.burst) - b.tokens);
        if (add >= t) { // clamps full: spill excess and remainder
            b.tokens = static_cast<std::int64_t>(b.burst);
            b.frac = 0;
        } else {
            b.tokens += static_cast<std::int64_t>(add);
        }
    }

    static bool
    afford(const Bucket &b, std::uint64_t need)
    {
        if (!b.rate || need == 0)
            return true;
        const std::uint64_t capped = std::min(need, b.burst);
        return b.tokens >= static_cast<std::int64_t>(capped);
    }

    static void
    charge(Bucket &b, std::uint64_t need)
    {
        if (b.rate)
            b.tokens -= static_cast<std::int64_t>(need);
    }

    /** Ns until afford(b, need) holds, assuming no other charge. */
    static Time
    readyDelay(const Bucket &b, std::uint64_t need)
    {
        if (!b.rate || need == 0)
            return 0;
        const auto capped = static_cast<std::int64_t>(
            std::min(need, b.burst));
        if (b.tokens >= capped)
            return 0;
        const unsigned __int128 deficitNum
            = static_cast<unsigned __int128>(capped - b.tokens)
                  * kNsPerSec
              - b.frac;
        return static_cast<Time>((deficitNum + b.rate - 1) / b.rate);
    }

    void
    scheduleDrain(TenantId t, State &s)
    {
        if (s.drainArmed || s.parked.empty())
            return;
        refill(s);
        const Parked &head = s.parked.front();
        const Time delay = std::max(readyDelay(s.ops, head.ops),
                                    readyDelay(s.bytes, head.bytes));
        s.drainArmed = true;
        eq_.after(std::max<Time>(delay, 1), [this, t] { drain(t); });
    }

    void
    drain(TenantId t)
    {
        const auto it = states_.find(t);
        if (it == states_.end())
            return;
        State &s = it->second;
        s.drainArmed = false;
        refill(s);
        while (!s.parked.empty() && afford(s.ops, s.parked.front().ops)
               && afford(s.bytes, s.parked.front().bytes)) {
            Parked p = std::move(s.parked.front());
            s.parked.pop_front();
            charge(s.ops, p.ops);
            charge(s.bytes, p.bytes);
            s.admits++;
            admits_++;
            // May re-enter park()/tryAcquire for this tenant; the
            // backlog check in tryAcquire keeps FIFO order and the
            // drainArmed flag keeps at most one event outstanding.
            p.fn();
        }
        scheduleDrain(t, s);
    }

    sim::EventQueue &eq_;
    obs::TenantAccounting *acct_ = nullptr;
    std::map<TenantId, State> states_;
    std::uint64_t throttles_ = 0;
    std::uint64_t throttledBytes_ = 0;
    std::uint64_t admits_ = 0;
};

/**
 * The QoS gate of every submission site. Runs @p fn in place when
 * @p reg is null or admits @p ops / @p bytes for tenant @p t; otherwise
 * parks @p fn on the tenant's FIFO, to run with the tokens charged once
 * the buckets refill. The admitted path type-erases nothing: only a
 * parked closure is converted to an EventQueue::Callback (which may
 * allocate when its captures exceed the inline buffer).
 */
template <typename Fn>
void
admit(Registry *reg, TenantId t, std::uint64_t ops, std::uint64_t bytes,
      Fn &&fn)
{
    if (!reg || reg->tryAcquire(t, ops, bytes))
        fn();
    else
        reg->park(t, ops, bytes, std::forward<Fn>(fn));
}

} // namespace bpd::qos

#endif // BPD_QOS_QOS_HPP
