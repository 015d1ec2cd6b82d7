/**
 * @file
 * One I/O request from its outermost submission site to its completion
 * (DESIGN.md §9): the site that accepts an I/O from the caller opens
 * one kern::Request, every stage below takes that one value, and the
 * stage that completes the I/O finishes it.
 */

#ifndef BPD_KERN_REQUEST_HPP
#define BPD_KERN_REQUEST_HPP

#include <cstdint>
#include <functional>
#include <utility>

#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/logging.hpp"

namespace bpd::kern {

/** Per-request time attribution (Fig. 7 breakdown). */
struct IoTrace
{
    Time userNs = 0;
    Time kernelNs = 0;
    Time deviceNs = 0;
    Time translateNs = 0;

    Time
    total() const
    {
        return userNs + kernelNs + deviceNs + translateNs;
    }
};

/** Data-op completion: byte count (or negative FsStatus) + attribution. */
using IoCb = std::function<void(long long, IoTrace)>;

/** Who a device I/O is for: the trace id its commands carry (0 when
 *  untraced) and the tenant it is billed to and QoS-gated as. */
struct IoIdentity
{
    obs::TraceId trace = 0;
    TenantId tenant = kSystemTenant;
};

/**
 * A move-only record of one I/O: the caller's completion, the trace id
 * and the tenant. Traced, it holds a slot of its tracer's envelope
 * table, which keeps the trace id and the envelope's name, track and
 * start; so the record fits where a completion and a trace id did.
 */
class Request
{
  public:
    Request() = default;

    /** An untraced request of @p tenant completing through @p done. */
    Request(IoCb done, TenantId tenant)
        : done_(std::move(done)), tenant_(tenant)
    {
    }

    Request(Request &&) noexcept = default;
    Request &operator=(Request &&) noexcept = default;

    obs::TraceId
    trace() const
    {
        return tracer_ ? tracer_->envelopeTrace(slot_) : 0;
    }

    TenantId tenant() const { return tenant_; }

    IoIdentity identity() const { return {trace(), tenant_}; }

    /** Record the envelope (when traced) from open until now with
     *  result @p n and attribution @p tr, then run the completion.
     *  Panics on a request that already completed. */
    void finish(long long n, IoTrace tr) { complete(n, tr, true); }

    /** Run the completion with @p err and record no envelope: the
     *  request was failed before any layer completed it. */
    void cancel(long long err) { complete(err, IoTrace{}, false); }

    /** A request with this one's trace id and tenant that completes
     *  through @p done and records no envelope (work that outlives the
     *  caller's completion, such as a non-blocking write's device
     *  write). */
    Request
    child(IoCb done) const
    {
        if (!tracer_)
            return Request(std::move(done), tenant_);
        return Request(std::move(done), tracer_,
                       tracer_->openEnvelope(trace(), nullptr, 0), tenant_);
    }

    /**
     * Run @p stage between the layers below and this request's
     * envelope: when a lower layer finishes the request, stage(n, tr,
     * up) runs, where @p up is this request as it was before the call
     * (envelope still open), which the stage must finish or hand on.
     */
    template <typename Stage>
    void
    intercept(Stage stage)
    {
        *this = child([stage = std::move(stage), done = std::move(done_),
                       tracer = tracer_, slot = slot_,
                       tenant = tenant_](long long n, IoTrace tr) mutable {
            stage(n, tr, Request(std::move(done), tracer, slot, tenant));
        });
    }

    /** Name the envelope's track when it was not known at open. */
    void
    setTrack(std::uint16_t track)
    {
        if (tracer_)
            tracer_->setEnvelopeTrack(slot_, track);
    }

  private:
    friend Request openRequest(obs::Tracer *, TenantId, const char *,
                               const char *, std::uint64_t, IoCb);

    Request(IoCb done, obs::Tracer *tracer, std::uint32_t slot,
            TenantId tenant)
        : done_(std::move(done)), tracer_(tracer), slot_(slot),
          tenant_(tenant)
    {
    }

    void
    complete(long long n, IoTrace tr, bool record)
    {
        sim::panicIf(!done_, "request completed twice");
        if (tracer_) {
            // The envelope carries the Table 1 breakdown of @p tr.
            if (record)
                tracer_->closeEnvelope(
                    slot_, {tr.userNs, tr.kernelNs, tr.translateNs,
                            tr.deviceNs,
                            n > 0 ? static_cast<std::uint64_t>(n) : 0});
            else
                tracer_->dropEnvelope(slot_);
            tracer_ = nullptr;
        }
        IoCb done = std::move(done_);
        done(n, tr);
    }

    IoCb done_;
    obs::Tracer *tracer_ = nullptr; //!< null when untraced
    std::uint32_t slot_ = 0;        //!< envelope slot when traced
    TenantId tenant_ = kSystemTenant;
};

static_assert(sizeof(Request) <= 48,
              "a Request must fit where a completion and a trace id did");

/**
 * Open the request of one I/O at its outermost submission site (the
 * @p name envelope when @p t is not null, on the track
 * "<trackPrefix><trackId>"; a null @p trackPrefix leaves the track to
 * Request::setTrack). @p name and @p trackPrefix must be literals.
 */
inline Request
openRequest(obs::Tracer *t, TenantId tenant, const char *name,
            const char *trackPrefix, std::uint64_t trackId, IoCb done)
{
    if (!t)
        return Request(std::move(done), tenant);
    const obs::TraceId trace = t->newTrace(tenant);
    const std::uint16_t track
        = trackPrefix ? t->track(trackPrefix, trackId) : 0;
    return Request(std::move(done), t, t->openEnvelope(trace, name, track),
                   tenant);
}

} // namespace bpd::kern

#endif // BPD_KERN_REQUEST_HPP
