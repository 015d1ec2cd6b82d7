/**
 * @file
 * Discrete-event simulation engine. A single EventQueue owns virtual time;
 * every component in the simulated machine schedules callbacks on it.
 *
 * Events scheduled for the same instant run in scheduling order (FIFO),
 * which makes simulations deterministic for a fixed seed.
 *
 * Hot-path design (every simulated I/O is several events, so macro runs
 * execute tens of millions):
 *  - callbacks are stored in a small-buffer-optimized InlineFunction, so
 *    the schedule/run fast path performs no heap allocation;
 *  - callback state lives in a slab of generation-stamped slots recycled
 *    through a free list; an EventId encodes (slot, generation), which
 *    makes cancel() an O(1) stamp check with no tombstone set;
 *  - the ready queue is an implicit 4-ary min-heap of 16-byte entries
 *    (shallower than a binary heap, and four children share a cache
 *    line), ordered by (time, sequence) for deterministic FIFO ties.
 */

#ifndef BPD_SIM_EVENT_QUEUE_HPP
#define BPD_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/inline_function.hpp"

namespace bpd::sim {

/**
 * Identifier returned by schedule(); usable for cancellation. Encodes a
 * slab slot and its generation stamp; ids of executed or cancelled
 * events go stale and can never alias a live event.
 */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kNoEvent = 0;

/** Sentinel time: "no pending event" / "unbounded window". */
constexpr Time kNever = ~static_cast<Time>(0);

/**
 * Inline storage for event callbacks; larger captures go to the heap.
 * Sized for the per-command stage captures of the I/O engines (a
 * request's arguments plus the caller's std::function, ~120 B), so the
 * simulated command path schedules without allocating.
 */
constexpr std::size_t kEventCallbackInlineBytes = 128;

/**
 * A deterministic min-heap event queue driving virtual nanosecond time.
 */
class EventQueue
{
  public:
    using Callback
        = InlineFunction<void(), kEventCallbackInlineBytes>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current virtual time in nanoseconds. */
    Time now() const { return now_; }

    /**
     * Schedule a callback at an absolute virtual time.
     * @param when Absolute time; must be >= now().
     * @param cb Callback to invoke.
     * @return Id usable with cancel().
     */
    EventId schedule(Time when, Callback cb);

    /** Schedule a callback @p delay nanoseconds from now. */
    EventId after(Time delay, Callback cb);

    /**
     * Cancel a pending event.
     * @retval true if the event was pending and is now cancelled.
     * Stale ids (already executed or already cancelled) return false.
     */
    bool cancel(EventId id);

    /** Run the earliest pending event. @retval false if queue empty. */
    bool runOne();

    /** Run until no events remain. */
    void run();

    /**
     * Run all events with time <= @p t, then advance the clock to @p t.
     * @return Number of events executed.
     */
    std::size_t runUntil(Time t);

    /**
     * Timestamp of the earliest pending event, or kNever when none.
     * Discards cancelled heads, so the answer names a live event.
     */
    Time nextEventTime();

    /**
     * Run all events with time < @p endExclusive. Unlike runUntil()
     * the clock is NOT advanced past the last executed event: the
     * sharded executor calls this per conservative window, and a
     * cross-shard message may still be delivered anywhere inside
     * [now(), endExclusive) afterwards. runWindow(kNever) drains the
     * queue.
     * @return Number of events executed.
     */
    std::size_t runWindow(Time endExclusive);

    /** Pending (non-cancelled) event count. */
    std::size_t pending() const { return live_; }

    /** True when no runnable events remain. */
    bool empty() const { return live_ == 0; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Ready-queue entry: 16 bytes, no callback payload. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq; //!< schedule order; breaks same-time ties FIFO
        std::uint32_t slot;
    };

    /** Slab slot owning one scheduled callback. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 1;  //!< bumped on release; stales old ids
        std::uint32_t nextFree = kNilSlot;
        bool armed = false;     //!< scheduled and not cancelled
    };

    static constexpr std::uint32_t kNilSlot = 0xffffffffu;

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    std::uint32_t allocSlot();
    void releaseSlot(std::uint32_t slot);
    void heapPush(const HeapEntry &e);
    HeapEntry heapPop();
    bool popAndRun();

    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
    std::vector<HeapEntry> heap_; //!< implicit 4-ary min-heap
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNilSlot;
};

namespace detail {
/** Representative hot-path capture: this must not hit the heap. */
struct ProbeCapture
{
    void *a, *b, *c, *d;
    std::uint64_t e, f;
};
static_assert(
    EventQueue::Callback::fitsInline<decltype([p = ProbeCapture{}]() {
        (void)p;
    })>,
    "common event-callback captures must fit the inline buffer");
} // namespace detail

} // namespace bpd::sim

#endif // BPD_SIM_EVENT_QUEUE_HPP
