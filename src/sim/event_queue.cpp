#include "sim/event_queue.hpp"

#ifdef BPD_DEBUG_PAST_SCHEDULE
#include <execinfo.h>
#endif

#include <utility>

#include "sim/logging.hpp"

namespace bpd::sim {

namespace {

/** Compose the public id from a slot index and its generation stamp. */
inline EventId
makeId(std::uint32_t slot, std::uint32_t gen)
{
    return (static_cast<EventId>(slot + 1) << 32) | gen;
}

} // namespace

std::uint32_t
EventQueue::claimSlot(Time when)
{
    if (when < now_) [[unlikely]] {
#ifdef BPD_DEBUG_PAST_SCHEDULE
        {
            void *frames[32];
            const int n = backtrace(frames, 32);
            backtrace_symbols_fd(frames, n, 2);
        }
#endif
        panic(strf("scheduling into the past: %llu < %llu",
                   (unsigned long long)when,
                   (unsigned long long)now_));
    }
    if (freeHead_ != kNilSlot) {
        const std::uint32_t s = freeHead_;
        freeHead_ = slotAt(s).nextFree;
        return s;
    }
    panicIf(slotCount_ >= (1u << kSlotBits), "event slab exhausted");
    if (slotCount_ % kSlabChunkSlots == 0)
        chunks_.push_back(std::make_unique<Slot[]>(kSlabChunkSlots));
    return slotCount_++;
}

EventId
EventQueue::arm(std::uint32_t slot, Time when)
{
    panicIf(nextSeq_ >> (64 - kSlotBits) != 0,
            "event sequence numbers exhausted");
    Slot &s = slotAt(slot);
    s.armed = true;
    heapPush(HeapEntry{when, (nextSeq_++ << kSlotBits) | slot});
    live_++;
    return makeId(slot, s.gen);
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    s.cb.reset();
    s.armed = false;
    s.gen++; // stale every outstanding id naming this slot
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::heapPush(HeapEntry e)
{
    // Move the hole up from the new leaf and write e once at the end.
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

EventQueue::HeapEntry
EventQueue::heapPop()
{
    // Move the hole down from the root and drop the last entry in.
    const HeapEntry top = heap_[0];
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; c++) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
    return top;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kNoEvent)
        return false;
    const std::uint64_t slotPlus1 = id >> 32;
    if (slotPlus1 == 0 || slotPlus1 > slotCount_)
        return false;
    Slot &s = slotAt(static_cast<std::uint32_t>(slotPlus1 - 1));
    // A running event is no longer armed: its own id cannot cancel it.
    if (!s.armed || s.gen != static_cast<std::uint32_t>(id))
        return false;
    // The heap entry stays behind as a zombie and is discarded (and the
    // slot recycled) when it surfaces; only then may the slot be reused,
    // so a live heap entry can never alias a fresh event.
    s.cb.reset();
    s.armed = false;
    live_--;
    return true;
}

void
EventQueue::dropCancelledHeads()
{
    while (!heap_.empty() && !slotAt(slotOf(heap_[0])).armed)
        releaseSlot(slotOf(heapPop()));
}

bool
EventQueue::popAndRun()
{
    while (!heap_.empty()) {
        const HeapEntry e = heapPop();
        const std::uint32_t slot = slotOf(e);
        Slot &s = slotAt(slot);
        if (!s.armed) { // cancelled; reclaim the zombie slot
            releaseSlot(slot);
            continue;
        }
        now_ = e.when;
        executed_++;
        live_--;
        // Run in place. The slot is off the free list until the
        // callback returns, and chunks never move, so the callback may
        // schedule (or run) any number of events meanwhile.
        s.armed = false;
        s.cb();
        releaseSlot(slot);
        return true;
    }
    return false;
}

bool
EventQueue::runOne()
{
    return popAndRun();
}

void
EventQueue::run()
{
    while (popAndRun()) {
    }
}

std::size_t
EventQueue::runUntil(Time t)
{
    std::size_t n = 0;
    while (!heap_.empty()) {
        // Discard cancelled heads so the head's .when is meaningful.
        dropCancelledHeads();
        if (heap_.empty() || heap_[0].when > t)
            break;
        if (popAndRun())
            ++n;
    }
    if (now_ < t)
        now_ = t;
    return n;
}

Time
EventQueue::nextEventTime()
{
    dropCancelledHeads();
    return heap_.empty() ? kNever : heap_[0].when;
}

std::size_t
EventQueue::runWindow(Time endExclusive)
{
    std::size_t n = 0;
    for (;;) {
        const Time head = nextEventTime();
        if (head == kNever || head >= endExclusive)
            break;
        if (popAndRun())
            ++n;
    }
    return n;
}

} // namespace bpd::sim
