#include "mem/frame_allocator.hpp"

#include "sim/logging.hpp"

namespace bpd::mem {

FrameAllocator::FrameAllocator()
{
    frames_.push_back(nullptr); // frame 0 reserved as null
    liveMap_.push_back(false);
}

Frame
FrameAllocator::alloc()
{
    Frame f;
    if (!freeList_.empty()) {
        f = freeList_.back();
        freeList_.pop_back();
        frames_[f] = std::make_unique<Table>();
    } else {
        f = static_cast<Frame>(frames_.size());
        frames_.push_back(std::make_unique<Table>());
        liveMap_.push_back(false);
    }
    frames_[f]->fill(0);
    liveMap_[f] = true;
    live_++;
    return f;
}

void
FrameAllocator::checkLive(Frame f) const
{
    // Branch before formatting: this guard runs on every frame access,
    // and building the message eagerly would dominate the walk hot path.
    if (f == kNullFrame || f >= frames_.size() || !liveMap_[f])
        [[unlikely]]
        sim::panic(sim::strf("access to dead frame %u", f));
}

void
FrameAllocator::free(Frame f)
{
    checkLive(f);
    frames_[f].reset();
    liveMap_[f] = false;
    freeList_.push_back(f);
    live_--;
}

std::uint64_t *
FrameAllocator::table(Frame f)
{
    checkLive(f);
    return frames_[f]->data();
}

const std::uint64_t *
FrameAllocator::table(Frame f) const
{
    checkLive(f);
    return frames_[f]->data();
}

} // namespace bpd::mem
