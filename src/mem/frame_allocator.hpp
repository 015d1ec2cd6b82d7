/**
 * @file
 * Simulated physical frames backing page tables. Page-table walkers (host
 * MMU software walks and the IOMMU) read frames through this allocator,
 * so sharing a frame between two address spaces is a real pointer share,
 * exactly like sharing a physical page-table page.
 */

#ifndef BPD_MEM_FRAME_ALLOCATOR_HPP
#define BPD_MEM_FRAME_ALLOCATOR_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace bpd::mem {

/** Frame number; 0 is the null frame. */
using Frame = std::uint32_t;

constexpr Frame kNullFrame = 0;

/**
 * Allocator of 4 KiB page-table frames (512 x 64-bit entries each).
 */
class FrameAllocator
{
  public:
    FrameAllocator();
    FrameAllocator(const FrameAllocator &) = delete;
    FrameAllocator &operator=(const FrameAllocator &) = delete;

    /** Allocate a zeroed frame. */
    Frame alloc();

    /** Free a frame. Double frees panic. */
    void free(Frame f);

    /** Mutable view of a frame's 512 entries. */
    std::uint64_t *table(Frame f);

    /** Read-only view of a frame's 512 entries. */
    const std::uint64_t *table(Frame f) const;

    /** Number of live (allocated, unfreed) frames. */
    std::size_t live() const { return live_; }

  private:
    using Table = std::array<std::uint64_t, kPte>;

    void checkLive(Frame f) const;

    std::vector<std::unique_ptr<Table>> frames_;
    std::vector<Frame> freeList_;
    std::vector<bool> liveMap_;
    std::size_t live_ = 0;
};

} // namespace bpd::mem

#endif // BPD_MEM_FRAME_ALLOCATOR_HPP
