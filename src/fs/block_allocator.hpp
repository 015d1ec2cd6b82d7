/**
 * @file
 * Bitmap block allocator, ext4-style: goal-directed first fit returning
 * contiguous runs so files stay mostly extent-contiguous.
 */

#ifndef BPD_FS_BLOCK_ALLOCATOR_HPP
#define BPD_FS_BLOCK_ALLOCATOR_HPP

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bpd::fs {

class BlockAllocator
{
  public:
    /**
     * @param totalBlocks Device size in 4 KiB blocks.
     * @param firstDataBlock Blocks below this are reserved for metadata.
     */
    BlockAllocator(std::uint64_t totalBlocks, BlockNo firstDataBlock);

    /**
     * Allocate up to @p want contiguous blocks, preferring @p goal.
     * @return (start, got) with 1 <= got <= want, or nullopt when full.
     */
    std::optional<std::pair<BlockNo, std::uint64_t>>
    alloc(std::uint64_t want, BlockNo goal);

    /**
     * Range-constrained alloc: like alloc(), but only blocks in
     * [lo, hi) are candidates (the run never crosses @p hi). This is
     * the placement primitive for the multi-device volume: each
     * inode's extents stay inside its home device's slot range.
     */
    std::optional<std::pair<BlockNo, std::uint64_t>>
    allocIn(std::uint64_t want, BlockNo goal, BlockNo lo, BlockNo hi);

    /** Free a run. Double frees panic. */
    void free(BlockNo start, std::uint64_t count);

    /**
     * Mark a specific run allocated (journal replay path). Panics when
     * any block is already allocated.
     */
    void reserve(BlockNo start, std::uint64_t count);

    bool isAllocated(BlockNo b) const;
    std::uint64_t freeBlocks() const { return freeCount_; }
    BlockNo firstDataBlock() const { return firstData_; }

    /** Serialize for checkpointing. */
    std::vector<std::uint64_t> snapshotWords() const { return bits_; }
    void restoreWords(std::vector<std::uint64_t> words,
                      std::uint64_t freeCount);

  private:
    bool testBit(std::uint64_t b) const;
    void setBit(std::uint64_t b);
    void clearBit(std::uint64_t b);
    /** Length of the free run starting at @p b, capped at @p cap. */
    std::uint64_t freeRunAt(BlockNo b, std::uint64_t cap) const;

    std::uint64_t total_;
    BlockNo firstData_;
    std::uint64_t freeCount_;
    std::vector<std::uint64_t> bits_;
};

} // namespace bpd::fs

#endif // BPD_FS_BLOCK_ALLOCATOR_HPP
