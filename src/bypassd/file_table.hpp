/**
 * @file
 * Pre-populated, shared file tables (Section 4.1, Fig. 4).
 *
 * A FileTableCache holds the leaf page-table frames whose entries are
 * FTEs mapping a file's blocks. One leaf frame covers 2 MiB of file (512
 * FTEs). The cache hangs off the file's VFS inode and is *shared* between
 * every process that fmap()s the file: a warm fmap() just links these
 * frames into the process page table at PMD level with per-open R/W.
 */

#ifndef BPD_BYPASSD_FILE_TABLE_HPP
#define BPD_BYPASSD_FILE_TABLE_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "fs/extent_tree.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/pte.hpp"

namespace bpd::bypassd {

/** Blocks mapped by one shared leaf frame. */
constexpr std::uint64_t kBlocksPerLeaf = kPte; // 512 -> 2 MiB

class FileTableCache
{
  public:
    /** Work counters feeding the fmap() cost model (Table 5). */
    struct BuildStats
    {
        std::uint64_t ftesWritten = 0;
        std::uint64_t extentsWalked = 0;
        std::uint64_t leavesAllocated = 0;
    };

    /**
     * @param dev The home device's DevID, stamped into every FTE; the
     *     IOMMU rejects translations from any other device.
     * @param pblkBias Block number of the home device slot's base within
     *     the volume. FTEs store slot-local block addresses (the device
     *     only knows its own address space), so volume-absolute extent
     *     pblks are rebased by subtracting this. 0 on single-device
     *     volumes.
     */
    FileTableCache(mem::FrameAllocator &fa, DevId dev,
                   BlockNo pblkBias = 0);
    ~FileTableCache();
    FileTableCache(const FileTableCache &) = delete;
    FileTableCache &operator=(const FileTableCache &) = delete;

    /** Populate FTEs for every mapped block of @p extents (cold fmap). */
    BuildStats buildFrom(const fs::ExtentTree &extents);

    /** Add FTEs for newly allocated extents (append/fallocate path). */
    BuildStats extend(const std::vector<fs::Extent> &added);

    /** Drop FTEs at or above @p blocks (truncate path). */
    void shrinkTo(std::uint64_t blocks);

    DevId devId() const { return dev_; }
    std::uint64_t mappedBlocks() const { return mappedBlocks_; }

    /** Shared leaf frames in file order. */
    const std::vector<mem::Frame> &leafFrames() const { return leaves_; }

    /** Number of leaves needed to map @p blocks blocks. */
    static std::uint64_t
    leavesFor(std::uint64_t blocks)
    {
        return (blocks + kBlocksPerLeaf - 1) / kBlocksPerLeaf;
    }

    /**
     * Per-process attachment registry (which VBA each PID mapped this
     * file at, and with what permission); maintained by BypassdModule and
     * consulted during revocation and extension.
     */
    struct Attachment
    {
        Vaddr vba;
        std::uint64_t regionBytes;
        bool writable;
        std::uint64_t attachedLeaves;
    };
    std::map<Pid, Attachment> attachments;

  private:
    void ensureLeaves(std::uint64_t blocks, BuildStats *stats);
    void setFte(std::uint64_t blockIdx, BlockNo pblk, BuildStats *stats);

    mem::FrameAllocator &fa_;
    DevId dev_;
    BlockNo bias_;
    std::vector<mem::Frame> leaves_;
    std::uint64_t mappedBlocks_ = 0;
};

} // namespace bpd::bypassd

#endif // BPD_BYPASSD_FILE_TABLE_HPP
