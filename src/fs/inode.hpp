/**
 * @file
 * In-memory inode. BypassD keeps file-table state hanging off the cached
 * VFS inode (Section 4.1): the shared FTE frames live as long as the inode
 * stays cached, and the inode counts the opens through each interface
 * so the kernel can apply the sharing policy of Section 4.5.2.
 */

#ifndef BPD_FS_INODE_HPP
#define BPD_FS_INODE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "fs/extent_tree.hpp"
#include "fs/types.hpp"

namespace bpd::fs {

class Inode
{
  public:
    Inode(InodeNum ino, FileType type, std::uint16_t mode,
          std::uint32_t uid, std::uint32_t gid)
        : ino(ino), type(type), mode(mode), uid(uid), gid(gid)
    {
    }

    InodeNum ino;
    FileType type;
    std::uint16_t mode;
    std::uint32_t uid;
    std::uint32_t gid;
    std::uint32_t nlink = 1;

    std::uint64_t size = 0; //!< bytes

    Time atime = 0;
    Time mtime = 0;
    Time ctime = 0;

    /** Logical-to-physical block mappings. */
    ExtentTree extents;

    /** Directory entries (valid when type == Directory). */
    std::map<std::string, InodeNum> dirents;

    /**
     * Cached pre-populated file table (bypassd::FileTableCache). Opaque
     * here to keep the fs layer independent of the bypassd module; its
     * lifetime equals the inode's cache residency (Section 4.1).
     */
    std::shared_ptr<void> fileTable;

    /** @name Open-state tracking for the sharing policy (Section 4.5.2) */
    ///@{
    int kernelOpens = 0;               //!< opens via the kernel interface
    int bypassdOpens = 0;              //!< opens with BypassD intent
    Pid lastMetadataWriter = 0;        //!< for multi-writer detection
    bool metadataMultiWriter = false;  //!< two+ processes changed metadata

    /** Open through either interface (unlink/rename answer Busy). */
    bool isOpen() const { return kernelOpens > 0 || bypassdOpens > 0; }
    ///@}

    /**
     * ext4 exclusive inode write lock model: kernel-interface writes to
     * one file serialize on this (the bottleneck BypassD sidesteps for
     * KVell YCSB A, Section 6.5).
     */
    Time writeLockFreeAt = 0;

    /**
     * Blocks freed from this file may not be reused before the next sync
     * point (Section 3.6 race mitigation). The FS queues them here and
     * releases them to the allocator on fsync.
     */
    std::vector<std::pair<BlockNo, std::uint64_t>> deferredFrees;

    /**
     * Negative errno of a failed write of an evicted page of this file,
     * 0 when none: as Linux keeps writeback errors on the mapping, the
     * next fsync reports it once and clears it.
     */
    int writebackErr = 0;

    bool isDir() const { return type == FileType::Directory; }

    /** Size in 4 KiB blocks, rounded up. */
    std::uint64_t
    sizeBlocks() const
    {
        return (size + kBlockBytes - 1) / kBlockBytes;
    }
};

} // namespace bpd::fs

#endif // BPD_FS_INODE_HPP
