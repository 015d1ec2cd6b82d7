/**
 * @file
 * ext4-like file system (no data journaling), the kernel FS that BypassD
 * builds on (Section 4). Responsibilities:
 *
 *  - namespace: directories, create/unlink/resolve;
 *  - block management: goal-directed extent allocation, zero-on-allocate
 *    (security requirement, Section 4.1/5.3), truncation with block reuse
 *    deferred to the next sync point (Section 3.6 race mitigation);
 *  - metadata journaling with crash recovery;
 *  - mapping file ranges to device extents for the data path.
 *
 * Every metadata mutation is expressed as a journal record and funnelled
 * through apply(), so crash recovery (checkpoint + committed-record
 * replay) is replay-equivalent to live execution by construction.
 */

#ifndef BPD_FS_EXT4_HPP
#define BPD_FS_EXT4_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fs/block_allocator.hpp"
#include "fs/inode.hpp"
#include "fs/journal.hpp"
#include "fs/types.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"
#include "ssd/block_store.hpp"

namespace bpd::fs {

/** A device extent for I/O, produced by mapRange(). */
struct Seg
{
    DevAddr addr;
    std::uint64_t len;

    bool operator==(const Seg &) const = default;
};

struct FsConfig
{
    /** Blocks reserved at the front of the device for metadata. */
    BlockNo firstDataBlock = 64;
    /** Zero newly allocated blocks (must stay on; tested invariant). */
    bool zeroNewBlocks = true;
};

class Ext4Fs
{
  public:
    static constexpr InodeNum kRootIno = 1;

    /**
     * Format and mount a file system over @p media.
     * @param eq Optional clock for timestamps.
     */
    Ext4Fs(ssd::BlockStore &media, FsConfig cfg = {},
           sim::EventQueue *eq = nullptr);
    ~Ext4Fs(); // out of line: Checkpoint is incomplete here

    /** @name Namespace operations */
    ///@{
    FsStatus create(const std::string &path, std::uint16_t mode,
                    const Credentials &creds, InodeNum *out);
    FsStatus mkdir(const std::string &path, std::uint16_t mode,
                   const Credentials &creds, InodeNum *out);
    FsStatus resolve(const std::string &path, InodeNum *out) const;
    FsStatus unlink(const std::string &path, const Credentials &creds);

    /**
     * Atomically rename @p from to @p to (replacing an existing target
     * file if not open). One journal transaction: either both dirent
     * updates survive a crash or neither does.
     */
    FsStatus rename(const std::string &from, const std::string &to,
                    const Credentials &creds);
    ///@}

    /** Inode by number (nullptr when absent). */
    Inode *inode(InodeNum ino);
    const Inode *inode(InodeNum ino) const;

    /** Classic owner/group/other permission check. */
    static bool mayAccess(const Inode &ino, const Credentials &creds,
                          bool wantRead, bool wantWrite);

    /** @name Data-path support */
    ///@{
    /**
     * Map a byte range onto device extents.
     * @return Inval when the range exceeds the mapped file.
     */
    FsStatus mapRange(const Inode &ino, std::uint64_t off,
                      std::uint64_t len, std::vector<Seg> *out) const;

    /**
     * Extend the file to @p newSize, allocating and zeroing new blocks.
     * @param[out] newExtents The mappings added (for FTE extension).
     */
    FsStatus extendTo(Inode &ino, std::uint64_t newSize,
                      std::vector<Extent> *newExtents);

    /** fallocate: ensure blocks exist for [off, off+len); extends size. */
    FsStatus fallocate(Inode &ino, std::uint64_t off, std::uint64_t len);

    /** Shrink (or grow) to @p newSize; freed blocks defer to sync. */
    FsStatus truncate(Inode &ino, std::uint64_t newSize);

    /** Update timestamps (deferred-update semantics, Section 4.4). */
    void touch(Inode &ino, bool modified);

    /**
     * Metadata sync point: journals timestamps, releases deferred block
     * frees for reuse (Section 3.6), commits the journal.
     */
    void fsyncMeta(Inode &ino);
    ///@}

    /** @name Journal and recovery */
    ///@{
    Journal &journal() { return journal_; }

    /** Fold committed state into the checkpoint and truncate the log. */
    void checkpoint();

    /**
     * Simulated crash + remount: rebuild from the last checkpoint plus
     * committed journal records of @p crashed (in-memory fast path).
     */
    static std::unique_ptr<Ext4Fs> recover(ssd::BlockStore &media,
                                           const Ext4Fs &crashed);

    /**
     * Mount from the device bytes alone: read the superblock, load the
     * checkpoint image, and replay every intact journal transaction
     * (torn commits are detected by checksum and ignored). This is the
     * real crash-recovery path — it uses no state from the crashed
     * instance.
     */
    static std::unique_ptr<Ext4Fs>
    recoverFromMedia(ssd::BlockStore &media,
                     sim::EventQueue *eq = nullptr);
    ///@}

    /** @name On-disk metadata layout (for tests) */
    ///@{
    BlockNo journalStartBlock() const { return journalStart_; }
    ///@}

    /**
     * Consistency check: bitmap/extent agreement, no double-referenced
     * blocks, dirent validity, full-mapping invariant.
     * @param why Filled with the first violation found.
     */
    bool fsck(std::string *why = nullptr) const;

    BlockAllocator &allocator() { return alloc_; }
    ssd::BlockStore &media() { return media_; }

    /**
     * Per-inode placement for multi-device volumes: the hook returns
     * the [lo, hi) block range an inode's data may occupy, and every
     * allocation for that inode stays inside it (so a file never
     * straddles a device slot). Null (the default) keeps the classic
     * whole-device goal-directed allocator — single-device behavior
     * is bit-identical. Journal replay reserves recorded runs
     * directly, so recovery is placement-agnostic.
     */
    using PlacementFn
        = std::function<std::pair<BlockNo, BlockNo>(const Inode &)>;
    void setPlacement(PlacementFn fn) { placement_ = std::move(fn); }

    /** @name Statistics */
    ///@{
    std::uint64_t metadataOps() const { return metadataOps_; }
    std::uint64_t extentLookups() const { return extentLookups_; }
    std::uint64_t blocksZeroed() const { return blocksZeroed_; }
    ///@}

    /**
     * Attach the per-tenant counter table and the kernel's active-
     * tenant slot (both null = disabled). Wires the journal too, so
     * records and metadata ops are attributed at the same program
     * points as the aggregate stats.
     */
    void setTenantAccounting(obs::TenantAccounting *a,
                             const TenantId *activeTenant)
    {
        acct_ = a;
        activeTenant_ = activeTenant;
        journal_.setTenantAccounting(a, activeTenant);
    }

  private:
    struct Checkpoint;
    struct RawMountTag
    {
    };

    /** Non-formatting constructor used by recoverFromMedia(). */
    Ext4Fs(ssd::BlockStore &media, FsConfig cfg, sim::EventQueue *eq,
           RawMountTag);

    static BlockNo computeFirstData(const ssd::BlockStore &media,
                                    const FsConfig &cfg);

    Time now() const;
    FsStatus resolveParent(const std::string &path, InodeNum *parent,
                           std::string *leaf) const;
    FsStatus makeNode(const std::string &path, FileType type,
                      std::uint16_t mode, const Credentials &creds,
                      InodeNum *out);
    void apply(const JRecord &rec, bool live);
    void logAndApply(JRecord rec);
    void persistTxn(const std::vector<JRecord> &txn);
    void persistCheckpointImage();
    void writeSuperblock(std::uint64_t imageBytes);
    void zeroRun(BlockNo start, std::uint64_t count);
    FsStatus allocateRun(const Inode &ino, std::uint64_t want,
                         BlockNo goal, BlockNo *start,
                         std::uint64_t *got);
    void takeCheckpoint();

    /** metadataOps_++ plus per-tenant attribution (same site). */
    void noteMetadataOp()
    {
        metadataOps_++;
        if (acct_)
            acct_->of(activeTenant_ ? *activeTenant_ : kSystemTenant)
                .fsMetadataOps++;
    }

    ssd::BlockStore &media_;
    FsConfig cfg_;
    sim::EventQueue *eq_;
    BlockAllocator alloc_;
    Journal journal_;

    std::map<InodeNum, std::unique_ptr<Inode>> inodes_;
    InodeNum nextIno_ = kRootIno + 1;

    std::unique_ptr<Checkpoint> checkpoint_;

    /** On-disk metadata layout. */
    BlockNo journalStart_ = 1;
    std::uint64_t journalBlocks_ = 0;
    BlockNo cpStart_ = 0;
    std::uint64_t cpBlocks_ = 0;
    std::uint64_t journalOff_ = 0; //!< append offset within the region

    std::uint64_t metadataOps_ = 0;
    mutable std::uint64_t extentLookups_ = 0;
    std::uint64_t blocksZeroed_ = 0;

    obs::TenantAccounting *acct_ = nullptr;
    const TenantId *activeTenant_ = nullptr;

    PlacementFn placement_;
};

} // namespace bpd::fs

#endif // BPD_FS_EXT4_HPP
