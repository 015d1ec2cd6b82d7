#include "fs/ext4.hpp"

#include "fs/ondisk.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "sim/logging.hpp"

namespace bpd::fs {

const char *
toString(FsStatus st)
{
    switch (st) {
      case FsStatus::Ok: return "Ok";
      case FsStatus::NoEnt: return "NoEnt";
      case FsStatus::Exists: return "Exists";
      case FsStatus::Access: return "Access";
      case FsStatus::NotDir: return "NotDir";
      case FsStatus::IsDir: return "IsDir";
      case FsStatus::NoSpace: return "NoSpace";
      case FsStatus::Inval: return "Inval";
      case FsStatus::Busy: return "Busy";
      case FsStatus::NotEmpty: return "NotEmpty";
      case FsStatus::NoDev: return "NoDev";
    }
    return "?";
}

/** Deep metadata snapshot taken at checkpoint time. */
struct Ext4Fs::Checkpoint
{
    struct InodeImage
    {
        InodeNum ino;
        FileType type;
        std::uint16_t mode;
        std::uint32_t uid, gid;
        std::uint64_t size;
        Time atime, mtime, ctime;
        std::vector<Extent> extents;
        std::map<std::string, InodeNum> dirents;
    };

    std::vector<InodeImage> inodes;
    std::vector<std::uint64_t> bitmapWords;
    std::uint64_t freeBlocks;
    InodeNum nextIno;
};

namespace {

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty()) {
                parts.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

} // namespace

BlockNo
Ext4Fs::computeFirstData(const ssd::BlockStore &media, const FsConfig &cfg)
{
    // Superblock + journal region + checkpoint region, sized so that a
    // full metadata image (dominated by the block bitmap) always fits.
    const std::uint64_t journalBlocks = 1024; // 4 MiB of journal
    const std::uint64_t bitmapBytes = media.capacityBlocks() / 8 + 64;
    const std::uint64_t cpBytes = 2 * bitmapBytes + (4ull << 20);
    const std::uint64_t cpBlocks
        = (cpBytes + kBlockBytes - 1) / kBlockBytes;
    const BlockNo meta = 1 + journalBlocks + cpBlocks;
    return std::max<BlockNo>(cfg.firstDataBlock, meta);
}

Ext4Fs::Ext4Fs(ssd::BlockStore &media, FsConfig cfg, sim::EventQueue *eq)
    : media_(media), cfg_(cfg), eq_(eq),
      alloc_(media.capacityBlocks(), computeFirstData(media, cfg))
{
    journalBlocks_ = 1024;
    cpStart_ = journalStart_ + journalBlocks_;
    cpBlocks_ = alloc_.firstDataBlock() - cpStart_;
    journal_.setCommitHook(
        [this](const std::vector<JRecord> &txn) { persistTxn(txn); });

    // World-writable root (like a freshly formatted scratch mount) so
    // unprivileged tenants can create their files.
    auto root = std::make_unique<Inode>(kRootIno, FileType::Directory,
                                        0777, 0, 0);
    inodes_[kRootIno] = std::move(root);
    takeCheckpoint();
}

Ext4Fs::Ext4Fs(ssd::BlockStore &media, FsConfig cfg, sim::EventQueue *eq,
               RawMountTag)
    : media_(media), cfg_(cfg), eq_(eq),
      alloc_(media.capacityBlocks(), computeFirstData(media, cfg))
{
    journalBlocks_ = 1024;
    cpStart_ = journalStart_ + journalBlocks_;
    cpBlocks_ = alloc_.firstDataBlock() - cpStart_;
    journal_.setCommitHook(
        [this](const std::vector<JRecord> &txn) { persistTxn(txn); });
}

Ext4Fs::~Ext4Fs() = default;

Time
Ext4Fs::now() const
{
    return eq_ ? eq_->now() : 0;
}

Inode *
Ext4Fs::inode(InodeNum ino)
{
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : it->second.get();
}

const Inode *
Ext4Fs::inode(InodeNum ino) const
{
    auto it = inodes_.find(ino);
    return it == inodes_.end() ? nullptr : it->second.get();
}

bool
Ext4Fs::mayAccess(const Inode &ino, const Credentials &creds, bool wantRead,
                  bool wantWrite)
{
    if (creds.isRoot())
        return true;
    std::uint16_t r, w;
    if (creds.uid == ino.uid) {
        r = kModeUserR;
        w = kModeUserW;
    } else if (creds.gid == ino.gid) {
        r = kModeGroupR;
        w = kModeGroupW;
    } else {
        r = kModeOtherR;
        w = kModeOtherW;
    }
    if (wantRead && !(ino.mode & r))
        return false;
    if (wantWrite && !(ino.mode & w))
        return false;
    return true;
}

FsStatus
Ext4Fs::resolve(const std::string &path, InodeNum *out) const
{
    if (path.empty() || path[0] != '/')
        return FsStatus::Inval;
    const Inode *cur = inode(kRootIno);
    for (const auto &part : splitPath(path)) {
        if (!cur->isDir())
            return FsStatus::NotDir;
        auto it = cur->dirents.find(part);
        if (it == cur->dirents.end())
            return FsStatus::NoEnt;
        cur = inode(it->second);
        sim::panicIf(cur == nullptr, "dirent references dead inode");
    }
    *out = cur->ino;
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::resolveParent(const std::string &path, InodeNum *parent,
                      std::string *leaf) const
{
    if (path.empty() || path[0] != '/')
        return FsStatus::Inval;
    auto parts = splitPath(path);
    if (parts.empty())
        return FsStatus::Inval;
    *leaf = parts.back();
    parts.pop_back();
    const Inode *cur = inode(kRootIno);
    for (const auto &part : parts) {
        if (!cur->isDir())
            return FsStatus::NotDir;
        auto it = cur->dirents.find(part);
        if (it == cur->dirents.end())
            return FsStatus::NoEnt;
        cur = inode(it->second);
    }
    if (!cur->isDir())
        return FsStatus::NotDir;
    *parent = cur->ino;
    return FsStatus::Ok;
}

void
Ext4Fs::logAndApply(JRecord rec)
{
    journal_.log(rec);
    apply(rec, true);
}

void
Ext4Fs::apply(const JRecord &rec, bool live)
{
    switch (rec.op) {
      case JOp::CreateInode: {
        auto ino = std::make_unique<Inode>(
            rec.a, static_cast<FileType>(rec.b),
            static_cast<std::uint16_t>(rec.c),
            static_cast<std::uint32_t>(rec.d >> 32),
            static_cast<std::uint32_t>(rec.d & 0xffffffff));
        ino->atime = ino->mtime = ino->ctime = now();
        inodes_[rec.a] = std::move(ino);
        nextIno_ = std::max(nextIno_, rec.a + 1);
        break;
      }
      case JOp::FreeInode: {
        Inode *ino = inode(rec.a);
        sim::panicIf(ino == nullptr, "FreeInode of missing inode");
        ino->extents.clear([this](BlockNo b, std::uint64_t n) {
            alloc_.free(b, n);
        });
        for (auto &[b, n] : ino->deferredFrees)
            alloc_.free(b, n);
        inodes_.erase(rec.a);
        break;
      }
      case JOp::SetSize: {
        Inode *ino = inode(rec.a);
        sim::panicIf(ino == nullptr, "SetSize of missing inode");
        ino->size = rec.b;
        break;
      }
      case JOp::AddExtent: {
        Inode *ino = inode(rec.a);
        sim::panicIf(ino == nullptr, "AddExtent of missing inode");
        if (!live) {
            // Replay restores the allocation only; the blocks were
            // zeroed before the transaction committed, and any data
            // written after commit must survive recovery.
            alloc_.reserve(rec.c, rec.d);
        }
        ino->extents.insert(rec.b, rec.c, rec.d);
        break;
      }
      case JOp::TruncExtents: {
        Inode *ino = inode(rec.a);
        sim::panicIf(ino == nullptr, "TruncExtents of missing inode");
        ino->extents.truncateFrom(
            rec.b, [this, ino, live](BlockNo b, std::uint64_t n) {
                if (live) {
                    // Defer reuse until the next sync point (Sec. 3.6).
                    ino->deferredFrees.emplace_back(b, n);
                } else {
                    alloc_.free(b, n);
                }
            });
        break;
      }
      case JOp::AddDirent: {
        Inode *dir = inode(rec.a);
        sim::panicIf(dir == nullptr || !dir->isDir(),
                     "AddDirent target not a directory");
        dir->dirents[rec.s] = rec.b;
        break;
      }
      case JOp::RmDirent: {
        Inode *dir = inode(rec.a);
        sim::panicIf(dir == nullptr || !dir->isDir(),
                     "RmDirent target not a directory");
        dir->dirents.erase(rec.s);
        break;
      }
      case JOp::SetTimes: {
        Inode *ino = inode(rec.a);
        sim::panicIf(ino == nullptr, "SetTimes of missing inode");
        ino->mtime = rec.b;
        ino->atime = rec.c;
        break;
      }
    }
}

FsStatus
Ext4Fs::makeNode(const std::string &path, FileType type,
                 std::uint16_t mode, const Credentials &creds,
                 InodeNum *out)
{
    InodeNum parentIno;
    std::string leaf;
    FsStatus st = resolveParent(path, &parentIno, &leaf);
    if (st != FsStatus::Ok)
        return st;
    Inode *parent = inode(parentIno);
    if (parent->dirents.count(leaf))
        return FsStatus::Exists;
    if (!mayAccess(*parent, creds, false, true))
        return FsStatus::Access;

    noteMetadataOp();
    const InodeNum ino = nextIno_++;
    journal_.begin();
    logAndApply(JRecord{JOp::CreateInode, ino,
                        static_cast<std::uint64_t>(type), mode,
                        (static_cast<std::uint64_t>(creds.uid) << 32)
                            | creds.gid,
                        {}});
    logAndApply(JRecord{JOp::AddDirent, parentIno, ino, 0, 0, leaf});
    journal_.commit();
    if (out)
        *out = ino;
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::create(const std::string &path, std::uint16_t mode,
               const Credentials &creds, InodeNum *out)
{
    return makeNode(path, FileType::Regular, mode, creds, out);
}

FsStatus
Ext4Fs::mkdir(const std::string &path, std::uint16_t mode,
              const Credentials &creds, InodeNum *out)
{
    return makeNode(path, FileType::Directory, mode, creds, out);
}

FsStatus
Ext4Fs::unlink(const std::string &path, const Credentials &creds)
{
    InodeNum parentIno;
    std::string leaf;
    FsStatus st = resolveParent(path, &parentIno, &leaf);
    if (st != FsStatus::Ok)
        return st;
    Inode *parent = inode(parentIno);
    auto it = parent->dirents.find(leaf);
    if (it == parent->dirents.end())
        return FsStatus::NoEnt;
    Inode *victim = inode(it->second);
    if (victim->isDir() && !victim->dirents.empty())
        return FsStatus::NotEmpty;
    if (!mayAccess(*parent, creds, false, true))
        return FsStatus::Access;
    if (victim->isOpen())
        return FsStatus::Busy;

    noteMetadataOp();
    journal_.begin();
    logAndApply(JRecord{JOp::RmDirent, parentIno, 0, 0, 0, leaf});
    logAndApply(JRecord{JOp::FreeInode, victim->ino, 0, 0, 0, {}});
    journal_.commit();
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::rename(const std::string &from, const std::string &to,
               const Credentials &creds)
{
    InodeNum fromParent, toParent;
    std::string fromLeaf, toLeaf;
    FsStatus st = resolveParent(from, &fromParent, &fromLeaf);
    if (st != FsStatus::Ok)
        return st;
    st = resolveParent(to, &toParent, &toLeaf);
    if (st != FsStatus::Ok)
        return st;
    Inode *fp = inode(fromParent);
    Inode *tp = inode(toParent);
    auto it = fp->dirents.find(fromLeaf);
    if (it == fp->dirents.end())
        return FsStatus::NoEnt;
    if (!mayAccess(*fp, creds, false, true)
        || !mayAccess(*tp, creds, false, true))
        return FsStatus::Access;
    const InodeNum ino = it->second;

    Inode *victim = nullptr;
    auto vit = tp->dirents.find(toLeaf);
    if (vit != tp->dirents.end()) {
        if (vit->second == ino)
            return FsStatus::Ok; // rename onto itself
        victim = inode(vit->second);
        if (victim->isDir())
            return FsStatus::IsDir;
        if (victim->isOpen())
            return FsStatus::Busy;
    }

    noteMetadataOp();
    journal_.begin();
    if (victim) {
        logAndApply(JRecord{JOp::RmDirent, toParent, 0, 0, 0, toLeaf});
        logAndApply(JRecord{JOp::FreeInode, victim->ino, 0, 0, 0, {}});
    }
    logAndApply(JRecord{JOp::RmDirent, fromParent, 0, 0, 0, fromLeaf});
    logAndApply(JRecord{JOp::AddDirent, toParent, ino, 0, 0, toLeaf});
    journal_.commit();
    return FsStatus::Ok;
}

void
Ext4Fs::zeroRun(BlockNo start, std::uint64_t count)
{
    if (!cfg_.zeroNewBlocks)
        return;
    media_.zeroBlocks(start, count);
    blocksZeroed_ += count;
}

FsStatus
Ext4Fs::allocateRun(const Inode &ino, std::uint64_t want, BlockNo goal,
                    BlockNo *start, std::uint64_t *got)
{
    auto res = placement_
                   ? [&] {
                         const auto [lo, hi] = placement_(ino);
                         return alloc_.allocIn(want, goal, lo, hi);
                     }()
                   : alloc_.alloc(want, goal);
    if (!res)
        return FsStatus::NoSpace;
    *start = res->first;
    *got = res->second;
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::mapRange(const Inode &ino, std::uint64_t off, std::uint64_t len,
                 std::vector<Seg> *out) const
{
    out->clear();
    if (len == 0)
        return FsStatus::Ok;
    std::uint64_t cur = off;
    const std::uint64_t end = off + len;
    while (cur < end) {
        const std::uint64_t lblk = cur / kBlockBytes;
        extentLookups_++;
        auto ext = ino.extents.lookup(lblk);
        if (!ext)
            return FsStatus::Inval;
        // Bytes this extent can serve starting at cur.
        const std::uint64_t extEndByte
            = (ext->lblk + ext->count) * kBlockBytes;
        const std::uint64_t n = std::min(end, extEndByte) - cur;
        const DevAddr addr
            = (ext->pblk + (lblk - ext->lblk)) * kBlockBytes
              + (cur % kBlockBytes);
        if (!out->empty() && out->back().addr + out->back().len == addr)
            out->back().len += n;
        else
            out->push_back(Seg{addr, n});
        cur += n;
    }
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::extendTo(Inode &ino, std::uint64_t newSize,
                 std::vector<Extent> *newExtents)
{
    if (newExtents)
        newExtents->clear();
    if (ino.isDir())
        return FsStatus::IsDir;
    const std::uint64_t needBlocks
        = (newSize + kBlockBytes - 1) / kBlockBytes;

    noteMetadataOp();
    journal_.begin();
    std::uint64_t mapped = ino.extents.logicalEnd();
    while (mapped < needBlocks) {
        // Goal: right after the file's current last physical block.
        BlockNo goal = alloc_.firstDataBlock();
        auto last = ino.extents.lookup(mapped ? mapped - 1 : 0);
        if (last)
            goal = last->pblk + last->count;
        BlockNo start;
        std::uint64_t got;
        FsStatus st
            = allocateRun(ino, needBlocks - mapped, goal, &start, &got);
        if (st != FsStatus::Ok) {
            journal_.commit(); // keep what we already allocated
            return st;
        }
        zeroRun(start, got);
        logAndApply(JRecord{JOp::AddExtent, ino.ino, mapped, start, got,
                            {}});
        if (newExtents)
            newExtents->push_back(Extent{mapped, start, got});
        mapped += got;
    }
    if (newSize > ino.size)
        logAndApply(JRecord{JOp::SetSize, ino.ino, newSize, 0, 0, {}});
    journal_.commit();
    return FsStatus::Ok;
}

FsStatus
Ext4Fs::fallocate(Inode &ino, std::uint64_t off, std::uint64_t len)
{
    return extendTo(ino, std::max(ino.size, off + len), nullptr);
}

FsStatus
Ext4Fs::truncate(Inode &ino, std::uint64_t newSize)
{
    if (ino.isDir())
        return FsStatus::IsDir;
    if (newSize >= ino.size)
        return extendTo(ino, newSize, nullptr);

    noteMetadataOp();
    const std::uint64_t keepBlocks
        = (newSize + kBlockBytes - 1) / kBlockBytes;
    journal_.begin();
    logAndApply(JRecord{JOp::TruncExtents, ino.ino, keepBlocks, 0, 0, {}});
    logAndApply(JRecord{JOp::SetSize, ino.ino, newSize, 0, 0, {}});
    journal_.commit();

    // Zero the tail of the straddling block: bytes past the new EOF
    // must read as zeros if the file is later re-extended (POSIX), and
    // must not leak previous contents through direct access.
    const std::uint64_t tail = newSize % kBlockBytes;
    if (tail != 0) {
        auto ext = ino.extents.lookup(newSize / kBlockBytes);
        if (ext) {
            const DevAddr addr
                = (ext->pblk + (newSize / kBlockBytes - ext->lblk))
                      * kBlockBytes
                  + tail;
            const std::vector<std::uint8_t> zeros(kBlockBytes - tail, 0);
            media_.write(addr, zeros);
        }
    }
    return FsStatus::Ok;
}

void
Ext4Fs::touch(Inode &ino, bool modified)
{
    // Deferred timestamp semantics (Section 4.4): update the in-memory
    // inode now; the journal record is written at the next sync point.
    ino.atime = now();
    if (modified)
        ino.mtime = now();
}

void
Ext4Fs::fsyncMeta(Inode &ino)
{
    noteMetadataOp();
    journal_.begin();
    journal_.log(JRecord{JOp::SetTimes, ino.ino, ino.mtime, ino.atime, 0,
                         {}});
    journal_.commit();
    // Sync point: deferred block frees become reusable (Section 3.6).
    for (auto &[b, n] : ino.deferredFrees)
        alloc_.free(b, n);
    ino.deferredFrees.clear();
}

void
Ext4Fs::persistTxn(const std::vector<JRecord> &txn)
{
    ByteWriter w;
    w.u64(kTxnMagic);
    w.u32(static_cast<std::uint32_t>(txn.size()));
    for (const JRecord &r : txn) {
        w.u8(static_cast<std::uint8_t>(r.op));
        w.u64(r.a);
        w.u64(r.b);
        w.u64(r.c);
        w.u64(r.d);
        w.str(r.s);
    }
    w.u64(fnv1a(w.bytes().data(), w.size()));

    const std::uint64_t regionBytes = journalBlocks_ * kBlockBytes;
    if (journalOff_ + w.size() + 8 > regionBytes) {
        // Journal full: fold everything into the checkpoint instead.
        checkpoint();
        return;
    }
    media_.write(journalStart_ * kBlockBytes + journalOff_,
                 std::span<const std::uint8_t>(w.bytes().data(),
                                               w.size()));
    journalOff_ += w.size();
    // Terminator so a scan stops at the first unwritten slot.
    const std::uint64_t zero = 0;
    media_.write(journalStart_ * kBlockBytes + journalOff_,
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t *>(&zero), 8));
}

void
Ext4Fs::writeSuperblock(std::uint64_t imageBytes)
{
    ByteWriter w;
    w.u64(kSuperMagic);
    w.u64(1); // version
    w.u64(journalStart_);
    w.u64(journalBlocks_);
    w.u64(cpStart_);
    w.u64(cpBlocks_);
    w.u64(alloc_.firstDataBlock());
    w.u64(imageBytes);
    w.u64(fnv1a(w.bytes().data(), w.size()));
    media_.write(0, std::span<const std::uint8_t>(w.bytes().data(),
                                                  w.size()));
}

void
Ext4Fs::persistCheckpointImage()
{
    ByteWriter w;
    w.u64(kCheckpointMagic);
    w.u64(nextIno_);
    w.u64(inodes_.size());
    for (const auto &[num, ino] : inodes_) {
        w.u64(ino->ino);
        w.u8(static_cast<std::uint8_t>(ino->type));
        w.u16(ino->mode);
        w.u32(ino->uid);
        w.u32(ino->gid);
        w.u64(ino->size);
        w.u64(ino->atime);
        w.u64(ino->mtime);
        w.u64(ino->ctime);
        const auto exts = ino->extents.extents();
        w.u32(static_cast<std::uint32_t>(exts.size()));
        for (const Extent &e : exts) {
            w.u64(e.lblk);
            w.u64(e.pblk);
            w.u64(e.count);
        }
        w.u32(static_cast<std::uint32_t>(ino->dirents.size()));
        for (const auto &[name, child] : ino->dirents) {
            w.str(name);
            w.u64(child);
        }
    }
    const auto words = alloc_.snapshotWords();
    w.u64(alloc_.freeBlocks());
    w.u64(words.size());
    // Bitmap words, raw.
    for (std::uint64_t word : words)
        w.u64(word);
    w.u64(fnv1a(w.bytes().data(), w.size()));

    sim::panicIf(w.size() > cpBlocks_ * kBlockBytes,
                 "checkpoint image exceeds its region");
    media_.write(cpStart_ * kBlockBytes,
                 std::span<const std::uint8_t>(w.bytes().data(),
                                               w.size()));
    writeSuperblock(w.size());
    // Reset the on-disk journal: the image covers everything so far.
    journalOff_ = 0;
    const std::uint64_t zero = 0;
    media_.write(journalStart_ * kBlockBytes,
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t *>(&zero), 8));
}

std::unique_ptr<Ext4Fs>
Ext4Fs::recoverFromMedia(ssd::BlockStore &media, sim::EventQueue *eq)
{
    // Superblock.
    std::vector<std::uint8_t> sb(9 * 8);
    media.read(0, sb);
    ByteReader sr(sb.data(), sb.size());
    const std::uint64_t magic = sr.u64();
    if (magic != kSuperMagic)
        return nullptr;
    sr.u64(); // version
    const std::uint64_t jStart = sr.u64();
    const std::uint64_t jBlocks = sr.u64();
    const std::uint64_t cStart = sr.u64();
    const std::uint64_t cBlocks = sr.u64();
    sr.u64(); // firstData (recomputed)
    const std::uint64_t imageBytes = sr.u64();
    const std::uint64_t sum = sr.u64();
    if (!sr.ok() || sum != fnv1a(sb.data(), 8 * 8))
        return nullptr;

    auto fs = std::unique_ptr<Ext4Fs>(
        new Ext4Fs(media, FsConfig{}, eq, RawMountTag{}));
    sim::panicIf(fs->journalStart_ != jStart
                     || fs->journalBlocks_ != jBlocks
                     || fs->cpStart_ != cStart || fs->cpBlocks_ != cBlocks,
                 "superblock layout mismatch");

    // Checkpoint image.
    std::vector<std::uint8_t> img(imageBytes);
    media.read(cStart * kBlockBytes, img);
    std::uint64_t imgSum = 0;
    if (imageBytes >= 16)
        std::memcpy(&imgSum, img.data() + imageBytes - 8, 8);
    if (imageBytes < 16 || fnv1a(img.data(), imageBytes - 8) != imgSum)
        return nullptr;
    ByteReader ir(img.data(), img.size());
    if (ir.u64() != kCheckpointMagic)
        return nullptr;
    fs->nextIno_ = ir.u64();
    const std::uint64_t inodeCount = ir.u64();
    std::uint64_t freeCount = 0;
    for (std::uint64_t i = 0; i < inodeCount && ir.ok(); i++) {
        const InodeNum num = ir.u64();
        const auto type = static_cast<FileType>(ir.u8());
        const std::uint16_t mode = ir.u16();
        const std::uint32_t uid = ir.u32();
        const std::uint32_t gid = ir.u32();
        auto node = std::make_unique<Inode>(num, type, mode, uid, gid);
        node->size = ir.u64();
        node->atime = ir.u64();
        node->mtime = ir.u64();
        node->ctime = ir.u64();
        const std::uint32_t extCount = ir.u32();
        for (std::uint32_t e = 0; e < extCount && ir.ok(); e++) {
            const std::uint64_t lblk = ir.u64();
            const BlockNo pblk = ir.u64();
            const std::uint64_t count = ir.u64();
            node->extents.insert(lblk, pblk, count);
        }
        const std::uint32_t deCount = ir.u32();
        for (std::uint32_t d = 0; d < deCount && ir.ok(); d++) {
            const std::string name = ir.str();
            node->dirents[name] = ir.u64();
        }
        fs->inodes_[num] = std::move(node);
    }
    freeCount = ir.u64();
    const std::uint64_t wordCount = ir.u64();
    std::vector<std::uint64_t> words(wordCount);
    for (std::uint64_t i = 0; i < wordCount && ir.ok(); i++)
        words[i] = ir.u64();
    if (!ir.ok())
        return nullptr;
    fs->alloc_.restoreWords(std::move(words), freeCount);

    // Journal scan + replay: apply intact transactions, stop at the
    // first torn or absent record.
    std::vector<std::uint8_t> jr(jBlocks * kBlockBytes);
    media.read(jStart * kBlockBytes, jr);
    std::size_t off = 0;
    while (off + 12 <= jr.size()) {
        ByteReader tr(jr.data() + off, jr.size() - off);
        if (tr.u64() != kTxnMagic)
            break;
        const std::uint32_t count = tr.u32();
        std::vector<JRecord> txn;
        for (std::uint32_t i = 0; i < count && tr.ok(); i++) {
            JRecord rec;
            rec.op = static_cast<JOp>(tr.u8());
            rec.a = tr.u64();
            rec.b = tr.u64();
            rec.c = tr.u64();
            rec.d = tr.u64();
            rec.s = tr.str();
            txn.push_back(std::move(rec));
        }
        const std::size_t bodyLen = tr.consumed();
        const std::uint64_t sum2 = tr.u64();
        if (!tr.ok()
            || sum2 != fnv1a(jr.data() + off, bodyLen)) {
            break; // torn commit: ignore it and everything after
        }
        for (const JRecord &rec : txn)
            fs->apply(rec, false);
        off += tr.consumed();
    }

    fs->takeCheckpoint();
    return fs;
}

void
Ext4Fs::takeCheckpoint()
{
    auto cp = std::make_unique<Checkpoint>();
    for (const auto &[num, ino] : inodes_) {
        Checkpoint::InodeImage img;
        img.ino = ino->ino;
        img.type = ino->type;
        img.mode = ino->mode;
        img.uid = ino->uid;
        img.gid = ino->gid;
        img.size = ino->size;
        img.atime = ino->atime;
        img.mtime = ino->mtime;
        img.ctime = ino->ctime;
        img.extents = ino->extents.extents();
        img.dirents = ino->dirents;
        cp->inodes.push_back(std::move(img));
    }
    cp->bitmapWords = alloc_.snapshotWords();
    cp->freeBlocks = alloc_.freeBlocks();
    cp->nextIno = nextIno_;
    checkpoint_ = std::move(cp);
    persistCheckpointImage();
}

void
Ext4Fs::checkpoint()
{
    sim::panicIf(journal_.inTransaction(),
                 "checkpoint inside a transaction");
    takeCheckpoint();
    journal_.truncateAtCheckpoint();
}

std::unique_ptr<Ext4Fs>
Ext4Fs::recover(ssd::BlockStore &media, const Ext4Fs &crashed)
{
    auto fs = std::make_unique<Ext4Fs>(media, crashed.cfg_, crashed.eq_);
    // Restore the checkpoint image.
    const Checkpoint &cp = *crashed.checkpoint_;
    fs->inodes_.clear();
    for (const auto &img : cp.inodes) {
        auto ino = std::make_unique<Inode>(img.ino, img.type, img.mode,
                                           img.uid, img.gid);
        ino->size = img.size;
        ino->atime = img.atime;
        ino->mtime = img.mtime;
        ino->ctime = img.ctime;
        for (const auto &e : img.extents)
            ino->extents.insert(e.lblk, e.pblk, e.count);
        ino->dirents = img.dirents;
        fs->inodes_[img.ino] = std::move(ino);
    }
    fs->alloc_.restoreWords(cp.bitmapWords, cp.freeBlocks);
    fs->nextIno_ = cp.nextIno;
    // Replay committed transactions.
    for (const auto &txn : crashed.journal_.committed()) {
        for (const auto &rec : txn)
            fs->apply(rec, false);
    }
    fs->takeCheckpoint();
    return fs;
}

bool
Ext4Fs::fsck(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    // 1. Block accounting: every extent block allocated exactly once.
    std::unordered_map<BlockNo, InodeNum> owner;
    for (const auto &[num, ino] : inodes_) {
        if (!ino->extents.checkInvariants())
            return fail(sim::strf("inode %llu: bad extent tree",
                                  (unsigned long long)num));
        for (const auto &e : ino->extents.extents()) {
            for (std::uint64_t i = 0; i < e.count; i++) {
                const BlockNo b = e.pblk + i;
                if (owner.count(b))
                    return fail(sim::strf("block %llu double-referenced",
                                          (unsigned long long)b));
                owner[b] = num;
                if (!alloc_.isAllocated(b))
                    return fail(sim::strf(
                        "block %llu referenced but free",
                        (unsigned long long)b));
            }
        }
        for (const auto &[b, n] : ino->deferredFrees) {
            for (std::uint64_t i = 0; i < n; i++) {
                if (!alloc_.isAllocated(b + i))
                    return fail("deferred-free block already free");
                if (owner.count(b + i))
                    return fail("deferred-free block still referenced");
            }
        }
        // 2. Full-mapping invariant: no holes, size covered.
        if (!ino->isDir()) {
            if (ino->extents.mappedBlocks()
                != ino->extents.logicalEnd())
                return fail(sim::strf("inode %llu: hole in mapping",
                                      (unsigned long long)num));
            if (ino->sizeBlocks() > ino->extents.logicalEnd())
                return fail(sim::strf("inode %llu: size beyond mapping",
                                      (unsigned long long)num));
        }
    }

    // 3. Namespace: dirents reference live inodes; all inodes reachable.
    std::unordered_set<InodeNum> reachable{kRootIno};
    std::vector<InodeNum> stack{kRootIno};
    while (!stack.empty()) {
        const InodeNum cur = stack.back();
        stack.pop_back();
        const Inode *dir = inode(cur);
        if (!dir)
            return fail("dirent references dead inode");
        for (const auto &[name, child] : dir->dirents) {
            if (!inode(child))
                return fail(sim::strf("dirent '%s' dangling",
                                      name.c_str()));
            if (!reachable.insert(child).second)
                return fail("inode reachable twice (cycle/hardlink)");
            if (inode(child)->isDir())
                stack.push_back(child);
        }
    }
    for (const auto &[num, ino] : inodes_) {
        if (!reachable.count(num))
            return fail(sim::strf("inode %llu orphaned",
                                  (unsigned long long)num));
    }
    return true;
}

} // namespace bpd::fs
