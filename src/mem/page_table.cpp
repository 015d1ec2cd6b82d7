#include "mem/page_table.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace bpd::mem {

PageTable::PageTable(FrameAllocator &fa)
    : fa_(fa), root_(fa.alloc())
{
    owned_.insert(root_);
}

PageTable::~PageTable()
{
    for (Frame f : owned_)
        fa_.free(f);
}

Frame
PageTable::childOf(Frame parent, unsigned idx) const
{
    const Pte e = fa_.table(parent)[idx];
    if (!isPresent(e) || isFte(e))
        return kNullFrame;
    return frameOf(e);
}

Frame
PageTable::ensureChild(Frame parent, unsigned idx, bool writable)
{
    std::uint64_t *tbl = fa_.table(parent);
    Pte e = tbl[idx];
    if (isPresent(e)) {
        sim::panicIf(isFte(e), "table entry collides with an FTE");
        if (writable && !isWritable(e))
            tbl[idx] = e | kPteWritable;
        return frameOf(e);
    }
    const Frame child = fa_.alloc();
    owned_.insert(child);
    tbl[idx] = makeTableEntry(child, writable);
    return child;
}

void
PageTable::set(Vaddr va, Pte pte)
{
    invalidateWalkCache();
    Frame cur = root_;
    for (unsigned level = 3; level >= 1; level--) {
        const std::size_t before = owned_.size();
        cur = ensureChild(cur, ptIndex(va, level), true);
        if (level == 1 && owned_.size() != before)
            leafTables_++;
    }
    fa_.table(cur)[ptIndex(va, 0)] = pte;
}

Pte
PageTable::get(Vaddr va) const
{
    Frame cur = root_;
    for (unsigned level = 3; level >= 1; level--) {
        cur = childOf(cur, ptIndex(va, level));
        if (cur == kNullFrame)
            return 0;
    }
    return fa_.table(cur)[ptIndex(va, 0)];
}

void
PageTable::clear(Vaddr va)
{
    invalidateWalkCache();
    Frame cur = root_;
    for (unsigned level = 3; level >= 1; level--) {
        cur = childOf(cur, ptIndex(va, level));
        if (cur == kNullFrame)
            return;
    }
    fa_.table(cur)[ptIndex(va, 0)] = 0;
}

unsigned
PageTable::attachTable(Vaddr va, unsigned level, Frame table, bool writable)
{
    sim::panicIf(level < 1 || level > 2, "attach level must be 1 or 2");
    sim::panicIf(va % levelSpan(level) != 0,
                 "attach va not aligned to level span");
    invalidateWalkCache();
    unsigned writes = 0;
    Frame cur = root_;
    for (unsigned l = 3; l > level; l--) {
        // Intermediate entries are private to this process; the per-open
        // R/W bit is applied on the whole private path so a read-only
        // open cannot write through any route.
        std::uint64_t *tbl = fa_.table(cur);
        const unsigned idx = ptIndex(va, l);
        Pte e = tbl[idx];
        if (!isPresent(e)) {
            const Frame child = fa_.alloc();
            owned_.insert(child);
            tbl[idx] = makeTableEntry(child, writable);
            writes++;
            cur = child;
        } else {
            if (writable && !isWritable(e)) {
                tbl[idx] = e | kPteWritable;
                writes++;
            }
            cur = frameOf(e);
        }
    }
    std::uint64_t *tbl = fa_.table(cur);
    const unsigned idx = ptIndex(va, level);
    sim::panicIf(isPresent(tbl[idx]),
                 "attach target entry already present");
    tbl[idx] = makeTableEntry(table, writable);
    writes++;
    leafTables_ += level == 1 ? 1 : kPte;
    return writes;
}

bool
PageTable::detachTable(Vaddr va, unsigned level)
{
    sim::panicIf(level < 1 || level > 2, "detach level must be 1 or 2");
    invalidateWalkCache();
    Frame cur = root_;
    for (unsigned l = 3; l > level; l--) {
        cur = childOf(cur, ptIndex(va, l));
        if (cur == kNullFrame)
            return false;
    }
    std::uint64_t *tbl = fa_.table(cur);
    const unsigned idx = ptIndex(va, level);
    if (!isPresent(tbl[idx]))
        return false;
    tbl[idx] = 0;
    leafTables_ -= std::min<std::size_t>(leafTables_,
                                          level == 1 ? 1 : kPte);
    return true;
}

PageTable::LeafCacheEntry &
PageTable::leafCacheEntry(Vaddr region) const
{
    const std::size_t want = std::min(
        kMaxLeafCacheEntries,
        std::bit_ceil(std::max<std::size_t>(leafTables_, 1)));
    if (leafCache_.size() < want) [[unlikely]]
        leafCache_.assign(want, LeafCacheEntry{});
    return leafCache_[region & (leafCache_.size() - 1)];
}

PageTable::Walk
PageTable::walk(Vaddr va) const
{
    Walk w;
    const Vaddr region = va >> 21;
    LeafCacheEntry &c = leafCacheEntry(region);
    if (c.gen == mutGen_ && c.region == region) {
        // Fast path: upper three levels unchanged since last resolved;
        // only the leaf entry needs reading. framesRead reports the full
        // walk so modeled timing matches the uncached path exactly.
        w.framesRead = 4;
        const Pte e = fa_.table(c.leafTable)[ptIndex(va, 0)];
        if (!isPresent(e)) {
            w.present = false;
            w.writable = false;
            return w;
        }
        w.present = true;
        w.writable = c.upperWritable && isWritable(e);
        w.leaf = e;
        return w;
    }
    w.writable = true;
    Frame cur = root_;
    for (unsigned level = 3;; level--) {
        w.framesRead++;
        const Pte e = fa_.table(cur)[ptIndex(va, level)];
        if (!isPresent(e)) {
            w.present = false;
            w.writable = false;
            return w;
        }
        w.writable = w.writable && isWritable(e);
        if (level == 0 || isFte(e)) {
            // FTEs can only legally appear at level 0, but a hardware
            // walker must treat a malformed deeper FT bit as a fault.
            if (isFte(e) && level != 0) {
                w.present = false;
                w.writable = false;
                return w;
            }
            w.present = true;
            w.leaf = e;
            return w;
        }
        if (level == 1)
            c = LeafCacheEntry{mutGen_, region, frameOf(e), w.writable};
        cur = frameOf(e);
    }
}

void
PageTable::prefetchLeaf(Vaddr va) const
{
    const Vaddr region = va >> 21;
    Frame leaf = kNullFrame;
    if (!leafCache_.empty()) {
        const LeafCacheEntry &c
            = leafCache_[region & (leafCache_.size() - 1)];
        if (c.gen == mutGen_ && c.region == region)
            leaf = c.leafTable;
    }
    if (leaf == kNullFrame) {
        Frame cur = root_;
        for (unsigned level = 3; level >= 1; level--) {
            const Pte e = fa_.table(cur)[ptIndex(va, level)];
            if (!isPresent(e) || isFte(e))
                return;
            cur = frameOf(e);
        }
        leaf = cur;
    }
    __builtin_prefetch(fa_.table(leaf) + ptIndex(va, 0));
}

} // namespace bpd::mem
