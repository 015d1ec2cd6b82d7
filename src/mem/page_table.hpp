/**
 * @file
 * Four-level x86-64-style radix page table over simulated frames.
 *
 * Levels are numbered 3 (root / PGD) down to 0 (leaf page table). BypassD
 * attaches *shared* file-table leaf frames at level-1 entries (PMD
 * granularity: one pointer per 2 MiB of file), with the per-open R/W
 * permission encoded in the private attaching entry (Section 4.1, Fig. 4).
 */

#ifndef BPD_MEM_PAGE_TABLE_HPP
#define BPD_MEM_PAGE_TABLE_HPP

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/pte.hpp"

namespace bpd::mem {

/** Bytes spanned by one entry at a given level. */
constexpr std::uint64_t
levelSpan(unsigned level)
{
    return 1ull << (12 + 9 * level);
}

constexpr std::uint64_t kPmdSpan = levelSpan(1); // 2 MiB
constexpr std::uint64_t kPudSpan = levelSpan(2); // 1 GiB

/** Radix index of @p va at @p level (0..3). */
constexpr unsigned
ptIndex(Vaddr va, unsigned level)
{
    return static_cast<unsigned>((va >> (12 + 9 * level)) & 0x1ff);
}

/**
 * A process (or IOMMU-visible) page table. Owns the frames it allocates;
 * frames attached via attachTable() are shared and never freed here.
 */
class PageTable
{
  public:
    explicit PageTable(FrameAllocator &fa);
    ~PageTable();
    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    Frame root() const { return root_; }

    /** Install a leaf entry for @p va, building intermediate levels. */
    void set(Vaddr va, Pte pte);

    /** Leaf entry for @p va, or 0 when any level is non-present. */
    Pte get(Vaddr va) const;

    /** Clear the leaf entry for @p va (no-op when absent). */
    void clear(Vaddr va);

    /**
     * Attach a shared table frame at the given level's entry for @p va.
     * @param va Virtual address; must be aligned to levelSpan(level).
     * @param level Entry level holding the pointer (1 = PMD entry).
     * @param table Shared frame (owned elsewhere).
     * @param writable Per-open R/W permission for this attachment.
     * @return Count of private intermediate entries written (for timing).
     */
    unsigned attachTable(Vaddr va, unsigned level, Frame table,
                         bool writable);

    /**
     * Detach a previously attached shared frame.
     * @retval true when an entry was present and cleared.
     */
    bool detachTable(Vaddr va, unsigned level);

    /** Result of a software walk mirroring what hardware would do. */
    struct Walk
    {
        bool present = false;     //!< leaf reachable and present
        bool writable = false;    //!< AND of R/W along the path
        Pte leaf = 0;             //!< leaf entry value
        unsigned framesRead = 0;  //!< frames touched (timing input)
    };

    /** Walk the tree for @p va. */
    Walk walk(Vaddr va) const;

    /**
     * Host-only hint: prefetch the leaf-entry cache line that walk(@p va)
     * will read. Reads the tree (through the leaf-table cache when it
     * holds the region) but changes nothing: no entry, no cache state,
     * no counter. Non-present paths are ignored.
     */
    void prefetchLeaf(Vaddr va) const;

    /** Most entries the walker's leaf-table cache grows to. */
    static constexpr std::size_t kMaxLeafCacheEntries = 4096;

  private:
    Frame childOf(Frame parent, unsigned idx) const;
    Frame ensureChild(Frame parent, unsigned idx, bool writable);

    /** Invalidate the walker's cached upper paths after any mutation. */
    void invalidateWalkCache() { mutGen_++; }

    /**
     * Host-side leaf-table cache: a direct-mapped table from a 2 MiB
     * region (va >> 21) to the leaf table its upper three levels
     * resolve to, so walk() reads only the leaf entry. An entry is valid
     * while its gen equals mutGen_: every structural mutation bumps
     * mutGen_, which invalidates all entries at once. It stores frame
     * numbers, so FrameAllocator's liveness check still guards each
     * leaf access, and leaf entries are read fresh each walk, so shared
     * file-table frames updated behind our back stay coherent.
     * framesRead still reports the full 4-level cost, keeping the
     * simulated timing identical. This is a host speed-up only; the
     * IOMMU's simulated walk cache is separate.
     */
    struct LeafCacheEntry
    {
        std::uint64_t gen = 0; //!< mutGen_ at fill (0 never matches)
        Vaddr region = 0;      //!< va >> 21
        Frame leafTable = kNullFrame;
        bool upperWritable = false; //!< AND of R/W above the leaf
    };

    /**
     * The cache entry for @p region. The cache is allocated on the
     * first walk and sized to the leaf tables reachable (a power of
     * two up to kMaxLeafCacheEntries), so a Fig. 9 reader set spread
     * over thousands of regions maps one region per entry while a page
     * table that is never walked costs nothing.
     */
    LeafCacheEntry &leafCacheEntry(Vaddr region) const;

    FrameAllocator &fa_;
    Frame root_;
    std::unordered_set<Frame> owned_;

    std::uint64_t mutGen_ = 1;
    /** Leaf tables reachable: attached (a PUD-level attach brings
     *  kPte) or built by set(); sizes the leaf-table cache. */
    std::size_t leafTables_ = 0;
    mutable std::vector<LeafCacheEntry> leafCache_;
};

} // namespace bpd::mem

#endif // BPD_MEM_PAGE_TABLE_HPP
