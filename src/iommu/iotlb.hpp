/**
 * @file
 * Generic set-associative LRU translation cache: the IOMMU page-walk
 * cache (upper page-table levels) and the Table 4 bench's IOTLB (DMA
 * IOVA translations). Per Section 4.3 FTEs themselves are NOT cached;
 * only intermediate levels benefit from caching.
 */

#ifndef BPD_IOMMU_IOTLB_HPP
#define BPD_IOMMU_IOTLB_HPP

#include <cstdint>
#include <functional>
#include <vector>

namespace bpd::iommu {

/** Set-associative LRU cache mapping a 64-bit key to a 64-bit value. */
class TranslationCache
{
  public:
    /**
     * @param entries Total entry count (rounded to sets*ways).
     * @param ways Associativity.
     */
    TranslationCache(unsigned entries, unsigned ways);

    /** Look up @p key; on hit fill @p value. */
    bool lookup(std::uint64_t key, std::uint64_t &value);

    /** Insert or update a mapping (LRU replacement). */
    void insert(std::uint64_t key, std::uint64_t value);

    /** Invalidate one key. @retval true if it was present. */
    bool invalidate(std::uint64_t key);

    /** Invalidate all keys matching a predicate. */
    void invalidateIf(const std::function<bool(std::uint64_t)> &pred);

    /** Drop everything. */
    void clear();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned setOf(std::uint64_t key) const;

    unsigned sets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace bpd::iommu

#endif // BPD_IOMMU_IOTLB_HPP
