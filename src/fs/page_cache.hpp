/**
 * @file
 * Kernel page cache for buffered (non-O_DIRECT) file I/O. LRU with
 * write-back: dirty pages are flushed on fsync or eviction.
 */

#ifndef BPD_FS_PAGE_CACHE_HPP
#define BPD_FS_PAGE_CACHE_HPP

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "obs/tenant.hpp"

namespace bpd::fs {

class PageCache
{
  public:
    struct Page
    {
        InodeNum ino;
        std::uint64_t index; //!< file page index
        std::array<std::uint8_t, kBlockBytes> data;
        bool dirty = false;
        /** Tenant that last dirtied/touched the page; dirty-victim
         * writeback I/O is attributed to it. */
        TenantId tenant = kSystemTenant;
    };

    explicit PageCache(std::uint64_t capacityBytes);

    /** A file page's key: its inode and page index. */
    using Key = std::uint64_t;

    static Key
    key(InodeNum ino, std::uint64_t index)
    {
        return (ino << 40) ^ index;
    }

    /** Look up a cached page; refreshes LRU position. */
    Page *find(InodeNum ino, std::uint64_t index);

    /**
     * Insert a page (takes LRU victim if at capacity).
     * @param[out] evicted Filled with the victim when it was dirty.
     * @return The new resident page.
     */
    Page *insert(InodeNum ino, std::uint64_t index,
                 std::unique_ptr<Page> *evicted);

    /** Collect (and clean) all dirty pages of @p ino, for writeback. */
    std::vector<Page *> collectDirty(InodeNum ino);

    /** Drop all pages of @p ino (losing dirty data; caller flushes). */
    void invalidate(InodeNum ino);

    std::size_t residentPages() const { return pages_.size(); }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /**
     * Attach the per-tenant counter table and the kernel's active-
     * tenant slot (both null = disabled). Hits/misses are attributed
     * to *activeTenant at the same program points as hits_/misses_.
     */
    void setTenantAccounting(obs::TenantAccounting *a,
                             const TenantId *activeTenant)
    {
        acct_ = a;
        activeTenant_ = activeTenant;
    }

  private:
    TenantId curTenant() const
    {
        return activeTenant_ ? *activeTenant_ : kSystemTenant;
    }

    std::uint64_t capacityPages_;
    // LRU list front = most recent.
    std::list<std::unique_ptr<Page>> lru_;
    std::unordered_map<Key, std::list<std::unique_ptr<Page>>::iterator>
        pages_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    obs::TenantAccounting *acct_ = nullptr;
    const TenantId *activeTenant_ = nullptr;
};

} // namespace bpd::fs

#endif // BPD_FS_PAGE_CACHE_HPP
