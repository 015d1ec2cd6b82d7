/**
 * @file
 * WiredTiger-style storage-engine model (Section 6.4).
 *
 * A B-tree with 512 B pages (matching the Optane sector size, as the
 * paper configures) stored in a single file; an application-level page
 * cache holds hot pages (upper levels stay resident, leaves thrash when
 * the cache is smaller than the data). Lookups traverse root->leaf,
 * issuing a 512 B read per uncached level; updates rewrite the leaf.
 *
 * Engines: kernel sync, XRP (chained traversal offload — only helps when
 * two or more consecutive levels miss), and BypassD (accelerates every
 * I/O). Cache accesses serialize on a lock, which becomes the bottleneck
 * at high thread counts and hides I/O gains — the effect the paper
 * reports in Fig. 13.
 */

#ifndef BPD_APPS_WIREDTIGER_HPP
#define BPD_APPS_WIREDTIGER_HPP

#include <list>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "system/system.hpp"
#include "workloads/ycsb.hpp"
#include "xrp/xrp.hpp"

namespace bpd::apps {

enum class WtEngine { Sync, Xrp, Bypassd };

const char *toString(WtEngine e);

struct WiredTigerConfig
{
    std::uint64_t records = 8'000'000;
    std::uint32_t keyBytes = 16;
    std::uint32_t valueBytes = 16;
    std::uint32_t pageBytes = 512;
    std::uint64_t cacheBytes = 48ull << 20;
    WtEngine engine = WtEngine::Sync;
    std::uint64_t seed = 1;
    Time cacheHitNs = 900;   //!< B-tree search/locking per page visit
    Time cacheLockNs = 140;  //!< serialized cache bookkeeping per access
    std::string path = "/wiredtiger.wt";
};

class WiredTigerModel
{
  public:
    WiredTigerModel(sys::System &s, WiredTigerConfig cfg);

    /** Create the on-disk tree and open it through the chosen engine. */
    void setup();

    struct Result
    {
        double kops = 0;
        sim::Histogram latency;
        std::uint64_t ops = 0;
        std::uint64_t deviceIos = 0;
        Time elapsed = 0;
    };

    /** Run @p opsPerThread YCSB ops on each of @p threads threads. */
    Result run(wl::Ycsb workload, unsigned threads,
               std::uint64_t opsPerThread);

    /** @name Tree geometry (exposed for tests) */
    ///@{
    unsigned depth() const { return depth_; }
    std::uint64_t pagesAtLevel(unsigned level) const;
    std::uint64_t fileBytes() const { return fileBytes_; }
    std::uint64_t recordsPerLeaf() const { return recsPerLeaf_; }
    /** Page index (within its level) on the path to @p key. */
    std::uint64_t pageIndexFor(std::uint64_t key, unsigned level) const;
    /** File byte offset of (level, idx). */
    std::uint64_t pageOffset(unsigned level, std::uint64_t idx) const;
    ///@}

  private:
    struct CacheEntry
    {
        std::uint64_t id;
    };

    bool cacheContains(std::uint64_t id);
    void cacheInsert(std::uint64_t id);
    Time cacheAccessDelay(unsigned accesses);

    void opLookup(Tid tid, std::uint64_t key, bool update,
                  std::function<void(Time)> done);
    void readPage(Tid tid, std::uint64_t off, std::uint32_t len,
                  std::function<void()> done);
    void writePage(Tid tid, std::uint64_t off,
                   std::function<void()> done);

    sys::System &s_;
    WiredTigerConfig cfg_;

    unsigned depth_ = 0;
    std::uint64_t recsPerLeaf_ = 0;
    unsigned fanout_ = 0;
    std::vector<std::uint64_t> levelPages_;
    std::vector<std::uint64_t> levelStart_; // page index of level start
    std::uint64_t fileBytes_ = 0;

    kern::Process *proc_ = nullptr;
    bypassd::UserLib *lib_ = nullptr;
    std::unique_ptr<xrp::XrpEngine> xrp_;
    int fd_ = -1;
    std::uint32_t fileId_ = obs::ReplayRec::kNoFile;
    std::uint8_t replayEngine_ = obs::ReplayRec::kEngineNone;

    // App-level LRU page cache.
    std::uint64_t cacheCapacity_ = 0;
    std::list<CacheEntry> lru_;
    std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator>
        cached_;
    Time cacheLockFreeAt_ = 0;

    std::uint64_t deviceIos_ = 0;
    std::vector<std::uint8_t> scratch_;
};

} // namespace bpd::apps

#endif // BPD_APPS_WIREDTIGER_HPP
