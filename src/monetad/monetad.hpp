/**
 * @file
 * Moneta-D-style baseline [Caulfield et al., ASPLOS'12]: userspace
 * access with permission checks enforced *on the device* instead of the
 * host IOMMU. The kernel installs per-(process, extent) permission
 * records into a limited-capacity table in device memory; data commands
 * carry raw LBAs and the device validates them against the table.
 *
 * This model reproduces the drawbacks the paper attributes to
 * device-side protection (Section 2):
 *  1. permission updates stall request service;
 *  2. a bounded table thrashes when many files/extents are live;
 *  3. a miss triggers an expensive userspace+kernel recovery path
 *     (~8x the I/O latency in the Moneta-D paper).
 *
 * BypassD avoids all three by checking permissions in the host IOMMU
 * with page tables that live in ordinary host memory.
 */

#ifndef BPD_MONETAD_MONETAD_HPP
#define BPD_MONETAD_MONETAD_HPP

#include <list>
#include <memory>
#include <unordered_map>

#include "kern/kernel.hpp"

namespace bpd::monetad {

struct MonetadConfig
{
    /** Device permission-table capacity (records). */
    unsigned tableEntries = 1024;
    /** Table lookup on the device per I/O. */
    Time checkNs = 150;
    /**
     * Miss recovery: device interrupts the library, which asks the
     * kernel to re-install the record (Moneta-D reports up to 8x I/O
     * latency).
     */
    Time missPenaltyNs = 30 * kUs;
    /** Device pauses request service while the table is updated. */
    Time updateStallNs = 40 * kUs;
    /** Userspace submission/completion costs (SPDK-like). */
    Time submitNs = 110;
    Time reapNs = 80;
};

class MonetadEngine
{
  public:
    explicit MonetadEngine(kern::Kernel &k, MonetadConfig cfg = {});
    ~MonetadEngine();

    /**
     * Kernel-side: copy @p ino's extent permissions for @p p into the
     * device table (called at open). Service stalls while updating.
     * @return Number of records installed.
     */
    unsigned installPermissions(kern::Process &p, fs::Inode &ino,
                                bool writable);

    /** Userspace read of @p ino through the device-side checks. */
    void read(Tid tid, kern::Process &p, fs::Inode &ino,
              std::span<std::uint8_t> buf, std::uint64_t off,
              kern::IoCb cb);

    /** Userspace overwrite. */
    void write(Tid tid, kern::Process &p, fs::Inode &ino,
               std::span<const std::uint8_t> buf, std::uint64_t off,
               kern::IoCb cb);

    /** @name Statistics */
    ///@{
    std::uint64_t tableHits() const { return hits_; }
    std::uint64_t tableMisses() const { return misses_; }
    std::uint64_t updateStalls() const { return updates_; }
    ///@}

  private:
    struct Entry
    {
        std::uint64_t key;
        bool writable;
    };

    static std::uint64_t key(Pasid pasid, BlockNo extStart);

    /** LRU permission-table access; true on hit. */
    bool tableLookup(std::uint64_t k, bool needWrite);
    void tableInsert(std::uint64_t k, bool writable);
    void stallService();
    void doIo(Tid tid, kern::Process &p, fs::Inode &ino, ssd::Op op,
              std::span<std::uint8_t> buf, std::uint64_t off,
              bool afterMiss, kern::IoCb cb);

    /** Thread @p tid's channel, created on its first I/O. */
    ssd::QueuePair &queue(Tid tid, kern::Process &p);

    kern::Kernel &k_;
    MonetadConfig cfg_;

    // Device-resident permission table (LRU).
    std::list<Entry> lru_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> table_;

    Time serviceStalledUntil_ = 0;

    std::map<Tid, ssd::QueuePair *> queues_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t updates_ = 0;
};

} // namespace bpd::monetad

#endif // BPD_MONETAD_MONETAD_HPP
