/**
 * @file
 * UserLib: the BypassD userspace shim library (Sections 3.2, 4.2, 4.5).
 *
 * Intercepts POSIX file calls. Metadata operations forward to the kernel;
 * reads and overwrites are issued directly to the device on per-thread
 * VBA-mode queue pairs with pinned DMA buffers. Appends are detected from
 * the locally tracked file size and routed through the kernel (optionally
 * accelerated by fallocate() pre-allocation, Section 5.1). Partial writes
 * to overlapping sectors are serialized (Section 4.5.1). IOMMU faults
 * trigger re-fmap(); a zero VBA means access was revoked and the file
 * falls back to the kernel interface for good (Section 3.6).
 */

#ifndef BPD_BYPASSD_USERLIB_HPP
#define BPD_BYPASSD_USERLIB_HPP

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bypassd/module.hpp"
#include "kern/kernel.hpp"

namespace bpd::bypassd {

struct UserLibConfig
{
    std::uint32_t queueDepth = 256;
    std::uint64_t dmaBufBytes = 2ull << 20;
    /** Section 5.1: accelerate appends via fallocate() pre-allocation. */
    bool optimizedAppend = false;
    std::uint64_t appendPreallocBytes = 4ull << 20;
    /**
     * Section 5.1: non-blocking writes. Aligned overwrites complete to
     * the caller after the buffer copy; the device write proceeds in the
     * background. Reads consult the pending-write ranges (CrossFS-style
     * per-inode range tracking) so they always observe the latest data;
     * fsync() drains all pending writes first.
     */
    bool nonBlockingWrites = false;
};

class UserLib
{
  public:
    UserLib(kern::Kernel &kernel, BypassdModule &module, kern::Process &p,
            UserLibConfig cfg = {});
    ~UserLib();
    UserLib(const UserLib &) = delete;
    UserLib &operator=(const UserLib &) = delete;

    /** @name Intercepted POSIX calls (Table 3) */
    ///@{
    void open(const std::string &path, std::uint32_t flags,
              std::uint16_t mode, kern::IntCb cb);
    void close(int fd, kern::IntCb cb);
    void pread(Tid tid, int fd, std::span<std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb);
    void pwrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, kern::IoCb cb);
    void read(Tid tid, int fd, std::span<std::uint8_t> buf, kern::IoCb cb);
    void write(Tid tid, int fd, std::span<const std::uint8_t> buf,
               kern::IoCb cb);
    void fsync(Tid tid, int fd, kern::IntCb cb);
    void fallocate(int fd, std::uint64_t off, std::uint64_t len,
                   kern::IntCb cb);
    void ftruncate(int fd, std::uint64_t size, kern::IntCb cb);
    ///@}

    /**
     * Pre-create the queue pair + DMA buffer for a thread on device
     * slot @p slot (init-time; untimed, like SPDK's hugepage setup).
     * Queues for other slots a thread touches are created lazily.
     */
    void prepareThread(Tid tid, std::size_t slot = 0);

    /** Locally tracked size of an open file. */
    std::uint64_t fileSize(int fd) const;

    /** Is the fd currently served through the BypassD interface? */
    bool isDirect(int fd) const;

    kern::Process &process() { return proc_; }

    /** @name Statistics */
    ///@{
    std::uint64_t directReads() const { return directReads_; }
    std::uint64_t directWrites() const { return directWrites_; }
    std::uint64_t kernelFallbackOps() const { return fallbackOps_; }
    std::uint64_t appendsRouted() const { return appendsRouted_; }
    std::uint64_t partialSerialized() const { return partialSerialized_; }
    std::uint64_t iommuFaults() const { return iommuFaults_; }
    std::uint64_t nonBlockingWrites() const { return nbWrites_; }
    std::uint64_t pendingReadHits() const { return pendingReadHits_; }
    ///@}

  private:
    struct FileInfo
    {
        InodeNum ino = 0;
        std::uint32_t flags = 0;
        std::uint64_t size = 0;   //!< tracked locally (Section 3.2)
        std::uint64_t offset = 0; //!< file position for read()/write()
        Vaddr vba = 0;            //!< starting VBA; 0 => kernel interface
        std::size_t slot = 0;     //!< home device slot (queue routing)
        bool direct = false;
        std::uint64_t preallocEnd = 0;

        /** Sectors with an in-flight partial write (Section 4.5.1). */
        std::set<std::uint64_t> inflightSectors;
        struct PendingPartial
        {
            Tid tid;
            int fd;
            std::vector<std::uint8_t> data;
            std::uint64_t off;
            kern::Request req;
        };
        std::deque<PendingPartial> pendingPartials;

        /**
         * Non-blocking writes in flight (Section 5.1): buffered data
         * keyed by offset. Reads overlapping a pending range are served
         * from (or synchronized with) these buffers.
         */
        struct PendingWrite
        {
            std::uint64_t off;
            std::vector<std::uint8_t> data;
            std::vector<sim::EventQueue::Callback> waiters;
        };
        std::map<std::uint64_t, std::shared_ptr<PendingWrite>>
            pendingWrites;
        std::vector<std::function<void()>> drainWaiters;
    };

    /**
     * The (thread, device-slot) queue pair, created lazily. Queues live
     * until ~UserLib, so a stage may keep the reference across events.
     */
    UserQueues &uq(Tid tid, std::size_t slot);
    FileInfo *info(int fd);
    const FileInfo *info(int fd) const;

    /**
     * Dispatch stages of pread/pwrite after the request has been
     * opened: re-dispatched requests (pending-write waiters, serialized
     * partials) re-enter here so one logical request keeps one trace id
     * and one envelope.
     */
    void preadResume(Tid tid, int fd, std::span<std::uint8_t> buf,
                     std::uint64_t off, kern::Request req);
    /** Fail @p req with -EINVAL after the library's submit cost. */
    void failInval(kern::Request req);
    void pwriteResume(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::Request req);

    void directRead(Tid tid, int fd, std::span<std::uint8_t> buf,
                    std::uint64_t off, kern::Request req);
    void directOverwrite(Tid tid, int fd,
                         std::span<const std::uint8_t> buf,
                         std::uint64_t off, kern::Request req);
    /** Section 5.1 non-blocking write path. */
    void nonBlockingWrite(Tid tid, int fd,
                          std::span<const std::uint8_t> buf,
                          std::uint64_t off, kern::Request req);
    /** The device write behind an acknowledged non-blocking write;
     *  @p req completes when @p pw is durable on the device. */
    void writeBehind(Tid tid, int fd,
                     std::shared_ptr<FileInfo::PendingWrite> pw,
                     kern::Request req);
    /**
     * Read-side pending-write handling: serve fully-buffered reads from
     * the pending buffers; make partially-overlapping reads wait.
     * @retval true when the read was taken over here (@p req moved).
     */
    bool consultPendingWrites(Tid tid, int fd,
                              std::span<std::uint8_t> buf,
                              std::uint64_t off, kern::Request &req);
    void drainPendingWrites(int fd, std::function<void()> done);
    void partialWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::Request req);
    void drainPendingPartials(int fd);
    void appendWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                     std::uint64_t off, kern::Request req);

    /**
     * IOMMU fault recovery (Section 3.6): re-fmap, then hand @p req on
     * as resume(req, direct): direct on success, false once VBA 0 has
     * put the file on the kernel interface for good (or it was closed).
     */
    template <typename Resume>
    void handleFault(int fd, kern::Request req, Resume resume);

    void submitWithRetry(UserQueues &q, const ssd::Command &cmd,
                         ssd::CompletionFn &&fn);
    void submitNow(UserQueues &q, const ssd::Command &cmd,
                   ssd::CompletionFn &&fn);

    kern::Kernel &kernel_;
    BypassdModule &module_;
    kern::Process &proc_;
    UserLibConfig cfg_;

    /**
     * Open files indexed by fd. The kernel numbers a process's fds from
     * 3 and never reuses one, so the table only grows; a closed (or
     * never BypassD-opened) fd's entry is empty.
     */
    std::vector<std::unique_ptr<FileInfo>> files_;
    /**
     * Queue pair + DMA buffer per thread, then per device slot the
     * thread touches, indexed by tid and slot (tids are small thread
     * indices).
     */
    std::vector<std::vector<std::unique_ptr<UserQueues>>> queues_;

    std::uint64_t directReads_ = 0;
    std::uint64_t directWrites_ = 0;
    std::uint64_t fallbackOps_ = 0;
    std::uint64_t appendsRouted_ = 0;
    std::uint64_t partialSerialized_ = 0;
    std::uint64_t iommuFaults_ = 0;
    std::uint64_t nbWrites_ = 0;
    std::uint64_t pendingReadHits_ = 0;
};

} // namespace bpd::bypassd

#endif // BPD_BYPASSD_USERLIB_HPP
