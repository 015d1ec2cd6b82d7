#include "mem/dma_buffer.hpp"

#include <sys/mman.h>

#include <utility>

#include "sim/logging.hpp"

namespace bpd::mem {

namespace {

/**
 * The data starts one cache line into the mapping, not on its page
 * boundary. With a page-aligned start, simbench randread_bypassd ran
 * 12-17% slower on an x86-64 host (4 of 4 alternating 30 s pairs), and
 * a profile put the extra time in UserLib's 4 KiB copy-out of each read
 * (libc memcpy, 4.5 times the samples); one cache line in, it ran no
 * slower than with the heap vector this type replaced. Nothing
 * simulated sees the host address: the device reaches the buffer
 * through an IOVA reserved separately.
 */
constexpr std::size_t kLead = 64;

} // namespace

DmaBuffer::DmaBuffer(std::size_t bytes)
{
    if (bytes == 0)
        return;
    void *base = ::mmap(nullptr, bytes + kLead, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    sim::panicIf(base == MAP_FAILED, "DMA buffer mapping failed");
    // A host with transparent huge pages always on would commit 2 MiB at
    // the first touch; the point is to commit only the pages I/O uses.
    // Advisory: a kernel without THP rejects it, and that is fine.
    (void)::madvise(base, bytes + kLead, MADV_NOHUGEPAGE);
    data_ = static_cast<std::uint8_t *>(base) + kLead;
    size_ = bytes;
}

DmaBuffer::DmaBuffer(DmaBuffer &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0))
{
}

DmaBuffer &
DmaBuffer::operator=(DmaBuffer &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
    }
    return *this;
}

DmaBuffer::~DmaBuffer()
{
    release();
}

void
DmaBuffer::release()
{
    if (data_)
        ::munmap(data_ - kLead, size_ + kLead);
    data_ = nullptr;
    size_ = 0;
}

} // namespace bpd::mem
