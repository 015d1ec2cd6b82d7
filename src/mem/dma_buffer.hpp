/**
 * @file
 * Host memory behind a pinned DMA buffer (a UserLib queue pair's, a VM's
 * virtual function's). The simulated device copies into and out of it.
 */

#ifndef BPD_MEM_DMA_BUFFER_HPP
#define BPD_MEM_DMA_BUFFER_HPP

#include <cstddef>
#include <cstdint>
#include <span>

namespace bpd::mem {

/**
 * Sole owner of one anonymous private mapping. Its bytes read as zero
 * and take no host memory until first touched, and they stay backed by
 * 4 KiB pages, so an I/O that uses only the front of a 2 MiB buffer
 * commits only the pages it touches. Move-only; the mapping is unmapped
 * when its owner is destroyed.
 */
class DmaBuffer
{
  public:
    DmaBuffer() = default;
    /** Map @p bytes of zeroed memory (none when @p bytes is 0). */
    explicit DmaBuffer(std::size_t bytes);
    DmaBuffer(DmaBuffer &&other) noexcept;
    DmaBuffer &operator=(DmaBuffer &&other) noexcept;
    DmaBuffer(const DmaBuffer &) = delete;
    DmaBuffer &operator=(const DmaBuffer &) = delete;
    ~DmaBuffer();

    std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    std::span<std::uint8_t> span() const { return {data_, size_}; }

  private:
    void release();

    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace bpd::mem

#endif // BPD_MEM_DMA_BUFFER_HPP
