/**
 * @file
 * FIFO ring buffer that grows by doubling. A std::deque used as a queue
 * allocates a chunk and frees another every few elements as its window
 * slides; this ring touches the heap only when it grows past its
 * high-water mark, so a FIFO in steady state (an NVMe SQ, the device's
 * media backlog) never allocates.
 */

#ifndef BPD_SIM_RING_HPP
#define BPD_SIM_RING_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace bpd::sim {

/**
 * Growable FIFO with the std::deque queue subset (push_back, front,
 * pop_front). Capacity is a power of two; pop_front() does not clear
 * the slot, which keeps its last value until overwritten.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }

    void
    push_back(T v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
        size_++;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        size_--;
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf_.empty() ? kMinCapacity : 2 * buf_.size());
        for (std::size_t i = 0; i < size_; i++)
            next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    static constexpr std::size_t kMinCapacity = 8;

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace bpd::sim

#endif // BPD_SIM_RING_HPP
