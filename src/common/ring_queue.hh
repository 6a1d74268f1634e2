/**
 * @file
 * A growable FIFO ring buffer with random access and push_front.
 *
 * The controller's per-bank read and write queues push and pop every
 * request; std::deque allocates and frees a node block as the queue
 * walks through memory. RingQueue keeps its slots constructed in one
 * power-of-two buffer that only ever grows, so steady-state traffic
 * allocates nothing. Popped slots keep their (moved-from) objects until
 * they are reused by a later push.
 */

#ifndef SDPCM_COMMON_RING_QUEUE_HH
#define SDPCM_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace sdpcm {

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T& front() { return (*this)[0]; }

    /** Element `i` positions behind the front. */
    T&
    operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    const T&
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    void
    push_back(T&& value)
    {
        if (size_ == slots_.size())
            grow();
        (*this)[size_] = std::move(value);
        size_ += 1;
    }

    void
    push_front(T&& value)
    {
        if (size_ == slots_.size())
            grow();
        head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
        slots_[head_] = std::move(value);
        size_ += 1;
    }

    void
    pop_front()
    {
        SDPCM_ASSERT(size_ > 0, "pop_front on empty RingQueue");
        head_ = (head_ + 1) & (slots_.size() - 1);
        size_ -= 1;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_RING_QUEUE_HH
