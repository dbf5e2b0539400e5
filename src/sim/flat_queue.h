// FIFO over one flat vector, for the simulator's per-port packet queues
// and per-target job queues.
#pragma once

#include <cstddef>
#include <vector>

namespace stx::sim {

/// A vector plus a head index. Unlike std::deque it allocates nothing on
/// construction and does not free and reallocate a chunk every few
/// elements as a short queue cycles: storage is reused once the queue
/// drains, and the dead prefix is compacted when it dominates.
template <typename T>
class flat_queue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const T& front() const { return items_[head_]; }
  void push_back(const T& v) { items_.push_back(v); }
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace stx::sim
