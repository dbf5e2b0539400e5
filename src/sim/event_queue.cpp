#include "sim/event_queue.h"

#include <algorithm>
#include <functional>

#include "util/error.h"

namespace stx::sim {

static_assert((event_queue::ring_size & (event_queue::ring_size - 1)) == 0,
              "ring_size must be a power of two");

void event_queue::insert_sorted(std::vector<std::uint64_t>& bucket,
                                std::uint64_t e, std::size_t from) {
  bucket.insert(
      std::upper_bound(bucket.begin() + static_cast<std::ptrdiff_t>(from),
                       bucket.end(), e),
      e);
}

void event_queue::push_overflow(std::uint64_t e) {
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>());
}

event_queue::event_queue(cycle_t start)
    : buckets_(static_cast<std::size_t>(ring_size)), head_(start) {}

event_key event_queue::pop_advancing() {
  STX_REQUIRE(size_ > 0, "event_queue::pop on empty queue");
  buckets_[static_cast<std::size_t>(head_ & ring_mask)].clear();
  next_ = 0;
  advance();
  return pop();
}

void event_queue::advance() {
  if (size_ == overflow_.size()) {
    // The ring is empty: jump the whole idle span at once.
    head_ = cycle_of(overflow_.front());
  } else {
    // Some ring bucket holds a key less than ring_size cycles ahead.
    do {
      ++head_;
    } while (buckets_[static_cast<std::size_t>(head_ & ring_mask)].empty() &&
             (overflow_.empty() || cycle_of(overflow_.front()) != head_));
  }
  // Far wakes that have come due join their cycle's bucket.
  auto& bucket = buckets_[static_cast<std::size_t>(head_ & ring_mask)];
  while (!overflow_.empty() && cycle_of(overflow_.front()) == head_) {
    insert_sorted(bucket, overflow_.front(), 0);
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>());
    overflow_.pop_back();
  }
}

}  // namespace stx::sim
