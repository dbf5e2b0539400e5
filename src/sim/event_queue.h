// Calendar event queue for the event-driven simulation kernel.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "sim/packet.h"
#include "util/error.h"

namespace stx::sim {

/// Sentinel returned by component next_wake() queries: nothing can make
/// this component act until an external event (a delivery, an enqueue, a
/// barrier arrival) wakes it.
inline constexpr cycle_t no_wake = -1;

/// When a component acts within a cycle. The order replicates the legacy
/// polling loop's per-cycle sweep (cores, request buses, targets,
/// response buses), which is what makes the two kernels bit-identical:
/// an event kernel that steps the same components in the same per-cycle
/// phase order — and only ever *adds* steps that are provable no-ops —
/// cannot diverge from the polling loop.
enum sim_phase : int {
  phase_core = 0,          ///< cores may issue new requests
  phase_request_bus = 1,   ///< request crossbar moves cells to targets
  phase_target = 2,        ///< targets emit ready replies
  phase_response_bus = 3,  ///< response crossbar moves cells to cores
};

/// One scheduled wake: cycle-major, then polling-phase order, then
/// component id — the stable tie-break that keeps simultaneous wakes
/// deterministic.
struct event_key {
  cycle_t cycle = 0;
  int phase = 0;
  int component = 0;

  auto operator<=>(const event_key&) const = default;
};

/// Calendar queue of wake events, ordered by event_key. Each key is
/// packed into one 64-bit word ([cycle : 38][phase : 2][component : 24])
/// whose integer order is the key order, so every comparison is one
/// integer compare. Wakes less than `ring_size` cycles ahead of the
/// drain land in a ring of buckets indexed by absolute cycle; farther
/// wakes (long compute ops) spill to an overflow min-heap and merge into
/// their bucket when the drain reaches their cycle. Each bucket is kept
/// sorted by insertion (a cycle holds a handful of wakes), so popping is
/// reading the next entry of the drain cycle's bucket, and a wake pushed
/// *at* that cycle lands among its unpopped entries in key order.
///
/// Duplicates are legal — several causes may wake the same component at
/// the same cycle; the engine drops stale keys at pop time. A key may
/// not lie before the cycle of the last popped key (the drain never
/// moves backwards).
class event_queue {
 public:
  /// Ring span in cycles (a power of two).
  static constexpr cycle_t ring_size = 1024;

  /// An empty queue whose drain starts at cycle `start`.
  explicit event_queue(cycle_t start = 0);

  /// Queues `k`; throws when it lies before the drain cycle or outside
  /// the packable ranges.
  void push(const event_key& k) {
    const auto e = pack(k);
    if (k.cycle - head_ < ring_size) {
      auto& bucket = buckets_[static_cast<std::size_t>(k.cycle & ring_mask)];
      // Wakes mostly arrive in key order: append unless e sorts earlier.
      if (bucket.empty() || bucket.back() <= e) {
        bucket.push_back(e);
      } else {
        insert_sorted(bucket, e, k.cycle == head_ ? next_ : 0);
      }
    } else {
      push_overflow(e);
    }
    ++size_;
    ++pushed_;
  }

  /// Removes and returns the smallest pending key; queue must be
  /// non-empty.
  event_key pop() {
    const auto& bucket = buckets_[static_cast<std::size_t>(head_ & ring_mask)];
    if (next_ == bucket.size()) return pop_advancing();
    --size_;
    return unpack(bucket[next_++]);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::int64_t total_pushed() const { return pushed_; }

 private:
  static constexpr int component_bits = 24;
  static constexpr int phase_bits = 2;
  static constexpr cycle_t ring_mask = ring_size - 1;

  /// Packs `k`, rejecting keys outside the packable ranges or before the
  /// drain cycle.
  std::uint64_t pack(const event_key& k) const {
    constexpr int cycle_bits = 64 - phase_bits - component_bits;
    STX_REQUIRE(k.cycle >= head_, "event_queue::push before the drain cycle");
    STX_REQUIRE(k.cycle < (cycle_t{1} << cycle_bits),
                "event cycle out of the packable range");
    STX_REQUIRE(k.phase >= 0 && k.phase < (1 << phase_bits),
                "event phase out of range");
    STX_REQUIRE(k.component >= 0 && k.component < (1 << component_bits),
                "event component id out of the packable range");
    return (static_cast<std::uint64_t>(k.cycle)
            << (phase_bits + component_bits)) |
           (static_cast<std::uint64_t>(k.phase) << component_bits) |
           static_cast<std::uint64_t>(k.component);
  }

  /// Inserts `e` into a sorted bucket, searching from entry `from` on.
  static void insert_sorted(std::vector<std::uint64_t>& bucket,
                            std::uint64_t e, std::size_t from);
  void push_overflow(std::uint64_t e);
  static cycle_t cycle_of(std::uint64_t e) {
    return static_cast<cycle_t>(e >> (phase_bits + component_bits));
  }
  static event_key unpack(std::uint64_t e) {
    return {cycle_of(e),
            static_cast<int>((e >> component_bits) & ((1u << phase_bits) - 1)),
            static_cast<int>(e & ((1u << component_bits) - 1))};
  }

  /// pop() once the drain cycle's bucket is exhausted.
  event_key pop_advancing();
  /// Moves the drain to the next cycle holding a key and merges the
  /// overflow keys due then (queue non-empty, head bucket exhausted).
  void advance();

  std::vector<std::vector<std::uint64_t>> buckets_;
  std::vector<std::uint64_t> overflow_;  ///< min-heap, far-future keys
  cycle_t head_ = 0;       ///< the cycle being drained
  std::size_t next_ = 0;   ///< next unpopped entry of the head bucket
  std::size_t size_ = 0;
  std::int64_t pushed_ = 0;
};

/// Counters describing one event-driven run; exposed through
/// mpsoc_system::event_stats() so benches and tests can see how much
/// work the kernel actually skipped.
struct engine_stats {
  std::int64_t events_processed = 0;  ///< component wake handlers executed
  std::int64_t events_skipped = 0;    ///< superseded wakes dropped at pop
  std::int64_t cycles_visited = 0;    ///< distinct cycles with any event
};

}  // namespace stx::sim
