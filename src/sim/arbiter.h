// Bus arbitration policies.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.h"
#include "util/error.h"

namespace stx::sim {

/// Arbitration policy selector for the per-bus arbiters (the "A" boxes of
/// Fig. 1). STbus nodes support programmable arbitration; we model the
/// three classic ones.
enum class arbitration {
  fixed_priority,           ///< lowest port index wins
  round_robin,              ///< rotating priority from last grant + 1
  least_recently_granted,   ///< port that has waited longest since a grant
};

const char* to_string(arbitration a);

/// The set of requesting input ports of one bus, one bit per port in
/// 64-bit words. The bus keeps it current as port queues fill and drain,
/// so "any request?" is one counter test and arbiters walk set bits
/// instead of probing every port. One layout serves any port count.
class port_mask {
 public:
  explicit port_mask(int num_ports)
      : words_(static_cast<std::size_t>((std::max(num_ports, 0) + 63) / 64),
               0),
        size_(num_ports) {}

  void set(int p) {
    const std::uint64_t bit = bit_of(p);
    auto& w = words_[static_cast<std::size_t>(p >> 6)];
    if ((w & bit) == 0) ++count_;
    w |= bit;
  }
  void reset(int p) {
    const std::uint64_t bit = bit_of(p);
    auto& w = words_[static_cast<std::size_t>(p >> 6)];
    if ((w & bit) != 0) --count_;
    w &= ~bit;
  }
  bool any() const { return count_ > 0; }
  /// Lowest set port >= p, or -1 when there is none.
  int first_from(int p) const {
    if (p >= size_ || count_ == 0) return -1;
    auto w = static_cast<std::size_t>(p >> 6);
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (p & 63));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

 private:
  std::uint64_t bit_of(int p) const {
    STX_REQUIRE(p >= 0 && p < size_, "port out of range");
    return std::uint64_t{1} << (p & 63);
  }

  std::vector<std::uint64_t> words_;
  int size_ = 0;
  int count_ = 0;
};

/// Chooses which requesting input port gets the bus next. Stateful
/// (round-robin pointer / grant history); one instance per bus.
class arbiter {
 public:
  virtual ~arbiter() = default;

  /// Returns the granted port index, or -1 when no port requests.
  /// `requesting` holds the ports with a packet ready; `now` is the
  /// current cycle (used by history-based policies).
  virtual int pick(const port_mask& requesting, cycle_t now) = 0;
};

/// Factory for a policy instance over `num_ports` ports.
std::unique_ptr<arbiter> make_arbiter(arbitration policy, int num_ports);

}  // namespace stx::sim
