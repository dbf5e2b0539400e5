#include "sim/arbiter.h"

#include "util/error.h"

namespace stx::sim {

const char* to_string(arbitration a) {
  switch (a) {
    case arbitration::fixed_priority: return "fixed_priority";
    case arbitration::round_robin: return "round_robin";
    case arbitration::least_recently_granted: return "least_recently_granted";
  }
  return "?";
}

namespace {

class fixed_priority_arbiter final : public arbiter {
 public:
  int pick(const port_mask& requesting, cycle_t) override {
    return requesting.first_from(0);
  }
};

class round_robin_arbiter final : public arbiter {
 public:
  int pick(const port_mask& requesting, cycle_t) override {
    // First requester after the last grant, wrapping to the lowest.
    int p = requesting.first_from(last_ + 1);
    if (p < 0) p = requesting.first_from(0);
    if (p >= 0) last_ = p;
    return p;
  }

 private:
  int last_ = -1;
};

class lrg_arbiter final : public arbiter {
 public:
  explicit lrg_arbiter(int num_ports)
      : last_grant_(static_cast<std::size_t>(num_ports), -1) {}

  int pick(const port_mask& requesting, cycle_t now) override {
    int best = -1;
    cycle_t best_time = 0;
    for (int p = requesting.first_from(0); p >= 0;
         p = requesting.first_from(p + 1)) {
      const cycle_t t = last_grant_[static_cast<std::size_t>(p)];
      if (best < 0 || t < best_time) {
        best = p;
        best_time = t;
      }
    }
    if (best >= 0) last_grant_[static_cast<std::size_t>(best)] = now;
    return best;
  }

 private:
  std::vector<cycle_t> last_grant_;
};

}  // namespace

std::unique_ptr<arbiter> make_arbiter(arbitration policy, int num_ports) {
  STX_REQUIRE(num_ports > 0, "arbiter needs at least one port");
  switch (policy) {
    case arbitration::fixed_priority:
      return std::make_unique<fixed_priority_arbiter>();
    case arbitration::round_robin:
      return std::make_unique<round_robin_arbiter>();
    case arbitration::least_recently_granted:
      return std::make_unique<lrg_arbiter>(num_ports);
  }
  throw invalid_argument_error("unknown arbitration policy");
}

}  // namespace stx::sim
