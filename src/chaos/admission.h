// Admission control and brownout: the shed-early half of overload
// robustness. Three pieces, all deterministic (no randomness -- decisions
// are pure functions of queue state and tick), all default-off:
//
//   * AdmissionQueue -- a bounded per-shard FIFO with deadline-aware shed at
//     admission (CoDel-flavored): service capacity is `slots_per_tick`
//     requests per tick, so the wait a new request faces is
//     (depth + 1) / slots ticks. If that estimated wait exceeds the
//     request's remaining deadline -- or the standing-queue target
//     `target_wait_ticks`, which bounds the sojourn tail the way CoDel's
//     5 ms target does -- the request is shed *at admission*, before it
//     wastes queue residency or service work. A full queue sheds too
//     (overflow), but with the target active the estimate trips first.
//
//   * RetryBudget -- a token bucket that caps client retry amplification:
//     every successful request earns `tokens_per_success` (so the sustained
//     retry rate is at most that fraction of goodput), every retry spends
//     one token, and an empty bucket turns a would-be retry into a clean
//     rejection. This is what stops a shedding service from drowning in its
//     own clients' retries (the PR 5 backoff clients alone only *delay* the
//     storm; the budget bounds it).
//
//   * BrownoutController -- a per-shard overload ladder. The signal is
//     max(queue occupancy, estimated wait / deadline) in [0, ~1]; levels
//     shed optional work in a fixed order and restore it in reverse:
//       L1  pause tier promotions/demotions/writeback ticks (TierEngine)
//       L2  drain the pre-zeroed pool without background refill (PhysManager)
//       L3  reject scan-class requests at admission
//       L4  reject write-class requests too (reads keep serving)
//     Transitions move one level per tick; climbing needs the signal at or
//     above enter[level], descending needs it below exit[level-1] for
//     `hysteresis_ticks` consecutive ticks, so the ladder cannot flap.
//     Brownout NEVER touches durability: journaled writeback of *dirty*
//     promoted data via UserFlush still runs at any level -- only
//     tick-driven optional migrations are deferred (DESIGN.md Sec. 12).
#ifndef O1MEM_SRC_CHAOS_ADMISSION_H_
#define O1MEM_SRC_CHAOS_ADMISSION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>

#include "src/support/check.h"

namespace o1mem {

struct AdmissionConfig {
  bool enabled = false;
  uint64_t queue_capacity = 64;   // hard bound on queued requests per shard
  uint64_t target_wait_ticks = 3;  // standing-queue sojourn target (0 = off)
};

// EWMA weight for the observed-wait and shed-fraction signals.
constexpr double kAdmissionEwmaAlpha = 0.125;

struct RetryBudgetConfig {
  bool enabled = false;
  double tokens_per_success = 0.1;  // sustained retry rate <= 10% of goodput
  double burst = 16.0;              // bucket capacity (and initial balance)
};

struct BrownoutConfig {
  bool enabled = false;
  // enter[k]: signal at which level k+1 engages; exit[k]: signal below which
  // level k+1 disengages (after hysteresis_ticks below it).
  std::array<double, 4> enter = {0.50, 0.70, 0.85, 0.95};
  std::array<double, 4> exit = {0.25, 0.35, 0.45, 0.55};
  uint64_t hysteresis_ticks = 32;
};

class RetryBudget {
 public:
  explicit RetryBudget(const RetryBudgetConfig& config)
      : config_(config), tokens_(config.burst) {}

  // True (and one token spent) when a retry may be scheduled. With the
  // budget disabled every retry is allowed.
  bool TryConsume() {
    if (!config_.enabled) {
      return true;
    }
    if (tokens_ < 1.0) {
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  void OnSuccess() {
    if (config_.enabled && tokens_ < config_.burst) {
      tokens_ = std::min(config_.burst, tokens_ + config_.tokens_per_success);
    }
  }

  double tokens() const { return tokens_; }

 private:
  RetryBudgetConfig config_;
  double tokens_;
};

// Bounded FIFO of requests for one shard. The request payload lives with the
// caller; the queue holds caller-provided POD items of type T.
template <typename T>
class AdmissionQueue {
 public:
  enum class Verdict { kAdmit, kShedDeadline, kShedOverflow };

  AdmissionQueue(const AdmissionConfig& config, uint64_t slots_per_tick)
      : config_(config), slots_per_tick_(slots_per_tick) {
    O1_CHECK(slots_per_tick >= 1);
  }

  // Estimated wait (ticks) a request admitted now would face: everything
  // already queued plus itself, served at slots_per_tick.
  double EstimatedWaitTicks() const {
    return static_cast<double>(queue_.size() + 1) / static_cast<double>(slots_per_tick_);
  }

  // Admission decision for a request whose deadline is `deadline_tick`,
  // arriving at `tick`. kAdmit pushes the item.
  Verdict Offer(const T& item, uint64_t tick, uint64_t deadline_tick) {
    if (config_.enabled && queue_.size() >= config_.queue_capacity) {
      return Verdict::kShedOverflow;
    }
    if (config_.enabled) {
      const double est = EstimatedWaitTicks();
      const double remaining =
          deadline_tick > tick ? static_cast<double>(deadline_tick - tick) : 0.0;
      if (est > remaining) {
        return Verdict::kShedDeadline;
      }
      if (config_.target_wait_ticks != 0 &&
          est > static_cast<double>(config_.target_wait_ticks)) {
        return Verdict::kShedDeadline;
      }
    }
    queue_.push_back(item);
    max_depth_ = std::max<uint64_t>(max_depth_, queue_.size());
    return Verdict::kAdmit;
  }

  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }
  uint64_t max_depth() const { return max_depth_; }
  const T& front() const { return queue_.front(); }
  T PopFront() {
    T item = queue_.front();
    queue_.pop_front();
    return item;
  }

  // Records an observed admission-to-service wait; feeds the brownout
  // signal's EWMA (not the admission estimate, which is exact).
  void ObserveWait(double wait_ticks) {
    ewma_wait_ticks_ += kAdmissionEwmaAlpha * (wait_ticks - ewma_wait_ticks_);
  }
  double ewma_wait_ticks() const { return ewma_wait_ticks_; }

  // Occupancy in [0, 1] against the configured capacity (0 when unbounded).
  double Occupancy() const {
    if (!config_.enabled || config_.queue_capacity == 0) {
      return 0.0;
    }
    return static_cast<double>(queue_.size()) / static_cast<double>(config_.queue_capacity);
  }

  uint64_t slots_per_tick() const { return slots_per_tick_; }

 private:
  AdmissionConfig config_;
  uint64_t slots_per_tick_;
  std::deque<T> queue_;
  uint64_t max_depth_ = 0;
  double ewma_wait_ticks_ = 0.0;
};

class BrownoutController {
 public:
  static constexpr int kMaxLevel = 4;

  explicit BrownoutController(const BrownoutConfig& config) : config_(config) {}

  // One step per tick: climb when the signal reaches the next enter
  // watermark, descend one level after hysteresis_ticks consecutive ticks
  // below the current exit watermark. Returns the (possibly new) level.
  int Update(double signal) {
    if (!config_.enabled) {
      return 0;
    }
    if (level_ < kMaxLevel && signal >= config_.enter[static_cast<size_t>(level_)]) {
      ++level_;
      calm_ticks_ = 0;
    } else if (level_ > 0 && signal < config_.exit[static_cast<size_t>(level_ - 1)]) {
      if (++calm_ticks_ >= config_.hysteresis_ticks) {
        --level_;
        calm_ticks_ = 0;
      }
    } else {
      calm_ticks_ = 0;
    }
    residency_[static_cast<size_t>(level_)]++;
    return level_;
  }

  int level() const { return level_; }
  // Ticks spent at each level (index 0 = not browned out).
  const std::array<uint64_t, kMaxLevel + 1>& residency() const { return residency_; }

 private:
  BrownoutConfig config_;
  int level_ = 0;
  uint64_t calm_ticks_ = 0;
  std::array<uint64_t, kMaxLevel + 1> residency_{};
};

}  // namespace o1mem

#endif  // O1MEM_SRC_CHAOS_ADMISSION_H_
