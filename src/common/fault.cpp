#include "common/fault.h"

namespace sqloop {

const char* FaultKindName(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kSlow:
      return "slow";
    case FaultKind::kLostReply:
      return "lost_reply";
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), rng_(config.seed) {}

bool FaultInjector::BudgetLeftLocked() const noexcept {
  if (config_.max_faults < 0) return true;
  const uint64_t total = injected_connect_ + injected_drop_ +
                         injected_transient_ + injected_slow_ +
                         injected_lost_reply_;
  return total < static_cast<uint64_t>(config_.max_faults);
}

bool FaultInjector::FireLocked(double rate, uint64_t every, uint64_t counter) {
  // The deterministic every-N trigger wins; the rate draw consumes one PRNG
  // value only when a rate is configured, keeping the stream stable.
  if (every > 0 && counter % every == 0) return true;
  if (rate > 0 && rng_.NextDouble() < rate) return true;
  return false;
}

bool FaultInjector::ShouldFailConnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t n = ++connect_decisions_;
  if (!BudgetLeftLocked()) return false;
  if (FireLocked(config_.connect_failure_rate, config_.connect_every, n)) {
    ++injected_connect_;
    return true;
  }
  return false;
}

FaultKind FaultInjector::NextStatementFault() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t n = ++statement_decisions_;
  if (!BudgetLeftLocked()) return FaultKind::kNone;
  if (FireLocked(config_.drop_rate, config_.drop_every, n)) {
    ++injected_drop_;
    return FaultKind::kDrop;
  }
  if (FireLocked(config_.transient_rate, config_.transient_every, n)) {
    ++injected_transient_;
    return FaultKind::kTransient;
  }
  if (FireLocked(config_.slow_rate, config_.slow_every, n)) {
    ++injected_slow_;
    return FaultKind::kSlow;
  }
  return FaultKind::kNone;
}

bool FaultInjector::ShouldLoseReply() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.lost_reply_every == 0) return false;
  const uint64_t n = ++reply_decisions_;
  if (!BudgetLeftLocked()) return false;
  if (n % config_.lost_reply_every != 0) return false;
  ++injected_lost_reply_;
  return true;
}

bool FaultInjector::ShouldKillAtRound(int64_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.kill_at_round <= 0 || kill_fired_) return false;
  if (round < config_.kill_at_round) return false;
  kill_fired_ = true;
  return true;
}

uint64_t FaultInjector::injected_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_connect_ + injected_drop_ + injected_transient_ +
         injected_slow_ + injected_lost_reply_;
}

uint64_t FaultInjector::injected(FaultKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (kind) {
    case FaultKind::kNone:
      return 0;
    case FaultKind::kDrop:
      return injected_drop_;
    case FaultKind::kTransient:
      return injected_transient_;
    case FaultKind::kSlow:
      return injected_slow_;
    case FaultKind::kLostReply:
      return injected_lost_reply_;
  }
  return 0;
}

uint64_t FaultInjector::injected_connect_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_connect_;
}

uint64_t FaultInjector::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connect_decisions_ + statement_decisions_;
}

}  // namespace sqloop
