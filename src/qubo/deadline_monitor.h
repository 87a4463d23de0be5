#ifndef QJO_QUBO_DEADLINE_MONITOR_H_
#define QJO_QUBO_DEADLINE_MONITOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace qjo {

/// Turns wall-clock deadlines into cooperative stop-token flips. One
/// monitor thread watches any number of armed (token, deadline) pairs and
/// stores `true` into each token when its deadline passes; the stochastic
/// solvers observe the token between sweeps through SolverControl::stop
/// and wind down with whatever state they reached.
///
/// This is the shared deadline plumbing of the serving layer: instead of
/// one watchdog thread per in-flight request (the portfolio race's
/// private watchdog is fine for one race at a time, but a service with
/// hundreds of concurrent deadlines would burn a thread each), every
/// request arms the same monitor.
///
/// Contracts:
///  * Tokens are fired with `memory_order_release` stores while the
///    monitor's mutex is held. Disarm() acquires the same mutex, so after
///    Disarm(id) returns the monitor will never touch that token again —
///    the caller may immediately destroy it. (A token may still have been
///    fired just *before* the Disarm; callers treat "fired but solve
///    already done" as a no-op.)
///  * Arm() never blocks behind a firing in progress for longer than the
///    token stores themselves (the monitor holds the mutex only to scan
///    and fire, never while sleeping).
///  * A token armed with a deadline already in the past fires on the
///    monitor's next wakeup (immediately scheduled).
class DeadlineMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineMonitor();
  ~DeadlineMonitor();

  DeadlineMonitor(const DeadlineMonitor&) = delete;
  DeadlineMonitor& operator=(const DeadlineMonitor&) = delete;

  /// Registers `token` to be set at `deadline`. The token must stay alive
  /// until Disarm() on the returned id. Ids are process-unique and never
  /// reused.
  uint64_t Arm(std::atomic<bool>* token, Clock::time_point deadline);

  /// Convenience overload: deadline `ms` milliseconds from now
  /// (saturating: a budget too far out to represent never fires).
  uint64_t ArmAfterMs(std::atomic<bool>* token, double ms);

  /// Withdraws an armed entry. Safe to call with an id that already
  /// fired (the entry is gone either way). After return the monitor
  /// holds no reference to the token.
  void Disarm(uint64_t id);

  /// Entries currently armed (fired entries are removed as they fire).
  size_t armed() const;

  /// Cumulative number of tokens fired by deadline expiry.
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t id = 0;
    Clock::time_point deadline;
    std::atomic<bool>* token = nullptr;
  };

  void Loop(std::stop_token stop);

  mutable std::mutex mutex_;
  std::condition_variable_any wakeup_;
  std::vector<Entry> entries_;  ///< unordered; scans are O(armed), tiny
  /// Bumped by every Arm (under mutex_) so the loop's waits can detect a
  /// newly-armed, possibly-earlier deadline and recompute their sleep.
  uint64_t generation_ = 0;
  uint64_t next_id_ = 1;
  std::atomic<uint64_t> fired_{0};
  std::jthread thread_;  ///< last member: joins before the rest
};

}  // namespace qjo

#endif  // QJO_QUBO_DEADLINE_MONITOR_H_
