#ifndef QJO_QUBO_DEADLINE_MONITOR_H_
#define QJO_QUBO_DEADLINE_MONITOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

namespace qjo {

/// Turns wall-clock deadlines into cooperative stop requests. One monitor
/// thread watches any number of armed (stop source, deadline) pairs and
/// calls `request_stop()` on each source when its deadline passes; the
/// solvers observe the matching std::stop_token through RunContext::stop
/// (between sweeps, or every 2^16 steps of the brute-force walk) and wind
/// down.
///
/// This is the one deadline timer of the process: every portfolio race
/// with a deadline and every dispatched serving request arms Shared(),
/// so any number of in-flight deadlines costs one thread.
///
/// Contracts:
///  * Arm() stores a copy of the source, so the caller's own source may
///    be destroyed at any time; Disarm() is only needed to stop a later
///    firing and to learn whether the entry fired.
///  * The monitor removes an entry under its mutex and calls
///    `request_stop()` after releasing it, so stop callbacks registered on
///    the source run on the monitor thread but never under the monitor's
///    lock (a callback may itself Arm or Disarm).
///  * Arm() never blocks behind a firing in progress for longer than the
///    list scan (the monitor holds the mutex only to scan, never while
///    sleeping or firing).
///  * A source armed with a deadline already in the past fires on the
///    monitor's next wakeup (immediately scheduled).
class DeadlineMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineMonitor();
  ~DeadlineMonitor();

  DeadlineMonitor(const DeadlineMonitor&) = delete;
  DeadlineMonitor& operator=(const DeadlineMonitor&) = delete;

  /// The process-wide monitor. Its thread starts on the first call and is
  /// never joined (the instance lives until the process exits), so arming
  /// it is safe from any thread at any time.
  static DeadlineMonitor& Shared();

  /// Registers `source` to be stopped at `deadline` (time_point::max()
  /// never fires). Ids are process-unique and never reused.
  uint64_t Arm(std::stop_source source, Clock::time_point deadline);

  /// Withdraws an armed entry. Returns true when the entry was still
  /// armed, false when it already fired (or was disarmed before).
  bool Disarm(uint64_t id);

  /// Entries currently armed (fired entries are removed as they fire).
  size_t armed() const;

  /// Cumulative number of sources stopped by deadline expiry.
  uint64_t fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t id = 0;
    Clock::time_point deadline;
    std::stop_source source;
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
