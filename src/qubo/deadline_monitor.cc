#include "qubo/deadline_monitor.h"

#include <algorithm>

namespace qjo {

DeadlineMonitor::DeadlineMonitor()
    : thread_([this](std::stop_token stop) { Loop(std::move(stop)); }) {}

DeadlineMonitor::~DeadlineMonitor() {
  thread_.request_stop();
  wakeup_.notify_all();
  // jthread joins on destruction.
}

DeadlineMonitor& DeadlineMonitor::Shared() {
  // Never destroyed: a worker that outlives static destruction may still
  // arm it.
  static DeadlineMonitor* const kShared = new DeadlineMonitor();
  return *kShared;
}

uint64_t DeadlineMonitor::Arm(std::stop_source source,
                              Clock::time_point deadline) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    entries_.push_back(Entry{id, deadline, std::move(source)});
    ++generation_;
  }
  // Always wake the loop: the new deadline may be earlier than the one
  // it is currently sleeping towards.
  wakeup_.notify_all();
  return id;
}

bool DeadlineMonitor::Disarm(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

size_t DeadlineMonitor::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void DeadlineMonitor::Loop(std::stop_token stop) {
  std::vector<std::stop_source> due;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop.stop_requested()) {
    const Clock::time_point now = Clock::now();
    // Take everything due off the list, then find the next deadline to
    // sleep towards.
    Clock::time_point next = Clock::time_point::max();
    for (size_t i = 0; i < entries_.size();) {
      if (entries_[i].deadline <= now) {
        due.push_back(std::move(entries_[i].source));
        fired_.fetch_add(1, std::memory_order_relaxed);
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        next = std::min(next, entries_[i].deadline);
        ++i;
      }
    }
    if (!due.empty()) {
      // Fire outside the lock: request_stop() runs the source's stop
      // callbacks on this thread.
      lock.unlock();
      for (std::stop_source& source : due) source.request_stop();
      due.clear();
      lock.lock();
      continue;  // re-scan: entries may have been armed while unlocked
    }
    // Sleep towards the earliest armed deadline (or indefinitely when
    // nothing is armed); a new Arm bumps the generation and wakes us to
    // recompute, so an earlier deadline is never slept through.
    const uint64_t gen = generation_;
    const auto rearmed = [this, gen] { return generation_ != gen; };
    if (next == Clock::time_point::max()) {
      wakeup_.wait(lock, stop, rearmed);
    } else {
      wakeup_.wait_until(lock, stop, next, rearmed);
    }
  }
}

}  // namespace qjo
