#include "qubo/deadline_monitor.h"

#include <algorithm>

#include "util/run_context.h"

namespace qjo {

DeadlineMonitor::DeadlineMonitor()
    : thread_([this](std::stop_token stop) { Loop(std::move(stop)); }) {}

DeadlineMonitor::~DeadlineMonitor() {
  thread_.request_stop();
  wakeup_.notify_all();
  // jthread joins on destruction; no token is touched afterwards.
}

uint64_t DeadlineMonitor::Arm(std::atomic<bool>* token,
                              Clock::time_point deadline) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    entries_.push_back(Entry{id, deadline, token});
    ++generation_;
  }
  // Always wake the loop: the new deadline may be earlier than the one
  // it is currently sleeping towards.
  wakeup_.notify_all();
  return id;
}

uint64_t DeadlineMonitor::ArmAfterMs(std::atomic<bool>* token, double ms) {
  return Arm(token, DeadlineAfterMs(Clock::now(), ms));
}

void DeadlineMonitor::Disarm(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Firing happens under this mutex too, so once we hold it the monitor
  // is either done with the token or has not reached it; erasing the
  // entry here closes both paths.
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [id](const Entry& e) { return e.id == id; }),
                 entries_.end());
}

size_t DeadlineMonitor::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void DeadlineMonitor::Loop(std::stop_token stop) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop.stop_requested()) {
    const Clock::time_point now = Clock::now();
    // Fire everything due, then find the next deadline to sleep towards.
    Clock::time_point next = Clock::time_point::max();
    for (size_t i = 0; i < entries_.size();) {
      if (entries_[i].deadline <= now) {
        entries_[i].token->store(true, std::memory_order_release);
        fired_.fetch_add(1, std::memory_order_relaxed);
        entries_[i] = entries_.back();
        entries_.pop_back();
      } else {
        next = std::min(next, entries_[i].deadline);
        ++i;
      }
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
