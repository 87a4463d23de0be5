#include "serve/plan_cache.h"

#include <algorithm>
#include <iterator>

#include "obs/obs.h"

namespace qjo {

PlanCache::PlanCache(const PlanCacheOptions& options, MetricsRegistry* metrics)
    : capacity_(std::max<size_t>(1, options.capacity)),
      ttl_ms_(options.ttl_ms),
      metrics_(metrics) {}

bool PlanCache::Expired(const Entry& entry, Clock::time_point now) const {
  if (ttl_ms_ <= 0.0) return false;
  const double age_ms =
      std::chrono::duration<double, std::milli>(now - entry.inserted).count();
  return age_ms > ttl_ms_;
}

void PlanCache::Count(std::atomic<uint64_t>& counter, const char* metric) {
  counter.fetch_add(1, std::memory_order_relaxed);
  if (metrics_ != nullptr) metrics_->Count(metric);
}

PlanCache::EntryList::iterator PlanCache::EraseReady(
    EntryList::iterator node, std::atomic<uint64_t>& counter,
    const char* metric) {
  index_.erase(std::string_view(node->key));
  Count(counter, metric);
  return ready_.erase(node);
}

std::shared_ptr<const QjoReport> PlanCache::LookupAt(std::string_view key,
                                                     Clock::time_point now,
                                                     bool* warmed) {
  auto it = index_.find(key);
  if (it == index_.end() || it->second->report == nullptr) {
    Count(misses_, "serve.cache.misses");
    return nullptr;
  }
  const EntryList::iterator node = it->second;
  if (Expired(*node, now)) {
    EraseReady(node, ttl_expirations_, "serve.cache.ttl_expirations");
    Count(misses_, "serve.cache.misses");
    return nullptr;
  }
  ready_.splice(ready_.begin(), ready_, node);  // refresh recency
  Count(hits_, "serve.cache.hits");
  if (warmed != nullptr) *warmed = node->warmed;
  return node->report;
}

bool PlanCache::BeginPendingAt(std::string_view key, Clock::time_point now) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    const EntryList::iterator node = it->second;
    if (node->report == nullptr || !Expired(*node, now)) return false;
    EraseReady(node, ttl_expirations_, "serve.cache.ttl_expirations");
  }
  pending_.push_front(Entry{std::string(key), nullptr, now, false, {}});
  index_.emplace(std::string_view(pending_.front().key), pending_.begin());
  return true;
}

PlanCache::Followers* PlanCache::PendingFollowers(std::string_view key) {
  auto it = index_.find(key);
  if (it == index_.end() || it->second->report != nullptr) return nullptr;
  return &it->second->followers;
}

PlanCache::Followers PlanCache::EndPendingAt(
    std::string_view key, std::shared_ptr<const QjoReport> report,
    Clock::time_point now, bool warmed) {
  auto it = index_.find(key);
  if (it == index_.end() || it->second->report != nullptr) return {};
  const EntryList::iterator node = it->second;
  Followers followers = std::move(node->followers);  // leaves it empty
  if (report != nullptr) {
    MakeReady(node, std::move(report), now, warmed);
  } else {
    index_.erase(it);
    pending_.erase(node);
  }
  return followers;
}

void PlanCache::MakeReady(EntryList::iterator node,
                          std::shared_ptr<const QjoReport> report,
                          Clock::time_point now, bool warmed) {
  ready_.splice(ready_.begin(), pending_, node);
  node->report = std::move(report);
  node->inserted = now;
  node->warmed = warmed;
  if (ready_.size() <= capacity_) return;
  // Sweep expired entries first so TTL victims are never miscounted as
  // LRU evictions. The fresh entry at the front is never expired.
  for (auto it = std::next(ready_.begin()); it != ready_.end();) {
    it = Expired(*it, now)
             ? EraseReady(it, ttl_expirations_, "serve.cache.ttl_expirations")
             : std::next(it);
  }
  while (ready_.size() > capacity_) {
    EraseReady(std::prev(ready_.end()), evictions_, "serve.cache.evictions");
  }
}

PlanCache::Followers PlanCache::ExpireFollowers(Clock::time_point now,
                                                Clock::time_point* next) {
  Followers expired;
  for (Entry& entry : pending_) {
    Followers& followers = entry.followers;
    const auto waiting_end = std::stable_partition(
        followers.begin(), followers.end(),
        [now](const auto& follower) { return follower->deadline > now; });
    for (auto it = followers.begin(); it != waiting_end; ++it) {
      *next = std::min(*next, (*it)->deadline);
    }
    std::move(waiting_end, followers.end(), std::back_inserter(expired));
    followers.erase(waiting_end, followers.end());
  }
  return expired;
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.ttl_expirations = ttl_expirations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qjo
