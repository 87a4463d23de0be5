#ifndef QJO_SERVE_PLAN_CACHE_H_
#define QJO_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/quantum_optimizer.h"

namespace qjo {

class MetricsRegistry;

/// Configuration of the serving layer's plan/result cache.
struct PlanCacheOptions {
  /// LRU capacity in ready entries (pending entries do not count).
  size_t capacity = 1024;
  /// Ready-entry time-to-live in milliseconds; <= 0 = entries never
  /// expire. TTL exists because cached plans embed cardinality estimates —
  /// a serving deployment refreshing statistics wants stale plans aged out
  /// even when the key space is small enough to never hit the LRU.
  double ttl_ms = -1.0;
};

/// The serving layer's one plan table, keyed by OptimizerService::PlanKey
/// (the encoding fingerprint plus every result-determining config field).
/// Where QuboBuildCache memoizes the *encoding*, PlanCache memoizes the
/// whole pipeline *answer*. An entry is either
///  * pending — a leader is queued or solving the key, and the entry owns
///    the followers waiting for its answer (single flight); or
///  * ready — a report, its insert time and a `warmed` bit.
/// LRU and TTL act on ready entries only. Pending entries sit on their own
/// list: never evicted, expired or listed by Keys(), and expiring their
/// followers never walks the ready entries.
///
/// A lookup landing on an expired entry removes it (ttl_expiration +
/// miss); an insert past capacity first sweeps expired entries and only
/// then evicts the least-recently-used live one. Hits refresh recency; a
/// re-insert replaces the report in place and restarts its TTL.
///
/// Not thread-safe: the owner serialises every call but stats(), which
/// reads relaxed atomics (each counter exact and monotone). Each event is
/// also counted as `serve.cache.{hits,misses,evictions,ttl_expirations}`
/// in the optional metrics registry.
class PlanCache {
 public:
  using Clock = std::chrono::steady_clock;

  /// A request parked on a pending entry; the serving layer derives its
  /// request record from this so the table can own followers.
  struct Follower {
    Follower() = default;
    Follower(const Follower&) = delete;
    Follower& operator=(const Follower&) = delete;
    virtual ~Follower() = default;
    /// Absolute deadline; time_point::max() = none.
    Clock::time_point deadline = Clock::time_point::max();
  };
  /// Followers in arrival order.
  using Followers = std::vector<std::unique_ptr<Follower>>;

  explicit PlanCache(const PlanCacheOptions& options = {},
                     MetricsRegistry* metrics = nullptr);

  /// The ready report for `key` (and whether warm-up inserted it), or null
  /// when absent, pending or expired. *At overloads take the clock reading
  /// so tests can drive TTL deterministically.
  std::shared_ptr<const QjoReport> Lookup(std::string_view key);
  std::shared_ptr<const QjoReport> LookupAt(std::string_view key,
                                            Clock::time_point now,
                                            bool* warmed = nullptr);

  /// Inserts (or replaces) the ready entry for `key`. A pending key is
  /// left to its leader.
  void Insert(std::string_view key, QjoReport report);
  void InsertAt(std::string_view key, QjoReport report, Clock::time_point now);

  /// Opens a pending entry for `key`'s leader; false when the key is
  /// already pending or live (an expired entry is dropped first).
  bool BeginPendingAt(std::string_view key, Clock::time_point now);
  /// `key`'s pending follower list (append to attach); null if not pending.
  Followers* PendingFollowers(std::string_view key);
  /// Leader epilogue: a report turns the pending entry ready, null erases
  /// it. Returns its followers.
  Followers EndPendingAt(std::string_view key,
                         std::shared_ptr<const QjoReport> report,
                         Clock::time_point now, bool warmed);
  /// Detaches every follower due by `now` (time_point::max() = all; the
  /// rest keep their order) and lowers `*next` to the earliest remaining
  /// deadline. Pending entries stay.
  Followers ExpireFollowers(Clock::time_point now, Clock::time_point* next);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Live entries displaced by inserts past capacity.
    uint64_t evictions = 0;
    /// Entries removed because their TTL had passed (on lookup or by the
    /// pre-eviction sweep of an insert past capacity).
    uint64_t ttl_expirations = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  Stats stats() const;

  /// Every live ready key, most recently used first: the warm-up export
  /// the serving layer persists and replays through WarmUp().
  std::vector<std::string> Keys() const;
  std::vector<std::string> KeysAt(Clock::time_point now) const;

  /// Ready entries held (expired ones included until swept).
  size_t size() const { return ready_.size(); }

 private:
  struct Entry {
    std::string key;
    /// Null while pending.
    std::shared_ptr<const QjoReport> report;
    Clock::time_point inserted;
    bool warmed = false;
    Followers followers;  ///< pending entries only
  };
  using EntryList = std::list<Entry>;

  bool Expired(const Entry& entry, Clock::time_point now) const;
  /// Appends a pending entry for an absent `key`.
  EntryList::iterator AddPending(std::string_view key, Clock::time_point now);
  /// Makes `node` the most recent ready entry; trims back to capacity.
  void MakeReady(EntryList::iterator node,
                 std::shared_ptr<const QjoReport> report,
                 Clock::time_point now, bool warmed);
  EntryList::iterator EraseReady(EntryList::iterator node,
                                 std::atomic<uint64_t>& counter,
                                 const char* metric);
  void Count(std::atomic<uint64_t>& counter, const char* metric);

  const size_t capacity_;
  const double ttl_ms_;
  MetricsRegistry* const metrics_;
  /// MRU first. Nodes move between the lists by splice, so iterators and
  /// the index's string_view keys stay valid for an entry's whole life.
  EntryList ready_;
  EntryList pending_;
  std::unordered_map<std::string_view, EntryList::iterator> index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> ttl_expirations_{0};
};

}  // namespace qjo

#endif  // QJO_SERVE_PLAN_CACHE_H_
