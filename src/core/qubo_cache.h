#ifndef QJO_CORE_QUBO_CACHE_H_
#define QJO_CORE_QUBO_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jo/query.h"
#include "lp/bilp.h"
#include "lp/jo_encoder.h"
#include "qubo/bilp_to_qubo.h"
#include "util/statusor.h"

namespace qjo {

/// Everything the JO -> MILP -> BILP -> QUBO pipeline (Sec. 3) produces
/// for one query: the decode metadata (milp), the constraint bookkeeping
/// (bilp) and the QUBO with its CSR view already materialised — so an
/// entry can be shared read-only across threads without touching the lazy
/// CSR rebuild path.
struct JoQuboEncoding {
  JoMilpModel milp;
  BilpModel bilp;
  QuboEncoding encoding;
};

/// The QjoConfig slice that determines the encoding pipeline's output.
struct JoEncodingOptions {
  /// Cardinality threshold values; empty = geometric defaults derived
  /// from the query (MakeGeometricThresholds).
  std::vector<double> thresholds;
  int num_thresholds = 1;  ///< used when `thresholds` is empty
  double omega = 1.0;      ///< discretisation precision
};

/// Runs the MILP -> BILP -> QUBO pipeline once, outside any cache. The
/// returned entry has its CSR built, so concurrent readers are safe.
StatusOr<std::shared_ptr<const JoQuboEncoding>> BuildJoQuboEncoding(
    const Query& query, const JoEncodingOptions& options);

/// Fingerprint of (query, options) over every input of the encoding
/// pipeline: relation cardinalities, predicates (endpoints and
/// selectivity), the *resolved* threshold grid, and omega — doubles are
/// keyed bit-exactly, so no two distinct encodings can collide. Relation
/// names are deliberately excluded (they never influence the encoding),
/// and an explicit threshold vector equal to the geometric defaults maps
/// to the same key as the defaults themselves.
std::string JoEncodingFingerprint(const Query& query,
                                  const JoEncodingOptions& options);

/// Memoizing, thread-safe cache of encoding pipeline results keyed by
/// JoEncodingFingerprint: a repeated key skips the MILP -> BILP -> QUBO
/// rebuild and shares one immutable entry. The decomposition loop keeps
/// one per call for its window sub-encodings, whose shapes repeat across
/// rounds. Failures are never cached. An insert at `max_entries` entries
/// evicts the least-recently-used one; entries already handed out stay
/// alive through their shared_ptr, and a lookup that finds the key
/// already present never evicts anything. Eviction counts are surfaced in
/// Stats so a workload that thrashes the cache (e.g. window shapes that
/// exceed the capacity) is visible instead of silent.
///
/// Builds are single-flight: a miss that lands while another thread is
/// already building the same key waits for that build and shares its
/// result instead of encoding a duplicate, so concurrent window solves
/// never build the same QUBO twice. Waiters are counted as hits (they
/// reused a build) plus `coalesced_builds`; a failed build is handed to
/// its waiters but never cached, so the next caller retries.
class QuboBuildCache {
 public:
  explicit QuboBuildCache(size_t max_entries = 1024);

  /// Returns the cached entry for (query, options), building and
  /// inserting it on a miss. Concurrent misses on the same key
  /// single-flight: one thread builds, the rest block on that build and
  /// share its result.
  StatusOr<std::shared_ptr<const JoQuboEncoding>> GetOrBuild(
      const Query& query, const JoEncodingOptions& options);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries displaced one at a time (LRU order) by inserts at
    /// capacity. Never incremented by hits or duplicate-key inserts.
    uint64_t evictions = 0;
    /// Lookups that found the key being built by another thread and
    /// waited for that build instead of starting a duplicate one. Such
    /// lookups are also counted in `hits`.
    uint64_t coalesced_builds = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  /// Race-free snapshot of the counters, safe to call concurrently with
  /// any number of GetOrBuild calls and never contending on the entry
  /// mutex. Memory-order contract: counters are incremented with relaxed
  /// atomics and read with relaxed loads — each counter is individually
  /// exact and monotone, but a snapshot taken mid-operation may observe
  /// one counter of a concurrent lookup and not another (e.g. a miss
  /// counted whose insert has not landed yet). Once the writers quiesce,
  /// a snapshot is exact; cross-counter invariants (hits + misses ==
  /// lookups) hold only at quiescence.
  Stats stats() const;

  size_t size() const;

 private:
  struct CachedEntry {
    std::string key;
    std::shared_ptr<const JoQuboEncoding> encoding;
  };
  /// Most-recently-used entries sit at the front; eviction pops the back.
  using LruList = std::list<CachedEntry>;

  /// One in-flight build: the builder publishes its result under `mutex`
  /// and notifies; waiters block on `cv`. Lives in `building_` only while
  /// the build runs, but shared_ptr-held waiters may outlive that window.
  struct BuildState {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    StatusOr<std::shared_ptr<const JoQuboEncoding>> result =
        Status::Internal("build not finished");
  };

  const size_t max_entries_;
  mutable std::mutex mutex_;
  /// Relaxed atomics so stats() never blocks a lookup (see the contract
  /// on stats()); everything else stays under mutex_.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> coalesced_builds_{0};
  LruList lru_;
  /// Keys view into the node-stable strings owned by `lru_`.
  std::unordered_map<std::string_view, LruList::iterator> entries_;
  /// Keys currently being built (single-flight registry). Owns its key
  /// strings: the LRU node does not exist until the build lands.
  std::unordered_map<std::string, std::shared_ptr<BuildState>> building_;
};

}  // namespace qjo

#endif  // QJO_CORE_QUBO_CACHE_H_
