#include "core/qubo_cache.h"

#include <bit>
#include <sstream>
#include <utility>

namespace qjo {
namespace {

/// Bit-exact rendering of a double (hex of its IEEE-754 pattern): two
/// fingerprints match iff every keyed double is identical to the bit.
void AppendDouble(std::ostringstream& os, double value) {
  os << std::hex << std::bit_cast<uint64_t>(value) << std::dec;
}

std::vector<double> ResolveThresholds(const Query& query,
                                      const JoEncodingOptions& options) {
  return options.thresholds.empty()
             ? MakeGeometricThresholds(query, options.num_thresholds)
             : options.thresholds;
}

}  // namespace

std::string JoEncodingFingerprint(const Query& query,
                                  const JoEncodingOptions& options) {
  std::ostringstream os;
  os << "T" << query.num_relations() << ";R";
  for (const Relation& r : query.relations()) {
    AppendDouble(os, r.cardinality);
    os << ",";
  }
  os << ";P";
  for (const Predicate& p : query.predicates()) {
    os << p.left << "-" << p.right << ":";
    AppendDouble(os, p.selectivity);
    os << ",";
  }
  os << ";TH";
  for (double t : ResolveThresholds(query, options)) {
    AppendDouble(os, t);
    os << ",";
  }
  os << ";W";
  AppendDouble(os, options.omega);
  return os.str();
}

StatusOr<std::shared_ptr<const JoQuboEncoding>> BuildJoQuboEncoding(
    const Query& query, const JoEncodingOptions& options) {
  JoMilpOptions milp_options;
  milp_options.thresholds = ResolveThresholds(query, options);
  milp_options.omega = options.omega;
  QJO_ASSIGN_OR_RETURN(JoMilpModel milp, EncodeJoAsMilp(query, milp_options));
  QJO_ASSIGN_OR_RETURN(BilpModel bilp,
                       LowerToBilp(milp.model(), options.omega));
  QuboConversionOptions qubo_options;
  qubo_options.omega = options.omega;
  QJO_ASSIGN_OR_RETURN(QuboEncoding encoding,
                       ConvertBilpToQubo(bilp, qubo_options));
  auto entry = std::make_shared<JoQuboEncoding>();
  entry->milp = std::move(milp);
  entry->bilp = std::move(bilp);
  entry->encoding = std::move(encoding);
  // Materialise the CSR while the entry is still private: after this the
  // QUBO is only ever read, so sharing across solver threads is safe.
  entry->encoding.qubo.Csr();
  return std::shared_ptr<const JoQuboEncoding>(std::move(entry));
}

size_t EstimateEncodingBytes(const JoQuboEncoding& entry) {
  // Fitted to glibc's in-use bytes (mallinfo2) for generator encodings of
  // 4-24 relations: each estimate lands at 0.7-1.05x of that count.
  constexpr size_t kBytesPerVariable = 176;
  constexpr size_t kBytesPerQuadraticTerm = 88;
  const Qubo& qubo = entry.encoding.qubo;
  return kBytesPerVariable * static_cast<size_t>(qubo.num_variables()) +
         kBytesPerQuadraticTerm *
             static_cast<size_t>(qubo.num_quadratic_terms());
}

QuboBuildCache::QuboBuildCache(size_t max_entries, size_t max_bytes)
    : max_entries_(max_entries == 0 ? 1 : max_entries),
      max_bytes_(max_bytes) {}

StatusOr<std::shared_ptr<const JoQuboEncoding>> QuboBuildCache::GetOrBuild(
    const Query& query, const JoEncodingOptions& options) {
  const std::string key = JoEncodingFingerprint(query, options);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(std::string_view(key));
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      return it->second->encoding;
    }
    // Single-flight: if another thread is mid-build on this key, wait on
    // its BuildState instead of encoding a duplicate. Waiters count as
    // hits (they reuse a build) plus coalesced_builds.
    if (auto building = building_.find(key); building != building_.end()) {
      std::shared_ptr<BuildState> state = building->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      coalesced_builds_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      std::unique_lock<std::mutex> wait_lock(state->mutex);
      state->cv.wait(wait_lock, [&] { return state->done; });
      return state->result;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    building_.emplace(key, std::make_shared<BuildState>());
  }
  // Build outside the lock: a slow encode must not serialise unrelated
  // queries of a batch. The building_ entry guarantees no concurrent
  // build of the same key; publish to waiters whatever happens.
  StatusOr<std::shared_ptr<const JoQuboEncoding>> built =
      BuildJoQuboEncoding(query, options);
  std::shared_ptr<BuildState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto building = building_.find(key);
    state = building->second;
    building_.erase(building);
    if (built.ok()) {
      const size_t bytes = EstimateEncodingBytes(**built);
      // Displace least-recently-used entries one at a time, only as many
      // as the new entry needs; one cold key cannot dump every hot entry.
      while (!lru_.empty() && (entries_.size() >= max_entries_ ||
                               bytes_ + bytes > max_bytes_)) {
        entries_.erase(std::string_view(lru_.back().key));
        bytes_ -= lru_.back().bytes;
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      lru_.push_front({key, *built, bytes});
      bytes_ += bytes;
      entries_.emplace(std::string_view(lru_.front().key), lru_.begin());
    }
  }
  {
    std::lock_guard<std::mutex> publish(state->mutex);
    state->result = built;
    state->done = true;
  }
  state->cv.notify_all();
  return built;
}

QuboBuildCache::Stats QuboBuildCache::stats() const {
  // Lock-free by design (see the header contract): relaxed loads of
  // counters that are only ever incremented, so concurrent lookups are
  // never serialised behind a stats scrape.
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.coalesced_builds = coalesced_builds_.load(std::memory_order_relaxed);
  return s;
}

size_t QuboBuildCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace qjo
