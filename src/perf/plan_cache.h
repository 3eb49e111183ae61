#pragma once
// Shape-keyed plan cache: the piece that turns the chooser into a
// serving-grade dispatcher.
//
// PlanChooser::rank walks an O(grid) candidate space and scores every
// candidate with the performance model — exactly right to do once per
// convolution shape, and far too expensive to do once per request. The
// cache memoizes the full ranked result per ConvShape: the winner drives
// dispatch, the ranked fallbacks feed fault degradation (a plan with
// smaller LDM tiles may survive a capacity fault that killed the
// winner), and the executable-index list records which candidates the
// level-1 mesh kernels can actually run.
//
// Thread-safety: every method may be called concurrently (a serving
// front-end dispatches N worker threads through one handle, hence one
// cache). Entries are immutable once built and handed out as
// shared_ptr<const CachedPlan>, so a reader's entry stays valid even if
// LRU eviction drops it from the table mid-use. Building happens under
// the cache mutex: concurrent first sights of the same shape still rank
// exactly once.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/perf/chooser.h"

namespace swdnn::perf {

/// The memoized result of one PlanChooser::rank call. Built once by
/// the owner's builder and never rewritten.
struct CachedPlan {
  /// All feasible plans for the shape, best first (rank order).
  std::vector<PlanChoice> ranked;

  /// Indices into `ranked` of the plans the level-1 mesh kernels can
  /// execute for this shape, in dispatch order: rank order, or the
  /// order the builder chose (conv::SwConvolution::set_autotune sorts
  /// by predicted launch time). Empty means the shape has no mesh route
  /// (host fallback territory).
  std::vector<std::size_t> executable;

  bool has_executable() const { return !executable.empty(); }

  /// Best mesh-executable choice; callers must check has_executable().
  const PlanChoice& best_executable() const { return ranked[executable[0]]; }
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< == builder (PlanChooser::rank) invocations
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

class PlanCache {
 public:
  using Entry = std::shared_ptr<const CachedPlan>;
  using Builder = std::function<CachedPlan(const conv::ConvShape&)>;

  struct LookupResult {
    Entry entry;  ///< never null
    bool hit = false;
  };

  /// `capacity` bounds the number of cached shapes; the least recently
  /// used entry is evicted when a new shape would exceed it.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the entry for `shape`, invoking `build` exactly once per
  /// shape lifetime in the cache (first sight or after eviction). If
  /// `build` throws, nothing is cached and the exception propagates.
  LookupResult lookup(const conv::ConvShape& shape, const Builder& build);

  /// Entry if present, else null. Purely diagnostic: does not touch
  /// the hit/miss counters or the LRU order.
  Entry peek(const conv::ConvShape& shape) const;

  /// Counter-neutral lookup for compile-time warm-up: builds and
  /// inserts the entry if absent, touching neither hits_ nor misses_,
  /// so the hit-rate observed at serve time reflects serve traffic
  /// only. `hit` is false when this call built the entry.
  LookupResult warm(const conv::ConvShape& shape, const Builder& build);

  PlanCacheStats stats() const;
  void clear();

  static constexpr std::size_t kDefaultCapacity = 1024;

 private:
  struct ShapeHash {
    std::size_t operator()(const conv::ConvShape& s) const;
  };

  struct Slot {
    Entry entry;
    std::list<conv::ConvShape>::iterator lru_pos;
  };

  void touch(Slot& slot) const;  // move to LRU front; mutex must be held
  /// Builds and inserts the absent `shape`, evicting the LRU entry at
  /// capacity; mutex must be held.
  Entry insert(const conv::ConvShape& shape, const Builder& build);

  mutable std::mutex mutex_;
  std::size_t capacity_;
  mutable std::list<conv::ConvShape> lru_;  // front = most recent
  std::unordered_map<conv::ConvShape, Slot, ShapeHash> table_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace swdnn::perf
