#include "src/perf/plan_cache.h"

namespace swdnn::perf {

namespace {

inline void hash_combine(std::size_t& seed, std::int64_t v) {
  // boost::hash_combine's mixing constant; good enough for a cache key.
  seed ^= std::hash<std::int64_t>{}(v) + 0x9e3779b97f4a7c15ull +
          (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t PlanCache::ShapeHash::operator()(
    const conv::ConvShape& s) const {
  std::size_t seed = 0;
  hash_combine(seed, s.batch);
  hash_combine(seed, s.ni);
  hash_combine(seed, s.no);
  hash_combine(seed, s.ri);
  hash_combine(seed, s.ci);
  hash_combine(seed, s.kr);
  hash_combine(seed, s.kc);
  hash_combine(seed, s.stride_r);
  hash_combine(seed, s.stride_c);
  return seed;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void PlanCache::touch(Slot& slot) const {
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
}

PlanCache::Entry PlanCache::insert(const conv::ConvShape& shape,
                                   const Builder& build) {
  auto entry = std::make_shared<const CachedPlan>(build(shape));
  if (table_.size() >= capacity_) {
    const conv::ConvShape& victim = lru_.back();
    table_.erase(victim);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(shape);
  table_.emplace(shape, Slot{entry, lru_.begin()});
  return entry;
}

PlanCache::LookupResult PlanCache::lookup(const conv::ConvShape& shape,
                                          const Builder& build) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = table_.find(shape);
  if (it != table_.end()) {
    ++hits_;
    touch(it->second);
    return LookupResult{it->second.entry, /*hit=*/true};
  }

  // Build under the mutex: concurrent first sights of the same shape
  // must rank once, and ranking (hundreds of closed-form model
  // evaluations) is cheap next to a simulated launch.
  ++misses_;
  return LookupResult{insert(shape, build), /*hit=*/false};
}

PlanCache::LookupResult PlanCache::warm(const conv::ConvShape& shape,
                                        const Builder& build) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = table_.find(shape);
  if (it != table_.end()) {
    touch(it->second);
    return LookupResult{it->second.entry, /*hit=*/true};
  }
  return LookupResult{insert(shape, build), /*hit=*/false};
}

PlanCache::Entry PlanCache::peek(const conv::ConvShape& shape) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(shape);
  return it == table_.end() ? nullptr : it->second.entry;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = table_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  table_.clear();
  lru_.clear();
  hits_ = misses_ = evictions_ = 0;
}

}  // namespace swdnn::perf
