#include "qif/pfs/read_cache.hpp"

#include <algorithm>

namespace qif::pfs {

void ReadCache::insert(std::int64_t offset, std::int64_t len) {
  if (!enabled() || len <= 0) return;
  // Replace any overlap, then add the fresh extent (keeps accounting exact).
  cached_bytes_ -= extents_.erase_range(offset, offset + len);
  // Coalesce with neighbours.
  std::int64_t off = offset;
  std::int64_t l = len;
  if (auto it = extents_.lower_bound(off); it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == off) {
      off = prev->first;
      l += prev->second;
      extents_.erase(prev);
    }
  }
  if (auto it = extents_.find(off + l); it != extents_.end()) {
    l += it->second;
    extents_.erase(it);
  }
  extents_.set(off, l);
  cached_bytes_ += len;
  fifo_.emplace_back(offset, len);
  evict_to_budget();
}

void ReadCache::evict_to_budget() {
  while (cached_bytes_ > params_.capacity_bytes && fifo_head_ < fifo_.size()) {
    const auto [off, len] = fifo_[fifo_head_++];
    cached_bytes_ -= extents_.erase_range(off, off + len);
  }
  if (fifo_head_ * 2 >= fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
}

bool ReadCache::lookup(std::int64_t offset, std::int64_t len) {
  if (!enabled()) return false;
  // Find the extent containing `offset`.
  bool covered = false;
  if (auto it = extents_.upper_bound(offset); it != extents_.begin()) {
    auto prev = std::prev(it);
    covered = prev->first <= offset && prev->first + prev->second >= offset + len;
  }
  (covered ? hits_ : misses_) += 1;
  // Touch-on-hit: refresh recency so hot small files survive streaming
  // writers sweeping through the FIFO budget (LRU approximation).
  if (covered) fifo_.emplace_back(offset, len);
  return covered;
}

}  // namespace qif::pfs
