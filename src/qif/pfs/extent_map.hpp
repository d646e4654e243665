// Offset-ordered map of disjoint byte extents (offset -> length), shared by
// the server's write-back and read caches.
//
// It recycles its tree nodes: an erased node is kept and reused by the next
// insert (std::map::extract / insert(node_handle)), so the steady churn of
// a cache — every write erases the extents it merges and inserts the merged
// one — allocates nothing once the map has reached its working size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

namespace qif::pfs {

class ExtentMap {
 public:
  using Map = std::map<std::int64_t, std::int64_t>;
  using iterator = Map::iterator;
  using const_iterator = Map::const_iterator;

  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] iterator begin() { return map_.begin(); }
  [[nodiscard]] iterator end() { return map_.end(); }
  [[nodiscard]] const_iterator begin() const { return map_.begin(); }
  [[nodiscard]] const_iterator end() const { return map_.end(); }
  [[nodiscard]] iterator lower_bound(std::int64_t offset) { return map_.lower_bound(offset); }
  [[nodiscard]] iterator upper_bound(std::int64_t offset) { return map_.upper_bound(offset); }
  [[nodiscard]] iterator find(std::int64_t offset) { return map_.find(offset); }

  /// Sets the extent starting at `offset` to `len`, inserting it if absent.
  void set(std::int64_t offset, std::int64_t len) {
    if (spare_.empty()) {
      map_.insert_or_assign(offset, len);
      return;
    }
    Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = offset;
    node.mapped() = len;
    auto result = map_.insert(std::move(node));
    if (!result.inserted) {
      result.position->second = len;
      spare_.push_back(std::move(result.node));
    }
  }

  /// Erases `it`, keeping its node for the next set().
  void erase(iterator it) { spare_.push_back(map_.extract(it)); }

  /// Removes [lo, hi) from every extent it overlaps, trimming or splitting
  /// the ones that straddle an end.  Returns the bytes removed.
  std::int64_t erase_range(std::int64_t lo, std::int64_t hi) {
    std::int64_t removed = 0;
    // Trim a predecessor overlapping the range.
    if (auto it = map_.lower_bound(lo); it != map_.begin()) {
      auto prev = std::prev(it);
      const std::int64_t pend = prev->first + prev->second;
      if (pend > lo) {
        removed += std::min(pend, hi) - lo;
        prev->second = lo - prev->first;  // keep only the head before the hole
        if (pend > hi) set(hi, pend - hi);  // split tail survives
        if (prev->second == 0) erase(prev);
      }
    }
    // Remove or trim extents starting inside the range.
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first < hi;
         it = map_.lower_bound(lo)) {
      const std::int64_t end = it->first + it->second;
      if (end <= hi) {
        removed += it->second;
        erase(it);
      } else {
        removed += hi - it->first;
        erase(it);
        set(hi, end - hi);
        break;
      }
    }
    return removed;
  }

 private:
  Map map_;
  std::vector<Map::node_type> spare_;
};

}  // namespace qif::pfs
