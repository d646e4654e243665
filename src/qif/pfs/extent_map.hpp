// Offset-ordered map of disjoint byte extents (offset -> length), shared by
// the server's write-back and read caches.
//
// A flat sorted vector of (offset, length) pairs: lookups are a binary
// search over contiguous 16-byte entries and an insert shifts the tail.
// The maps stay small — across every dataset family the largest holds 776
// extents and an insert shifts 27 entries on average (DESIGN.md "Op path")
// — so this beats a node-based tree, and once the vector has reached its
// working size the steady churn of a cache allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qif::pfs {

class ExtentMap {
 public:
  using Extent = std::pair<std::int64_t, std::int64_t>;  // (offset, length)
  using iterator = std::vector<Extent>::iterator;
  using const_iterator = std::vector<Extent>::const_iterator;

  [[nodiscard]] bool empty() const { return extents_.empty(); }
  [[nodiscard]] std::size_t size() const { return extents_.size(); }
  [[nodiscard]] iterator begin() { return extents_.begin(); }
  [[nodiscard]] iterator end() { return extents_.end(); }
  [[nodiscard]] const_iterator begin() const { return extents_.begin(); }
  [[nodiscard]] const_iterator end() const { return extents_.end(); }

  /// First extent starting at or after `offset`.
  [[nodiscard]] iterator lower_bound(std::int64_t offset) {
    return extents_.begin() + static_cast<std::ptrdiff_t>(index_at_or_after(offset));
  }
  /// First extent starting after `offset`.
  [[nodiscard]] iterator upper_bound(std::int64_t offset) {
    return std::upper_bound(extents_.begin(), extents_.end(), offset,
                            [](std::int64_t off, const Extent& e) { return off < e.first; });
  }
  /// The extent starting exactly at `offset`, or end().
  [[nodiscard]] iterator find(std::int64_t offset) {
    const iterator it = lower_bound(offset);
    return it != end() && it->first == offset ? it : end();
  }

  /// Sets the extent starting at `offset` to `len`, inserting it if absent.
  void set(std::int64_t offset, std::int64_t len) {
    const std::size_t i = index_at_or_after(offset);
    if (i < extents_.size() && extents_[i].first == offset) {
      extents_[i].second = len;
    } else {
      extents_.insert(extents_.begin() + static_cast<std::ptrdiff_t>(i), Extent{offset, len});
    }
  }

  /// Erases the extent at `it`.
  void erase(iterator it) { extents_.erase(it); }

  /// Removes [lo, hi) from every extent it overlaps, trimming or splitting
  /// the ones that straddle an end.  Returns the bytes removed.
  std::int64_t erase_range(std::int64_t lo, std::int64_t hi) {
    std::int64_t removed = 0;
    const std::size_t first = index_at_or_after(lo);
    // A predecessor overlapping the range keeps its head before `lo`.
    if (first > 0) {
      Extent& prev = extents_[first - 1];
      const std::int64_t pend = prev.first + prev.second;
      if (pend > lo) {
        removed += std::min(pend, hi) - lo;
        prev.second = lo - prev.first;  // > 0: prev starts before lo
        if (pend > hi) {
          // The range sits strictly inside prev: split off its tail.  No
          // other extent can start inside the range.
          extents_.insert(extents_.begin() + static_cast<std::ptrdiff_t>(first),
                          Extent{hi, pend - hi});
          return removed;
        }
      }
    }
    // Extents starting inside the range: [first, last) go entirely; one
    // reaching past `hi` keeps its tail.
    std::size_t last = first;
    while (last < extents_.size() && extents_[last].first < hi) {
      Extent& e = extents_[last];
      const std::int64_t end = e.first + e.second;
      if (end > hi) {
        removed += hi - e.first;
        e = Extent{hi, end - hi};
        break;
      }
      removed += e.second;
      ++last;
    }
    extents_.erase(extents_.begin() + static_cast<std::ptrdiff_t>(first),
                   extents_.begin() + static_cast<std::ptrdiff_t>(last));
    return removed;
  }

 private:
  [[nodiscard]] std::size_t index_at_or_after(std::int64_t offset) const {
    const auto it =
        std::lower_bound(extents_.begin(), extents_.end(), offset,
                         [](const Extent& e, std::int64_t off) { return e.first < off; });
    return static_cast<std::size_t>(it - extents_.begin());
  }

  std::vector<Extent> extents_;  // sorted by offset, disjoint
};

}  // namespace qif::pfs
