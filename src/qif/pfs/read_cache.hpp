// Server-side read cache (opt-in).
//
// On a real OSS, recently written data is usually still in the page cache
// when it is read back, so small-file read-back patterns (mdtest-hard-read
// over files the benchmark just created) barely touch the media.  The
// simulator's default is *cold reads* — which reproduces most of Table I
// but over-penalizes exactly those read-back patterns (see EXPERIMENTS.md,
// "known deviations").  This optional component models the page cache:
// extents enter on writes, reads fully covered by cached extents are
// served at memory speed, and a FIFO byte budget bounds the footprint.
//
// bench/ablation_server_cache measures how enabling it moves the affected
// Table I cells toward the paper's values.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "qif/pfs/extent_map.hpp"

namespace qif::pfs {

struct ReadCacheParams {
  /// 0 disables the cache entirely (the default model).
  std::int64_t capacity_bytes = 0;
};

class ReadCache {
 public:
  explicit ReadCache(ReadCacheParams params) : params_(params) {}

  [[nodiscard]] bool enabled() const { return params_.capacity_bytes > 0; }

  /// Records that [offset, offset+len) now holds fresh data.
  void insert(std::int64_t offset, std::int64_t len);

  /// True when [offset, offset+len) is fully covered by cached extents.
  /// Counts a hit or a miss.
  [[nodiscard]] bool lookup(std::int64_t offset, std::int64_t len);

  [[nodiscard]] std::int64_t cached_bytes() const { return cached_bytes_; }
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  void evict_to_budget();

  ReadCacheParams params_;
  ExtentMap extents_;  // coalesced
  /// (offset, len) in insertion order: live entries are fifo_[fifo_head_..].
  /// Popping advances the head; the consumed prefix is dropped once it is
  /// half the vector, so the buffer keeps its capacity.
  std::vector<std::pair<std::int64_t, std::int64_t>> fifo_;
  std::size_t fifo_head_ = 0;
  std::int64_t cached_bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace qif::pfs
