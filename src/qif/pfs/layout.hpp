// File striping layout, Lustre-style.
//
// A file is striped round-robin across a list of OSTs in fixed-size stripe
// units.  Each (file, OST) pair is one *object*; objects are placed at
// pseudo-random disk addresses so that distinct files on the same OST are
// far apart (an aged filesystem), while access within one object stays
// sequential.  This placement is what turns "two concurrent sequential
// streams" into the seek traffic that dominates read-vs-read interference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qif/pfs/types.hpp"

namespace qif::pfs {

struct Extent {
  OstId ost = 0;               ///< target OST
  std::int64_t disk_offset = 0;  ///< absolute address on that OST's disk
  std::int64_t len = 0;
};

class FileLayout {
 public:
  FileLayout() = default;
  FileLayout(FileId file, std::vector<OstId> osts, std::int64_t stripe_size,
             std::int64_t disk_capacity);

  [[nodiscard]] const std::vector<OstId>& osts() const { return osts_; }
  [[nodiscard]] std::int64_t stripe_size() const { return stripe_size_; }

  /// Calls `visit(const Extent&)` for each per-OST disk extent of the file
  /// range [offset, offset+len), in file order, allocating nothing.
  /// Contiguous pieces on the same OST are coalesced into one extent.
  template <typename Visit>
  void for_each_extent(std::int64_t offset, std::int64_t len, Visit&& visit) const;

  /// The extents of for_each_extent, collected.
  [[nodiscard]] std::vector<Extent> map(std::int64_t offset, std::int64_t len) const {
    std::vector<Extent> out;
    for_each_extent(offset, len, [&out](const Extent& e) { out.push_back(e); });
    return out;
  }

  /// Disk address where this file's object on stripe slot `idx` starts.
  [[nodiscard]] std::int64_t object_base(std::size_t idx) const { return bases_[idx]; }

 private:
  std::vector<OstId> osts_;
  std::vector<std::int64_t> bases_;
  std::int64_t stripe_size_ = 1 << 20;
};

template <typename Visit>
void FileLayout::for_each_extent(std::int64_t offset, std::int64_t len, Visit&& visit) const {
  const auto n = static_cast<std::int64_t>(osts_.size());
  Extent cur;
  bool open = false;  // `cur` holds an extent not yet handed out
  std::int64_t pos = offset;
  std::int64_t remaining = len;
  while (remaining > 0) {
    const std::int64_t stripe_index = pos / stripe_size_;
    const auto slot = static_cast<std::size_t>(stripe_index % n);  // which OST
    const std::int64_t row = stripe_index / n;  // object-local stripe row
    const std::int64_t in_stripe = pos % stripe_size_;
    const std::int64_t take = std::min(remaining, stripe_size_ - in_stripe);
    const std::int64_t disk_off = bases_[slot] + row * stripe_size_ + in_stripe;
    if (open && cur.ost == osts_[slot] && cur.disk_offset + cur.len == disk_off) {
      cur.len += take;  // coalesce contiguous pieces
    } else {
      if (open) visit(static_cast<const Extent&>(cur));
      cur = Extent{osts_[slot], disk_off, take};
      open = true;
    }
    pos += take;
    remaining -= take;
  }
  if (open) visit(static_cast<const Extent&>(cur));
}

}  // namespace qif::pfs
