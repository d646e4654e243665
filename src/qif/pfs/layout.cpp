#include "qif/pfs/layout.hpp"

#include <algorithm>

namespace qif::pfs {
namespace {

// splitmix64 finalizer used purely for object placement; independent of the
// Rng streams so layouts are a function of (file id, slot) alone.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

FileLayout::FileLayout(FileId file, std::vector<OstId> osts, std::int64_t stripe_size,
                       std::int64_t disk_capacity)
    : osts_(std::move(osts)), stripe_size_(stripe_size) {
  bases_.reserve(osts_.size());
  // Leave generous headroom so objects can grow without wrapping; alignment
  // to 1 MiB keeps placement visually sane in traces.
  const std::int64_t usable = std::max<std::int64_t>(disk_capacity / 2, 1 << 20);
  for (std::size_t i = 0; i < osts_.size(); ++i) {
    const auto h = mix(static_cast<std::uint64_t>(file) * 131 + i);
    const std::int64_t base =
        static_cast<std::int64_t>(h % static_cast<std::uint64_t>(usable)) & ~((1ll << 20) - 1);
    bases_.push_back(base);
  }
}

}  // namespace qif::pfs
