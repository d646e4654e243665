#include "qif/trace/op_record.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace qif::trace {

ReplayColumns::ReplayColumns(std::string_view path, std::int32_t stripes,
                             std::int32_t stripe_hint) {
  if (path.empty() && stripes == 0 && stripe_hint == -1) return;
  if (path.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("replay path longer than 4 GiB");
  }
  const Header h{stripes, stripe_hint, static_cast<std::uint32_t>(path.size())};
  box_ = std::make_unique_for_overwrite<char[]>(sizeof h + path.size());
  std::memcpy(box_.get(), &h, sizeof h);
  std::memcpy(box_.get() + sizeof h, path.data(), path.size());
}

namespace {

bool key_less(const OpRecord* a, const OpRecord* b) {
  if (a->rank != b->rank) return a->rank < b->rank;
  return a->op_index < b->op_index;
}

/// Fills `out` (sized to the job's record count) with the job's records
/// bucketed by rank, ranks lo..hi in order, each bucket in log order.
/// Returns false when some bucket is not strictly increasing in op_index,
/// i.e. when log order within a rank is not (rank, op_index) order.
bool bucket_by_rank(const TraceLog& log, std::int32_t job, std::int64_t lo, std::int64_t hi,
                    std::vector<const OpRecord*>& out) {
  std::vector<std::size_t> start(static_cast<std::size_t>(hi - lo) + 2, 0);
  for (const OpRecord& r : log.records()) {
    if (r.job == job) ++start[static_cast<std::size_t>(r.rank - lo) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  for (const OpRecord& r : log.records()) {
    if (r.job != job) continue;
    const std::size_t at = start[static_cast<std::size_t>(r.rank - lo)]++;
    // out[at - 1] is this rank's previous record, a record of a lower
    // rank, or a still-empty slot of a lower rank's bucket.
    const OpRecord* prev = at > 0 ? out[at - 1] : nullptr;
    if (prev != nullptr && prev->rank == r.rank && prev->op_index >= r.op_index) return false;
    out[at] = &r;
  }
  return true;
}

}  // namespace

std::vector<const OpRecord*> TraceLog::sorted_for_job(std::int32_t job) const {
  std::size_t n = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t hi = std::numeric_limits<std::int64_t>::min();
  for (const OpRecord& r : records()) {
    if (r.job != job) continue;
    ++n;
    lo = std::min<std::int64_t>(lo, r.rank);
    hi = std::max<std::int64_t>(hi, r.rank);
  }
  std::vector<const OpRecord*> out(n);
  if (n == 0) return out;
  // The client stamps op_index at completion, so a simulated log already
  // holds each rank's records in op_index order: one counting pass by rank
  // sorts it.  A log that breaks that order (DXT-loaded or hand-built), or
  // whose ranks spread wider than its record count, takes the comparison
  // sort over log order — the same result either way.
  if (static_cast<std::uint64_t>(hi - lo) < n && bucket_by_rank(*this, job, lo, hi, out)) {
    return out;
  }
  std::size_t k = 0;
  for (const OpRecord& r : records()) {
    if (r.job == job) out[k++] = &r;
  }
  std::sort(out.begin(), out.end(), key_less);
  return out;
}

TraceLog TraceLog::gather(std::span<TraceLog> logs, std::span<const RecordRef> order) {
  TraceLog out;
  for (const RecordRef& ref : order) {
    out.append(std::move(logs[ref.log].at(ref.index)));
  }
  for (TraceLog& log : logs) log.clear();
  return out;
}

std::uint64_t trace_fingerprint(const TraceLog& log) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const OpRecord& r : log.records()) {
    mix(r.job);
    mix(r.rank);
    mix(r.op_index);
    mix(static_cast<std::int64_t>(r.type));
    mix(r.file);
    mix(r.offset);
    mix(r.bytes);
    mix(r.start);
    mix(r.end);
    mix(r.retries);
    mix(r.timeouts);
    mix(r.failed ? 1 : 0);
    for (const auto t : r.targets) mix(t);
  }
  return h;
}

}  // namespace qif::trace
