#include "qif/trace/op_record.hpp"

#include <algorithm>

namespace qif::trace {

std::vector<const OpRecord*> TraceLog::sorted_for_job(std::int32_t job) const {
  std::size_t n = 0;
  for (const OpRecord& r : records()) n += r.job == job ? 1 : 0;
  std::vector<const OpRecord*> out;
  out.reserve(n);
  for (const OpRecord& r : records()) {
    if (r.job == job) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(), [](const OpRecord* a, const OpRecord* b) {
    if (a->rank != b->rank) return a->rank < b->rank;
    return a->op_index < b->op_index;
  });
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
