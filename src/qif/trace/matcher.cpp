#include "qif/trace/matcher.hpp"

#include <algorithm>

namespace qif::trace {

std::vector<MatchedOp> TraceMatcher::match(const TraceLog& base_log,
                                           const TraceLog& interf_log, std::int32_t job,
                                           MatchStats* stats) {
  // Sorted pointers into the logs: the only per-record copies made are the
  // matched pairs in the output.
  const std::vector<const OpRecord*> base = base_log.sorted_for_job(job);
  const std::vector<const OpRecord*> noisy = interf_log.sorted_for_job(job);

  MatchStats local;
  std::vector<MatchedOp> out;
  out.reserve(std::min(base.size(), noisy.size()));

  // Both vectors are sorted by (rank, op_index); a single merge pass pairs
  // them in O(n).
  std::size_t i = 0, j = 0;
  auto key_less = [](const OpRecord* a, const OpRecord* b) {
    if (a->rank != b->rank) return a->rank < b->rank;
    return a->op_index < b->op_index;
  };
  while (i < base.size() && j < noisy.size()) {
    if (key_less(base[i], noisy[j])) {
      ++local.unmatched_base;
      ++i;
    } else if (key_less(noisy[j], base[i])) {
      ++local.unmatched_interf;
      ++j;
    } else {
      if (base[i]->type == noisy[j]->type && base[i]->bytes == noisy[j]->bytes) {
        out.push_back(MatchedOp{*base[i], *noisy[j]});
        ++local.matched;
      } else {
        ++local.mismatched;
      }
      ++i;
      ++j;
    }
  }
  local.unmatched_base += base.size() - i;
  local.unmatched_interf += noisy.size() - j;

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace qif::trace
