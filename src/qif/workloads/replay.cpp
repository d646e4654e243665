#include "qif/workloads/replay.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qif/trace/dxt.hpp"

namespace qif::workloads {
namespace {

constexpr const char* kArgShape = "trace:FILE[@original|@asap|@scale=X]";

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

std::string describe(const trace::OpRecord& r) {
  std::ostringstream os;
  os << "job " << r.job << ", rank " << r.rank << ", op " << r.op_index << ", type "
     << pfs::op_name(r.type);
  return os.str();
}

/// Per-rank program assembly state: the trace's FileIds map onto executor
/// slots on first touch (create/open); data/close ops on a file the dump
/// never opened — including kInvalidFile from originally-degenerate ops —
/// get a fresh untouched slot, whose invalid handle reproduces the
/// degenerate bytes=0 record the original run emitted.
struct RankAssembly {
  RankProgram prog;
  std::unordered_map<pfs::FileId, int> slot_of;
  int next_slot = 0;
  sim::SimTime prev_end = 0;
  std::int64_t next_op_index = 0;

  int slot_for(pfs::FileId file, bool allocate_mapping) {
    if (file != pfs::kInvalidFile) {
      const auto it = slot_of.find(file);
      if (it != slot_of.end()) return it->second;
      if (allocate_mapping) return slot_of[file] = next_slot++;
    }
    return next_slot++;  // throwaway: no create/open will ever fill it
  }
};

void append_gap(RankAssembly& a, const trace::OpRecord& rec, const ReplayOptions& opt) {
  if (opt.timing == ReplayTiming::kAsap) return;
  sim::SimDuration gap = rec.start - a.prev_end;
  if (gap <= 0) return;
  if (opt.timing == ReplayTiming::kScale) {
    gap = static_cast<sim::SimDuration>(
        std::llround(static_cast<double>(gap) * opt.gap_scale));
    if (gap <= 0) return;
  }
  OpSpec think;
  think.kind = OpSpec::Kind::kThink;
  think.think = gap;
  a.prog.body.push_back(std::move(think));
}

std::string need_path(const trace::OpRecord& rec) {
  if (rec.replay.path().empty()) {
    fail("trace op (" + describe(rec) +
         ") has no path metadata — DXT version 1 dumps cannot be replayed; re-dump "
         "the trace with this build to capture paths");
  }
  return std::string(rec.replay.path());
}

void append_op(RankAssembly& a, const trace::OpRecord& rec) {
  OpSpec op;
  switch (rec.type) {
    case pfs::OpType::kCreate:
      op.kind = OpSpec::Kind::kCreate;
      op.path = need_path(rec);
      op.slot = a.slot_for(rec.file, /*allocate_mapping=*/true);
      op.stripes = rec.replay.stripes();
      op.stripe_hint = rec.replay.stripe_hint();
      break;
    case pfs::OpType::kOpen:
      op.kind = OpSpec::Kind::kOpen;
      op.path = need_path(rec);
      op.slot = a.slot_for(rec.file, /*allocate_mapping=*/true);
      break;
    case pfs::OpType::kRead:
    case pfs::OpType::kWrite:
      op.kind = rec.type == pfs::OpType::kRead ? OpSpec::Kind::kRead : OpSpec::Kind::kWrite;
      op.slot = a.slot_for(rec.file, /*allocate_mapping=*/false);
      op.offset = rec.offset;
      op.len = rec.bytes;
      break;
    case pfs::OpType::kStat:
      op.kind = OpSpec::Kind::kStat;
      op.path = need_path(rec);
      break;
    case pfs::OpType::kClose:
      op.kind = OpSpec::Kind::kClose;
      op.slot = a.slot_for(rec.file, /*allocate_mapping=*/false);
      break;
    case pfs::OpType::kUnlink:
      op.kind = OpSpec::Kind::kUnlink;
      op.path = need_path(rec);
      break;
    case pfs::OpType::kMkdir:
      op.kind = OpSpec::Kind::kMkdir;
      op.path = need_path(rec);
      break;
  }
  a.prog.body.push_back(std::move(op));
}

}  // namespace

std::pair<std::string, ReplayOptions> parse_replay_arg(const std::string& arg) {
  std::string file = arg;
  ReplayOptions options;
  const std::size_t at = arg.rfind('@');
  if (at != std::string::npos) {
    const std::string policy = arg.substr(at + 1);
    file = arg.substr(0, at);
    if (policy == "original") {
      options.timing = ReplayTiming::kOriginal;
    } else if (policy == "asap") {
      options.timing = ReplayTiming::kAsap;
    } else if (policy.rfind("scale=", 0) == 0) {
      const std::string num = policy.substr(6);
      char* end = nullptr;
      const double x = std::strtod(num.c_str(), &end);
      if (num.empty() || end != num.c_str() + num.size() || !(x > 0.0)) {
        fail("replay gap scale must be a positive number: '" + policy + "' in " +
             kArgShape);
      }
      options.timing = ReplayTiming::kScale;
      options.gap_scale = x;
    } else {
      fail("unknown replay timing '" + policy +
           "' (options: original, asap, scale=X) in " + kArgShape);
    }
  }
  if (file.empty()) fail(std::string("trace replay needs a file: ") + kArgShape);
  return {std::move(file), options};
}

WorkloadProgram build_replay_programs(const trace::TraceLog& log,
                                      const ReplayOptions& options) {
  const std::vector<const trace::OpRecord*> records = log.sorted_for_job(options.job);
  if (records.empty()) {
    std::set<std::int32_t> jobs;
    for (const auto& r : log.records()) jobs.insert(r.job);
    std::string have;
    for (const auto j : jobs) have += (have.empty() ? "" : ", ") + std::to_string(j);
    fail("trace has no records for job " + std::to_string(options.job) +
         (jobs.empty() ? " (trace is empty)" : " (jobs present: " + have + ")"));
  }

  const int n_ranks = static_cast<int>(records.back()->rank) + 1;
  std::vector<RankAssembly> ranks(static_cast<std::size_t>(n_ranks));
  for (const trace::OpRecord* ptr : records) {
    const trace::OpRecord& rec = *ptr;
    if (rec.rank < 0) fail("trace op (" + describe(rec) + ") has a negative rank");
    RankAssembly& a = ranks[static_cast<std::size_t>(rec.rank)];
    if (rec.op_index != a.next_op_index) {
      fail("trace job " + std::to_string(options.job) + " rank " +
           std::to_string(rec.rank) + " has op_index " + std::to_string(rec.op_index) +
           " where " + std::to_string(a.next_op_index) +
           " was expected (truncated or filtered dump)");
    }
    ++a.next_op_index;
    append_gap(a, rec, options);
    append_op(a, rec);
    a.prev_end = rec.end;
  }
  for (int r = 0; r < n_ranks; ++r) {
    if (ranks[static_cast<std::size_t>(r)].next_op_index == 0) {
      fail("trace job " + std::to_string(options.job) + " is missing rank " +
           std::to_string(r));
    }
  }

  WorkloadProgram out;
  out.workload = "trace-replay";
  out.ranks.reserve(ranks.size());
  for (auto& a : ranks) {
    a.prog.max_slot = a.next_slot > 0 ? a.next_slot - 1 : 0;
    out.ranks.push_back(std::move(a.prog));
  }
  return out;
}

RankProgram build_replay_rank(const std::string& arg, const WorkloadContext& ctx) {
  const auto [file, options] = parse_replay_arg(arg);

  // Cache keyed by the file's identity *and* the timing policy, so one
  // campaign replaying the same dump for many ranks/instances parses it
  // once.  Size+mtime in the key makes a rewritten file a cache miss.
  using Key = std::tuple<std::string, std::uintmax_t, std::int64_t, int, double,
                         std::int32_t>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const WorkloadProgram>> cache;

  std::uintmax_t size = 0;
  std::int64_t mtime = 0;
  std::error_code ec;
  size = std::filesystem::file_size(file, ec);
  if (!ec) mtime = std::filesystem::last_write_time(file, ec).time_since_epoch().count();
  const Key key{file, size, mtime, static_cast<int>(options.timing), options.gap_scale,
                options.job};

  std::shared_ptr<const WorkloadProgram> prog;
  {
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) prog = it->second;
  }
  if (!prog) {
    prog = std::make_shared<const WorkloadProgram>(
        build_replay_programs(trace::read_dxt_file(file), options));
    const std::lock_guard<std::mutex> lock(mu);
    cache[key] = prog;
  }

  if (ctx.rank < 0 || static_cast<std::size_t>(ctx.rank) >= prog->ranks.size()) {
    fail("trace replay: '" + file + "' has " + std::to_string(prog->ranks.size()) +
         " rank(s) but rank " + std::to_string(ctx.rank) +
         " was requested — run trace workloads with at most the traced rank count");
  }
  return prog->ranks[static_cast<std::size_t>(ctx.rank)];
}

}  // namespace qif::workloads
