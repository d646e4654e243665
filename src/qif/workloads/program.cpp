#include "qif/workloads/program.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "qif/pfs/cluster.hpp"

namespace qif::workloads {
namespace {

bool is_transfer(OpSpec::Kind kind) {
  return kind == OpSpec::Kind::kRead || kind == OpSpec::Kind::kWrite;
}

bool has_path(OpSpec::Kind kind) {
  switch (kind) {
    case OpSpec::Kind::kCreate:
    case OpSpec::Kind::kOpen:
    case OpSpec::Kind::kStat:
    case OpSpec::Kind::kUnlink:
    case OpSpec::Kind::kMkdir:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::uint32_t PathTable::intern(const std::string& path) {
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), path,
                                   [this](std::uint32_t i, const std::string& p) {
                                     return paths_[i] < p;
                                   });
  if (it != sorted_.end() && paths_[*it] == path) return *it;
  const auto index = static_cast<std::uint32_t>(paths_.size());
  paths_.push_back(path);
  sorted_.insert(it, index);
  return index;
}

void OpSeq::push_back(const OpSpec& op) {
  ++size_;
  if (is_transfer(op.kind) && !records_.empty()) {
    Record& last = records_.back();
    if (last.kind == op.kind && last.slot == op.slot && last.b == op.len &&
        last.count < kMaxRun) {
      if (last.count == 1) {
        last.c = static_cast<std::int64_t>(static_cast<std::uint64_t>(op.offset) -
                                           static_cast<std::uint64_t>(last.a));
        ++last.count;
        return;
      }
      if (last.offset(last.count) == op.offset) {
        ++last.count;
        return;
      }
    }
  }
  Record rec;
  rec.kind = op.kind;
  switch (op.kind) {
    case OpSpec::Kind::kCreate:
      rec.slot = op.slot;
      rec.a = paths_->intern(op.path);
      rec.b = op.stripes;
      rec.c = op.stripe_hint;
      break;
    case OpSpec::Kind::kOpen:
      rec.slot = op.slot;
      rec.a = paths_->intern(op.path);
      break;
    case OpSpec::Kind::kRead:
    case OpSpec::Kind::kWrite:
      rec.slot = op.slot;
      rec.a = op.offset;
      rec.b = op.len;
      break;
    case OpSpec::Kind::kStat:
    case OpSpec::Kind::kUnlink:
    case OpSpec::Kind::kMkdir:
      rec.a = paths_->intern(op.path);
      break;
    case OpSpec::Kind::kClose:
      rec.slot = op.slot;
      break;
    case OpSpec::Kind::kThink:
      rec.a = op.think;
      break;
  }
  records_.push_back(rec);
}

OpSpec OpSeq::expand(const Record& rec, std::uint32_t k) const {
  OpSpec op;
  op.kind = rec.kind;
  switch (rec.kind) {
    case OpSpec::Kind::kCreate:
      op.path = path(rec);
      op.slot = rec.slot;
      op.stripes = static_cast<int>(rec.b);
      op.stripe_hint = static_cast<int>(rec.c);
      break;
    case OpSpec::Kind::kOpen:
      op.path = path(rec);
      op.slot = rec.slot;
      break;
    case OpSpec::Kind::kRead:
    case OpSpec::Kind::kWrite:
      op.slot = rec.slot;
      op.offset = rec.offset(k);
      op.len = rec.b;
      break;
    case OpSpec::Kind::kStat:
    case OpSpec::Kind::kUnlink:
    case OpSpec::Kind::kMkdir:
      op.path = path(rec);
      break;
    case OpSpec::Kind::kClose:
      op.slot = rec.slot;
      break;
    case OpSpec::Kind::kThink:
      op.think = rec.a;
      break;
  }
  return op;
}

OpSpec OpSeq::operator[](std::size_t i) const {
  for (const Record& rec : records_) {
    if (i < rec.count) return expand(rec, static_cast<std::uint32_t>(i));
    i -= rec.count;
  }
  assert(false && "OpSeq index out of range");
  return {};
}

bool operator==(const OpSeq& x, const OpSeq& y) {
  if (x.size_ != y.size_ || x.records_.size() != y.records_.size()) return false;
  for (std::size_t i = 0; i < x.records_.size(); ++i) {
    const OpSeq::Record& rx = x.records_[i];
    const OpSeq::Record& ry = y.records_[i];
    if (!has_path(rx.kind)) {
      if (!(rx == ry)) return false;
      continue;
    }
    if (rx.kind != ry.kind || rx.count != ry.count || rx.slot != ry.slot || rx.b != ry.b ||
        rx.c != ry.c || x.path(rx) != y.path(ry)) {
      return false;
    }
  }
  return true;
}

void OpSeq::assign(const OpSeq& other) {
  records_ = other.records_;
  size_ = other.size_;
}

void OpSeq::assign(OpSeq&& other) noexcept {
  records_ = std::move(other.records_);
  size_ = std::exchange(other.size_, 0);
  other.records_.clear();
}

RankProgram::RankProgram(const RankProgram& other)
    : paths(other.paths), max_slot(other.max_slot) {
  prologue.assign(other.prologue);
  body.assign(other.body);
}

RankProgram::RankProgram(RankProgram&& other) noexcept
    : paths(std::move(other.paths)), max_slot(other.max_slot) {
  prologue.assign(std::move(other.prologue));
  body.assign(std::move(other.body));
}

RankProgram& RankProgram::operator=(const RankProgram& other) {
  if (this != &other) {
    paths = other.paths;
    prologue.assign(other.prologue);
    body.assign(other.body);
    max_slot = other.max_slot;
  }
  return *this;
}

RankProgram& RankProgram::operator=(RankProgram&& other) noexcept {
  if (this != &other) {
    paths = std::move(other.paths);
    prologue.assign(std::move(other.prologue));
    body.assign(std::move(other.body));
    max_slot = other.max_slot;
  }
  return *this;
}

ProgramExecutor::ProgramExecutor(pfs::PfsClient& client, RankProgram program,
                                 ExecOptions options)
    : client_(client), program_(std::move(program)), options_(std::move(options)) {
  slots_.resize(static_cast<std::size_t>(program_.max_slot) + 1);
  if (program_.prologue.empty()) in_prologue_ = false;
}

void ProgramExecutor::start() {
  assert(!started_ && "executor can only be started once");
  started_ = true;
  step();
}

void ProgramExecutor::finish() {
  if (finished_) return;
  finished_ = true;
  if (options_.on_finish) options_.on_finish();
}

void ProgramExecutor::step() {
  // Honor the horizon before issuing anything new.
  if (clientwise_now() >= options_.stop_at) {
    finish();
    return;
  }
  for (;;) {
    const OpSeq& seq = current_seq();
    if (pc_ < seq.records().size()) break;
    if (in_prologue_) {
      in_prologue_ = false;
      pc_ = 0;
      body_start_time_ = clientwise_now();
      continue;
    }
    ++iterations_;
    if (!options_.loop) {
      finish();
      return;
    }
    pc_ = 0;
    if (program_.body.empty()) {  // degenerate looping program
      finish();
      return;
    }
  }
  // The repeat cursor: a run record issues its ops one per step.
  const OpSeq::Record& rec = current_seq().records()[pc_];
  const std::uint32_t k = run_k_;
  if (++run_k_ == rec.count) {
    ++pc_;
    run_k_ = 0;
  }
  ++ops_executed_;
  execute(rec, k);
}

void ProgramExecutor::execute(const OpSeq::Record& rec, std::uint32_t k) {
  auto next = [this] { step(); };
  const OpSeq& seq = current_seq();
  const auto slot = static_cast<std::size_t>(rec.slot);
  switch (rec.kind) {
    case OpSpec::Kind::kCreate:
      client_.create(
          seq.path(rec), static_cast<int>(rec.b),
          [this, slot](pfs::FileHandle fh) {
            slots_[slot] = fh;
            step();
          },
          static_cast<int>(rec.c));
      break;
    case OpSpec::Kind::kOpen:
      client_.open(seq.path(rec), [this, slot](pfs::FileHandle fh) {
        slots_[slot] = fh;
        step();
      });
      break;
    case OpSpec::Kind::kRead:
      client_.read(slots_[slot], rec.offset(k), rec.b, next);
      break;
    case OpSpec::Kind::kWrite:
      client_.write(slots_[slot], rec.offset(k), rec.b, next);
      break;
    case OpSpec::Kind::kStat:
      client_.stat(seq.path(rec), [this](bool, std::int64_t) { step(); });
      break;
    case OpSpec::Kind::kClose:
      client_.close(slots_[slot], next);
      break;
    case OpSpec::Kind::kUnlink:
      client_.unlink(seq.path(rec), next);
      break;
    case OpSpec::Kind::kMkdir:
      client_.mkdir(seq.path(rec), next);
      break;
    case OpSpec::Kind::kThink: {
      // Never oversleep the horizon: a think whose gap straddles stop_at —
      // routine for replayed traces, whose inter-op gaps can be long —
      // wakes exactly at stop_at, where step() retires the rank, instead
      // of holding it asleep arbitrarily far past the horizon (and instead
      // of overflowing now + think when stop_at is "never").  step() never
      // dispatches at or past stop_at, so the remaining gap is positive.
      const sim::SimDuration remaining = options_.stop_at - clientwise_now();
      client_.sim().schedule_after(std::min<sim::SimDuration>(rec.a, remaining), next);
      break;
    }
  }
}

// Small indirection so the executor does not need the full Cluster header
// in its own header.
sim::SimTime ProgramExecutor::clientwise_now() const {
  return client_.sim().now();
}

}  // namespace qif::workloads
