#include "qif/workloads/program.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "qif/pfs/cluster.hpp"

namespace qif::workloads {

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
    const auto& seq = current_seq();
    if (pc_ < seq.size()) break;
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
  const OpSpec& op = current_seq()[pc_++];
  ++ops_executed_;
  execute(op);
}

void ProgramExecutor::execute(const OpSpec& op) {
  auto next = [this] { step(); };
  switch (op.kind) {
    case OpSpec::Kind::kCreate:
      client_.create(
          op.path, op.stripes,
          [this, slot = op.slot](pfs::FileHandle fh) {
            slots_[static_cast<std::size_t>(slot)] = fh;
            step();
          },
          op.stripe_hint);
      break;
    case OpSpec::Kind::kOpen:
      client_.open(op.path, [this, slot = op.slot](pfs::FileHandle fh) {
        slots_[static_cast<std::size_t>(slot)] = fh;
        step();
      });
      break;
    case OpSpec::Kind::kRead:
      client_.read(slots_[static_cast<std::size_t>(op.slot)], op.offset, op.len, next);
      break;
    case OpSpec::Kind::kWrite:
      client_.write(slots_[static_cast<std::size_t>(op.slot)], op.offset, op.len, next);
      break;
    case OpSpec::Kind::kStat:
      client_.stat(op.path, [this](bool, std::int64_t) { step(); });
      break;
    case OpSpec::Kind::kClose:
      client_.close(slots_[static_cast<std::size_t>(op.slot)], next);
      break;
    case OpSpec::Kind::kUnlink:
      client_.unlink(op.path, next);
      break;
    case OpSpec::Kind::kMkdir:
      client_.mkdir(op.path, next);
      break;
    case OpSpec::Kind::kThink: {
      // Never oversleep the horizon: a think whose gap straddles stop_at —
      // routine for replayed traces, whose inter-op gaps can be long —
      // wakes exactly at stop_at, where step() retires the rank, instead
      // of holding it asleep arbitrarily far past the horizon (and instead
      // of overflowing now + think when stop_at is "never").  step() never
      // dispatches at or past stop_at, so the remaining gap is positive.
      const sim::SimDuration remaining = options_.stop_at - clientwise_now();
      client_.sim().schedule_after(std::min(op.think, remaining), next);
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
