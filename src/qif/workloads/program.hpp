// Data-driven workload programs.
//
// Every workload (IOR, MDTest, DLIO, the application proxies) is expressed
// as a *program*: a per-rank sequence of op specs generated deterministically
// from (config, seed) at build time.  A ProgramExecutor then drives one
// rank's PfsClient through its program, strictly sequentially (as the real
// benchmarks do: one POSIX call per process at a time), with optional
// compute "think" gaps.
//
// Determinism is a load-bearing property: the training pipeline matches ops
// between a baseline run and an interference run by (rank, op_index), which
// works because the same program issues the same op sequence in both runs —
// all randomness is drawn while *building* the program, never while running.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "qif/pfs/client.hpp"
#include "qif/sim/time.hpp"

namespace qif::workloads {

struct OpSpec {
  enum class Kind : std::uint8_t {
    kCreate,  ///< create `path` with `stripes`, store handle in `slot`
    kOpen,    ///< open `path`, store handle in `slot`
    kRead,    ///< read [offset, offset+len) from handle in `slot`
    kWrite,   ///< write [offset, offset+len) to handle in `slot`
    kStat,    ///< stat `path`
    kClose,   ///< close handle in `slot`
    kUnlink,  ///< unlink `path`
    kMkdir,   ///< mkdir `path`
    kThink,   ///< compute for `think` (no I/O, no trace record)
  };
  Kind kind = Kind::kThink;
  std::string path;
  int slot = 0;
  int stripes = 0;
  int stripe_hint = -1;  ///< kCreate: starting OST (-1 = hashed placement)
  std::int64_t offset = 0;
  std::int64_t len = 0;
  sim::SimDuration think = 0;

  friend bool operator==(const OpSpec&, const OpSpec&) = default;
};

/// One rank's program: a run-once prologue (setup such as pre-creating the
/// files a read phase needs) followed by the body, which loops in
/// interference mode.
struct RankProgram {
  std::vector<OpSpec> prologue;
  std::vector<OpSpec> body;
  int max_slot = 0;  ///< highest handle slot used

  friend bool operator==(const RankProgram&, const RankProgram&) = default;
};

/// A whole workload as data: one program per rank.  This is the
/// serializable unit of the `.qwp` IR (program_io.hpp) and the product of
/// trace replay — anything that can produce one of these is a workload.
struct WorkloadProgram {
  std::string workload;  ///< annotation: canonical name or source description
  std::vector<RankProgram> ranks;

  friend bool operator==(const WorkloadProgram&, const WorkloadProgram&) = default;
};

struct ExecOptions {
  bool loop = false;  ///< restart the body when it finishes
  /// No new op starts at or after this time (interference horizon).
  sim::SimTime stop_at = std::numeric_limits<sim::SimTime>::max();
  std::function<void()> on_finish;  ///< fires once, when this rank stops
};

class ProgramExecutor {
 public:
  ProgramExecutor(pfs::PfsClient& client, RankProgram program, ExecOptions options);

  ProgramExecutor(const ProgramExecutor&) = delete;
  ProgramExecutor& operator=(const ProgramExecutor&) = delete;

  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::uint64_t body_iterations() const { return iterations_; }
  [[nodiscard]] std::size_t ops_executed() const { return ops_executed_; }
  /// When this rank finished its prologue and entered the (timed) body —
  /// the moral equivalent of the barrier before a benchmark's timed phase.
  [[nodiscard]] sim::SimTime body_start_time() const { return body_start_time_; }

 private:
  void step();
  void execute(const OpSpec& op);
  void finish();
  [[nodiscard]] sim::SimTime clientwise_now() const;
  [[nodiscard]] const std::vector<OpSpec>& current_seq() const {
    return in_prologue_ ? program_.prologue : program_.body;
  }

  pfs::PfsClient& client_;
  RankProgram program_;
  ExecOptions options_;
  std::vector<pfs::FileHandle> slots_;
  std::size_t pc_ = 0;
  bool in_prologue_ = true;
  bool finished_ = false;
  bool started_ = false;
  std::uint64_t iterations_ = 0;
  std::size_t ops_executed_ = 0;
  sim::SimTime body_start_time_ = 0;
};

}  // namespace qif::workloads
