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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "qif/pfs/client.hpp"
#include "qif/sim/time.hpp"

namespace qif::workloads {

/// One op as builders write it and as iteration over an OpSeq yields it.
/// Fields a kind does not use are ignored when the op is stored (and read
/// back as their defaults).
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

/// A rank's interned paths: each distinct path is stored once, and path
/// ops refer to it by index.  Append-only, so an index never moves.
class PathTable {
 public:
  /// Index of `path`, adding it on first sight.
  std::uint32_t intern(const std::string& path);
  [[nodiscard]] const std::string& operator[](std::uint32_t i) const { return paths_[i]; }
  [[nodiscard]] std::size_t size() const { return paths_.size(); }

 private:
  std::vector<std::string> paths_;
  std::vector<std::uint32_t> sorted_;  ///< indices into paths_, ordered by path
};

/// One phase of a rank program, stored as fixed 32-byte records over the
/// rank's PathTable.  push_back is the only way in, and it folds a read or
/// write that continues the previous one — same kind, slot and len, offset
/// one more constant stride on — into that record's run, so a whole IOR
/// transfer phase is one record.  The stored form is therefore a function of
/// the op stream alone: equal streams store equal records.
///
/// size() counts expanded ops and iteration yields them one OpSpec at a
/// time, so callers see exactly the op stream that was appended.
class OpSeq {
 public:
  /// A stored op.  The three words are shared by kind:
  ///   read/write      a = first offset, b = len, c = stride; `count` ops
  ///   create          a = path index,   b = stripes, c = stripe hint
  ///   open/stat/unlink/mkdir  a = path index
  ///   think           a = duration
  /// Unused words stay zero, so the defaulted == compares exactly.
  struct Record {
    OpSpec::Kind kind : 8 = OpSpec::Kind::kThink;
    std::uint32_t count : 24 = 1;  ///< expanded ops (> 1 only for read/write runs)
    std::int32_t slot = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;

    /// Offset of the run's k-th op, k < count.  Wrapping arithmetic: the
    /// stride was taken the same way, so op k decodes to the exact offset
    /// that was appended even where the true difference overflows.
    [[nodiscard]] std::int64_t offset(std::uint32_t k) const {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                       static_cast<std::uint64_t>(k) *
                                           static_cast<std::uint64_t>(c));
    }
    [[nodiscard]] std::uint32_t path() const { return static_cast<std::uint32_t>(a); }

    friend bool operator==(const Record&, const Record&) = default;
  };
  /// Longest run one record holds (the width of `count`).
  static constexpr std::uint32_t kMaxRun = (1u << 24) - 1;

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = OpSpec;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = OpSpec;

    const_iterator() = default;
    OpSpec operator*() const { return seq_->expand(seq_->records_[rec_], k_); }
    const_iterator& operator++() {
      if (++k_ == seq_->records_[rec_].count) {
        ++rec_;
        k_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    friend class OpSeq;
    const_iterator(const OpSeq* seq, std::size_t rec) : seq_(seq), rec_(rec) {}
    const OpSeq* seq_ = nullptr;
    std::size_t rec_ = 0;
    std::uint32_t k_ = 0;
  };

  OpSeq(const OpSeq&) = delete;
  OpSeq& operator=(const OpSeq&) = delete;

  void push_back(const OpSpec& op);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, records_.size()}; }
  /// The i-th expanded op; linear in the number of records.
  [[nodiscard]] OpSpec operator[](std::size_t i) const;
  [[nodiscard]] OpSpec front() const { return (*this)[0]; }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// Op k of `rec` as an OpSpec, its path looked up in the table.
  [[nodiscard]] OpSpec expand(const Record& rec, std::uint32_t k) const;
  [[nodiscard]] const std::string& path(const Record& rec) const {
    return (*paths_)[rec.path()];
  }

  /// Same op stream: records compare field by field, paths by their text.
  friend bool operator==(const OpSeq& x, const OpSeq& y);

 private:
  friend struct RankProgram;
  explicit OpSeq(PathTable* paths) : paths_(paths) {}
  /// Takes `other`'s ops but keeps this sequence's table (the caller moves
  /// or copies the table alongside).
  void assign(const OpSeq& other);
  void assign(OpSeq&& other) noexcept;

  PathTable* paths_;
  std::vector<Record> records_;
  std::size_t size_ = 0;
};

static_assert(sizeof(OpSeq::Record) <= 32, "stored workload ops must stay within 32 bytes");

/// One rank's program: a run-once prologue (setup such as pre-creating the
/// files a read phase needs) followed by the body, which loops in
/// interference mode.  Both phases draw their paths from one table.
struct RankProgram {
  RankProgram() = default;
  RankProgram(const RankProgram& other);
  RankProgram(RankProgram&& other) noexcept;
  RankProgram& operator=(const RankProgram& other);
  RankProgram& operator=(RankProgram&& other) noexcept;

  PathTable paths;  ///< declared before the phases that point into it
  OpSeq prologue{&paths};
  OpSeq body{&paths};
  int max_slot = 0;  ///< highest handle slot used

  /// Same op streams and slot count; the tables' order does not matter.
  friend bool operator==(const RankProgram& x, const RankProgram& y) {
    return x.max_slot == y.max_slot && x.prologue == y.prologue && x.body == y.body;
  }
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
  void execute(const OpSeq::Record& rec, std::uint32_t k);
  void finish();
  [[nodiscard]] sim::SimTime clientwise_now() const;
  [[nodiscard]] const OpSeq& current_seq() const {
    return in_prologue_ ? program_.prologue : program_.body;
  }

  pfs::PfsClient& client_;
  RankProgram program_;
  ExecOptions options_;
  std::vector<pfs::FileHandle> slots_;
  std::size_t pc_ = 0;      ///< record index in the current phase
  std::uint32_t run_k_ = 0;  ///< op index within that record's run
  bool in_prologue_ = true;
  bool finished_ = false;
  bool started_ = false;
  std::uint64_t iterations_ = 0;
  std::size_t ops_executed_ = 0;
  sim::SimTime body_start_time_ = 0;
};

}  // namespace qif::workloads
