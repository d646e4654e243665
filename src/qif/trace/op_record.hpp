// DXT-style per-operation trace records.
//
// The paper's client-side monitor is a modified Darshan with DXT extended
// tracing: one record per POSIX-level I/O operation with sub-microsecond
// start/end stamps.  These records are the ground truth everything else is
// derived from — the client-side window features, the Figure 1 series, and
// the degradation labels (by matching records between a baseline run and an
// interference run).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "qif/pfs/types.hpp"
#include "qif/sim/time.hpp"

namespace qif::trace {

/// Sentinel "server id" for the metadata target in `targets` and in the
/// per-server feature vectors (OSTs use their dense ids 0..n-1; the MDT is
/// appended after them by the cluster, so this constant is resolved against
/// a concrete cluster via Cluster::mdt_server_index()).
inline constexpr std::int32_t kMdtTarget = -1;

/// The servers one op touched, in first-touch order, as 16-bit ids: OST
/// ids fit because a cluster has at most INT16_MAX OSTs (ClusterConfig's
/// validate()), and the MDT is kMdtTarget.  The list is 16 bytes: a
/// 2-byte size, a 2-byte capacity and kInline ids in place.  Beyond that
/// it spills to the heap, and the spill pointer takes the bytes of inline
/// ids 2..5, so recording a typical op costs no allocation: every shipped
/// workload on the paper's 6-OST testbed touches at most 6 servers per op,
/// and the 1008-client cluster touches exactly 1.
class TargetList {
 public:
  using value_type = std::int16_t;
  using size_type = std::size_t;
  using iterator = const std::int16_t*;
  using const_iterator = const std::int16_t*;

  static constexpr std::size_t kInline = 6;
  /// The most ids one list holds (16-bit size); push_back past it throws.
  static constexpr std::size_t kMaxSize = std::numeric_limits<std::uint16_t>::max();

  TargetList() = default;
  TargetList(std::initializer_list<std::int32_t> ids) {
    for (const std::int32_t id : ids) push_back(id);
  }
  TargetList(const TargetList& other) { assign(other.begin(), other.end()); }
  TargetList(TargetList&& other) noexcept { steal(other); }
  TargetList& operator=(const TargetList& other) {
    if (this != &other) {
      clear();
      assign(other.begin(), other.end());
    }
    return *this;
  }
  TargetList& operator=(TargetList&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~TargetList() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] const std::int16_t* data() const { return on_heap() ? heap() : ids_; }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }
  [[nodiscard]] std::int16_t operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] std::int16_t back() const { return data()[size_ - 1]; }

  /// Appends a server id; `id` must be kMdtTarget or an OST id of a
  /// validated cluster, so it fits in 16 bits.
  void push_back(std::int32_t id) {
    if (size_ == cap_) grow(std::min<std::size_t>(2 * std::size_t{cap_}, kMaxSize));
    buffer()[size_++] = static_cast<std::int16_t>(id);
  }
  void clear() { size_ = 0; }

  friend bool operator==(const TargetList& a, const TargetList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr std::size_t kHeapSlot = 2;  ///< first inline id the spill pointer overlays

  [[nodiscard]] bool on_heap() const { return cap_ > kInline; }
  [[nodiscard]] std::int16_t* heap() const {
    std::int16_t* p = nullptr;
    std::memcpy(&p, ids_ + kHeapSlot, sizeof p);
    return p;
  }
  [[nodiscard]] std::int16_t* buffer() { return on_heap() ? heap() : ids_; }
  void assign(const std::int16_t* first, const std::int16_t* last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n > cap_) grow(n);
    std::copy(first, last, buffer());
    size_ = static_cast<std::uint16_t>(n);
  }
  void grow(std::size_t cap) {
    if (cap <= cap_ || cap > kMaxSize) {
      throw std::length_error("TargetList: more than kMaxSize server ids");
    }
    auto* fresh = new std::int16_t[cap];
    std::copy(begin(), end(), fresh);
    release();
    std::memcpy(ids_ + kHeapSlot, &fresh, sizeof fresh);
    cap_ = static_cast<std::uint16_t>(cap);
  }
  void release() {
    if (on_heap()) delete[] heap();
    cap_ = kInline;
  }
  /// Takes `other`'s ids (and its heap buffer, if any); leaves it empty.
  void steal(TargetList& other) {
    size_ = other.size_;
    cap_ = other.cap_;
    std::memcpy(ids_, other.ids_, sizeof ids_);  // the inline ids or the spill pointer
    other.size_ = 0;
    other.cap_ = kInline;
  }

  std::uint16_t size_ = 0;
  std::uint16_t cap_ = kInline;
  std::int16_t ids_[kInline] = {};
};
static_assert(sizeof(TargetList) == 16);

/// The replay columns of one record (the DXT v2 columns): the namespace
/// path a metadata op addressed and the layout request of a create.  They
/// let trace replay re-issue the op stream against a fresh cluster.  A
/// record whose columns all hold their defaults (every data op) owns no
/// heap memory; any other record owns one heap box holding the two stripe
/// fields, the path length and the path bytes.
class ReplayColumns {
 public:
  ReplayColumns() = default;
  explicit ReplayColumns(std::string_view path, std::int32_t stripes = 0,
                         std::int32_t stripe_hint = -1);
  ReplayColumns(const ReplayColumns& other)
      : ReplayColumns(other.path(), other.stripes(), other.stripe_hint()) {}
  ReplayColumns(ReplayColumns&&) noexcept = default;
  ReplayColumns& operator=(const ReplayColumns& other) {
    if (this != &other) *this = ReplayColumns(other);
    return *this;
  }
  ReplayColumns& operator=(ReplayColumns&&) noexcept = default;

  /// True when no column differs from its default (no heap box).
  [[nodiscard]] bool empty() const { return box_ == nullptr; }
  /// create/open/stat/unlink/mkdir target path ("" when none).
  [[nodiscard]] std::string_view path() const {
    return empty() ? std::string_view{}
                   : std::string_view(box_.get() + sizeof(Header), header().path_size);
  }
  /// kCreate: requested stripe count (0 = all OSTs).
  [[nodiscard]] std::int32_t stripes() const { return empty() ? 0 : header().stripes; }
  /// kCreate: requested starting OST (-1 = hashed).
  [[nodiscard]] std::int32_t stripe_hint() const { return empty() ? -1 : header().stripe_hint; }

 private:
  struct Header {
    std::int32_t stripes;
    std::int32_t stripe_hint;
    std::uint32_t path_size;
  };
  [[nodiscard]] Header header() const {
    Header h{};
    std::memcpy(&h, box_.get(), sizeof h);
    return h;
  }

  std::unique_ptr<char[]> box_;  ///< a Header followed by path_size path bytes
};
static_assert(sizeof(ReplayColumns) == 8);

struct OpRecord {
  std::int64_t op_index = 0;      ///< per-rank monotonically increasing index
  pfs::FileId file = pfs::kInvalidFile;
  std::int64_t offset = 0;        ///< file offset (data ops)
  std::int64_t bytes = 0;         ///< payload size (data ops)
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::int32_t job = 0;           ///< workload instance id within the run
  pfs::Rank rank = 0;             ///< issuing process
  /// Servers this op touched: OST ids for data ops; kMdtTarget for metadata.
  TargetList targets;
  /// Path and layout request of a metadata op; empty for data ops.  They
  /// are deliberately excluded from trace_fingerprint(), which covers the
  /// semantic op stream the golden pins are stated in.
  ReplayColumns replay;
  // Fault-injection outcome (all zero/false on healthy runs; populated only
  // when the client timeout/retry machinery is enabled).
  std::int32_t retries = 0;   ///< RPC attempts re-issued after a timeout
  std::int32_t timeouts = 0;  ///< deadline expiries observed by this op
  pfs::OpType type = pfs::OpType::kRead;
  bool failed = false;        ///< retries exhausted — op surfaced EIO

  [[nodiscard]] sim::SimDuration duration() const { return end - start; }
};

// The in-memory trace is the largest structure of a big run: 90 bytes of
// fields, padded to 96.  A data op owns no heap memory.
static_assert(sizeof(OpRecord) <= 96, "OpRecord grew; reorder fields or shrink TargetList");

/// An append-only in-memory trace log for one run.  Completion-ordered.
///
/// Records live in fixed blocks: block k holds 16 << k records up to a cap
/// of 4096 (384 KiB), and every block after that holds the cap.  Appending
/// therefore never holds two copies of the log alive the way a doubling
/// vector does, and never moves a record (a pointer or reference to one
/// stays valid until the log is cleared or destroyed), except that the
/// first append after shrink_to_fit() regrows the trimmed last block.
///
/// The observer belongs to this log object, not to its records: copying or
/// moving a log never carries it along, so a log handed out of a run can
/// not call back into a monitor that died with the run.
class TraceLog {
 public:
  using Observer = std::function<void(const OpRecord&)>;

  /// Block sizes: the first block holds kFirstBlockRecords, each next one
  /// twice as many up to kMaxBlockRecords, and every block from the first
  /// kGrowingRecords on holds kMaxBlockRecords.
  static constexpr std::size_t kFirstBlockRecords = 16;
  static constexpr std::size_t kMaxBlockRecords = 4096;
  static constexpr std::size_t kGrowingRecords = kMaxBlockRecords - kFirstBlockRecords;

  /// Position of one record inside one of several logs (see gather()).
  struct RecordRef {
    std::uint32_t log;
    std::uint32_t index;
  };

  /// Read-only view of the records in log order.
  class Records {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = OpRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const OpRecord*;
      using reference = const OpRecord&;

      const_iterator() = default;
      reference operator*() const { return (*blocks_)[block_][pos_]; }
      pointer operator->() const { return &**this; }
      const_iterator& operator++() {
        if (++pos_ == (*blocks_)[block_].size()) {
          ++block_;
          pos_ = 0;
        }
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++*this;
        return old;
      }
      friend bool operator==(const const_iterator& a, const const_iterator& b) {
        return a.block_ == b.block_ && a.pos_ == b.pos_;
      }

     private:
      friend class Records;
      const_iterator(const std::vector<std::vector<OpRecord>>* blocks, std::size_t block)
          : blocks_(blocks), block_(block) {}
      const std::vector<std::vector<OpRecord>>* blocks_ = nullptr;
      std::size_t block_ = 0;
      std::size_t pos_ = 0;
    };
    using iterator = const_iterator;
    using value_type = OpRecord;
    using size_type = std::size_t;

    [[nodiscard]] std::size_t size() const { return log_->size_; }
    [[nodiscard]] bool empty() const { return log_->size_ == 0; }
    [[nodiscard]] const OpRecord& operator[](std::size_t i) const { return log_->at(i); }
    [[nodiscard]] const OpRecord& front() const { return log_->blocks_.front().front(); }
    [[nodiscard]] const OpRecord& back() const { return log_->blocks_.back().back(); }
    [[nodiscard]] const_iterator begin() const { return {&log_->blocks_, 0}; }
    [[nodiscard]] const_iterator end() const { return {&log_->blocks_, log_->blocks_.size()}; }

   private:
    friend class TraceLog;
    explicit Records(const TraceLog* log) : log_(log) {}
    const TraceLog* log_;
  };

  TraceLog() = default;
  TraceLog(const TraceLog& other) {
    for (const OpRecord& r : other.records()) append(r);
  }
  TraceLog(TraceLog&& other) noexcept
      : blocks_(std::exchange(other.blocks_, {})), size_(std::exchange(other.size_, 0)) {}
  /// Replaces the records; this log keeps its own observer.
  TraceLog& operator=(const TraceLog& other) {
    if (this != &other) *this = TraceLog(other);
    return *this;
  }
  TraceLog& operator=(TraceLog&& other) noexcept {
    if (this != &other) {
      blocks_ = std::exchange(other.blocks_, {});
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  void record(OpRecord rec) {
    if (observer_) observer_(rec);
    append(std::move(rec));
  }

  /// Installs a streaming observer invoked for every record as it is
  /// emitted — the hook the client-side monitor attaches to (the moral
  /// equivalent of Darshan's shared-memory ring being drained by the
  /// aggregator process).
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  /// Releases the unused tail of the last block, so a log that outlives
  /// its run (a campaign keeps every baseline) holds no slack.
  void shrink_to_fit() {
    if (!blocks_.empty()) blocks_.back().shrink_to_fit();
  }

  [[nodiscard]] Records records() const { return Records(this); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() {
    blocks_.clear();
    size_ = 0;
  }

  /// Pointers to the records of one job sorted by (rank, op_index) — the
  /// canonical order used for baseline/interference matching.  They stay
  /// valid while this log lives and is not cleared.
  [[nodiscard]] std::vector<const OpRecord*> sorted_for_job(std::int32_t job) const;

  /// Builds one log by moving the records `order` names out of `logs`, in
  /// that order, then clears every log in `logs`.  Observers are not
  /// called; the result has none.
  [[nodiscard]] static TraceLog gather(std::span<TraceLog> logs,
                                       std::span<const RecordRef> order);

 private:
  static constexpr std::size_t kFirstBlockShift = std::countr_zero(kFirstBlockRecords);
  static constexpr std::size_t kMaxBlockShift = std::countr_zero(kMaxBlockRecords);
  static constexpr std::size_t kGrowingBlocks = kMaxBlockShift - kFirstBlockShift;
  static_assert(std::has_single_bit(kFirstBlockRecords) && std::has_single_bit(kMaxBlockRecords));

  [[nodiscard]] static std::size_t block_capacity(std::size_t block) {
    return std::size_t{1} << std::min(kFirstBlockShift + block, kMaxBlockShift);
  }

  /// (block, position in block) of record i.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> locate(std::size_t i) {
    if (i < kGrowingRecords) {
      const std::size_t block = std::bit_width((i >> kFirstBlockShift) + 1) - 1;
      return {block, i - (((std::size_t{1} << block) - 1) << kFirstBlockShift)};
    }
    const std::size_t j = i - kGrowingRecords;
    return {kGrowingBlocks + (j >> kMaxBlockShift), j & ((std::size_t{1} << kMaxBlockShift) - 1)};
  }
  [[nodiscard]] const OpRecord& at(std::size_t i) const {
    const auto [block, pos] = locate(i);
    return blocks_[block][pos];
  }
  [[nodiscard]] OpRecord& at(std::size_t i) {
    const auto [block, pos] = locate(i);
    return blocks_[block][pos];
  }

  void append(OpRecord rec) {
    if (blocks_.empty() || blocks_.back().size() == block_capacity(blocks_.size() - 1)) {
      const std::size_t capacity = block_capacity(blocks_.size());
      blocks_.emplace_back().reserve(capacity);
    }
    blocks_.back().push_back(std::move(rec));
    ++size_;
  }

  // Every block but the last is full; no block is empty.
  std::vector<std::vector<OpRecord>> blocks_;
  std::size_t size_ = 0;
  Observer observer_;
};

/// FNV-1a fingerprint over the full record stream in completion (log)
/// order, covering every semantic field of every record (the replay
/// metadata — path/stripes/stripe_hint — is excluded so pre-metadata
/// golden fingerprints stay valid).  Two runs with equal
/// fingerprints produced byte-identical op streams — the equality the
/// lane engine's bit-identity contract is stated in (test_sim_lanes pins
/// it across lane counts; `qif run --lanes N` prints it so scripts can
/// assert the same equality end to end).
[[nodiscard]] std::uint64_t trace_fingerprint(const TraceLog& log);

}  // namespace qif::trace
