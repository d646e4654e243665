// Parallel file system client, one instance per process (rank).
//
// Implements the POSIX-ish surface the workloads drive — create/open/
// read/write/stat/close/unlink/mkdir — on top of the RPC fabric:
// data ops are split by the file's striping layout into per-OST extents,
// chunked to the RPC size cap and issued with a bounded number of RPCs in
// flight (Lustre's max_rpcs_in_flight); metadata ops go to the MDS.  Every
// completed operation emits one DXT-style OpRecord to the run's TraceLog,
// which is exactly the instrumentation point of the paper's modified
// Darshan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qif/pfs/layout.hpp"
#include "qif/pfs/network.hpp"
#include "qif/pfs/types.hpp"
#include "qif/sim/inline_task.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::pfs {

class AdmissionGate;
class Cluster;

struct ClientParams {
  std::int64_t max_rpc_bytes = 1 << 20;  ///< Lustre default 1 MiB RPCs
  int max_rpcs_in_flight = 8;
  /// Flush-on-close: a file whose total written volume stays at or below
  /// this threshold has its dirty data flushed *synchronously* to the OST
  /// at close time (the PFS commit-on-close path for small new files —
  /// what makes mdtest-hard's 3901-byte bodies disk-bound while bulk IOR
  /// writes stream through the write-back cache).
  std::int64_t small_file_flush_bytes = 256 << 10;

  // -- RPC timeout/retry (fault tolerance; Lustre's obd_timeout family) ----
  /// Per-RPC deadline.  0 disables the whole timeout machinery: no timer
  /// events are scheduled and every RPC takes the exact pre-fault code path
  /// (this is what keeps healthy-run traces byte-identical to old goldens).
  sim::SimDuration rpc_deadline = 0;
  /// Re-issues after the first timeout before the op fails with EIO.
  int rpc_max_retries = 4;
  /// Base backoff before re-issue; doubles each attempt (exponential).
  sim::SimDuration retry_backoff = 100 * sim::kMillisecond;
  /// Uniform jitter fraction applied on top of the backoff: the wait is
  /// backoff * 2^k * (1 + jitter * U[0,1)) with U from the client's own
  /// deterministic RNG stream.
  double retry_jitter = 0.5;
};

/// Open-file handle; cheap to copy.
struct FileHandle {
  FileId file = kInvalidFile;
  const FileLayout* layout = nullptr;
  std::int64_t size = 0;
  [[nodiscard]] bool valid() const { return file != kInvalidFile && layout != nullptr; }
};

class PfsClient {
 public:
  // Move-only and allocation-free: a capture that outgrows the buffer is a
  // compile error (sim/inline_task.hpp).
  using DataCallback = sim::InlineFunction<void(), 64>;
  using OpenCallback = sim::InlineFunction<void(FileHandle), 64>;
  using StatCallback = sim::InlineFunction<void(bool ok, std::int64_t size), 64>;

  /// `job` tags every record this client emits (one workload = one job id).
  PfsClient(Cluster& cluster, NodeId node, Rank rank, std::int32_t job);

  PfsClient(const PfsClient&) = delete;
  PfsClient& operator=(const PfsClient&) = delete;

  // -- metadata ops ---------------------------------------------------------
  /// Creates the file with `stripe_count` stripes (0 = stripe over all
  /// OSTs).  `stripe_hint` >= 0 pins the starting OST; -1 = hashed.
  void create(const std::string& path, int stripe_count, OpenCallback cb,
              int stripe_hint = -1);
  void open(const std::string& path, OpenCallback cb);
  void stat(const std::string& path, StatCallback cb);
  void close(const FileHandle& fh, DataCallback cb);
  void unlink(const std::string& path, DataCallback cb);
  void mkdir(const std::string& path, DataCallback cb);

  // -- data ops -------------------------------------------------------------
  void read(const FileHandle& fh, std::int64_t offset, std::int64_t len, DataCallback cb);
  void write(const FileHandle& fh, std::int64_t offset, std::int64_t len, DataCallback cb);

  [[nodiscard]] Cluster& cluster() { return cluster_; }
  /// The engine this client's node runs on — the single engine in classic
  /// mode, the node's data lane in lane mode.  Workload code must schedule
  /// its think-time/phase events here, never on another lane's engine.
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Rank rank() const { return rank_; }
  [[nodiscard]] std::int32_t job() const { return job_; }
  [[nodiscard]] std::int64_t ops_issued() const { return next_op_index_; }

  /// Cumulative fault-path counters across every op this client issued.
  [[nodiscard]] std::int64_t total_retries() const { return total_retries_; }
  [[nodiscard]] std::int64_t total_timeouts() const { return total_timeouts_; }
  [[nodiscard]] std::int64_t total_failed_ops() const { return total_failed_; }

  /// Op records ever allocated (in flight + free-listed).  Bounded by the
  /// peak number of this client's simultaneously open ops — exposed so
  /// tests can assert that finished ops' slots are reused.
  [[nodiscard]] std::size_t op_slab_size() const { return ops_.size(); }
  /// Late events — a response, retry timer or gate wake-up — that arrived
  /// after their op had finished and were dropped.
  [[nodiscard]] std::int64_t stale_arrivals() const { return stale_arrivals_; }

  /// Admission gate for this client's data-RPC chunks (admission.hpp), or
  /// nullptr — the default, in which case the data-op pump takes the exact
  /// ungated code path (no extra events, byte-identical traces).  The gate
  /// must outlive the client; the cluster's gate factory installs it at
  /// make_client time.
  void set_gate(AdmissionGate* gate) { gate_ = gate; }
  [[nodiscard]] AdmissionGate* gate() const { return gate_; }

 private:
  /// Small-file dirty state for flush-on-close.
  struct SmallDirty {
    FileId file = kInvalidFile;
    OstId ost = 0;
    std::int64_t disk_offset = 0;
    std::int64_t bytes = 0;
    bool oversized = false;  ///< grew past the threshold; close is cheap
  };

  /// Fault outcome of one POSIX-level op (shared by all of its RPCs).
  struct OpFaultStats {
    std::int32_t retries = 0;
    std::int32_t timeouts = 0;
    bool failed = false;
  };

  /// One RPC of an op — a data chunk, the flush of a close, or a metadata
  /// request — with its timeout/retry state.
  struct Rpc {
    RpcKind kind = RpcKind::kRead;
    OstId ost = 0;
    std::int64_t disk_offset = 0;
    std::int64_t len = 0;
    sim::SimTime issued = 0;  ///< first issue (the gate's rtt origin)
    std::int32_t attempt = 0;  ///< attempts issued so far
    bool done = false;         ///< response accepted or EIO'd
    sim::EventId timer = sim::kInvalidEvent;
  };

  /// Pooled state of one in-flight op.  A record is addressed by an
  /// OpHandle; `gen` is bumped when the op finishes, so every event still
  /// holding the old handle (a late response, a retry timer, a gate
  /// wake-up) finds a mismatch and does nothing.
  struct Op {
    std::uint32_t gen = 0;
    OpType type = OpType::kRead;
    FileId file = kInvalidFile;
    std::int64_t offset = 0;
    std::int64_t len = 0;
    sim::SimTime start = 0;
    std::string path;  ///< replay columns of a metadata record (trace::OpRecord)
    std::int32_t stripes = 0;
    std::int32_t stripe_hint = -1;
    trace::TargetList targets;
    std::vector<Rpc> rpcs;  ///< capacity survives slot reuse
    std::size_t next = 0;         ///< data: next chunk to issue
    std::size_t outstanding = 0;  ///< data: chunks in flight
    std::size_t remaining = 0;    ///< data: chunks not yet settled
    bool throttle_wait = false;   ///< a gate wake-up event is pending
    OpFaultStats faults;
    MetaResult meta;  ///< the accepted metadata reply
    DataCallback on_done;
    OpenCallback on_open;
    StatCallback on_stat;
  };

  struct OpHandle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  OpHandle begin_op(OpType type, FileId file, std::int64_t offset, std::int64_t len);
  /// A metadata op with its single MDS RPC, not yet issued.
  OpHandle begin_meta(OpType type, RpcKind kind, const std::string& path);
  /// The op `h` names, or nullptr (counted as a stale arrival) once that op
  /// has finished.
  [[nodiscard]] Op* live_op(OpHandle h);
  /// Frees the slot; every outstanding handle to the op goes stale.
  void release(OpHandle h);
  /// Records the finished op (moving its targets out).
  void emit(Op& op, FileId file);

  void data_op(bool is_write, const FileHandle& fh, std::int64_t offset, std::int64_t len,
               DataCallback cb);
  void note_small_write(FileId file, const Rpc& first_chunk, std::int64_t len);
  void pump(OpHandle h);

  /// Issues one attempt of `op.rpcs[idx]`: arms its deadline timer when
  /// `rpc_deadline` > 0 (none with a zero deadline, and no RNG draws), then
  /// sends the request by value.
  void issue(OpHandle h, std::uint32_t idx);
  void on_reply(OpHandle h, std::uint32_t idx, std::int32_t attempt, const MetaResult& reply);
  void on_timeout(OpHandle h, std::uint32_t idx, std::int32_t attempt);
  /// An RPC ended: ok, or EIO after its retries ran out.
  void settled(OpHandle h, std::uint32_t idx, bool ok);
  void finish_data(OpHandle h);
  void finish_meta(OpHandle h, bool ok);

  Cluster& cluster_;
  sim::Simulation& sim_;  ///< the engine owning this client's node
  NodeId node_;
  Rank rank_;
  std::int32_t job_;
  std::int64_t next_op_index_ = 0;
  ClientParams params_;
  std::vector<Op> ops_;
  std::vector<std::uint32_t> free_ops_;
  std::vector<SmallDirty> small_dirty_;  ///< files written since their open; few
  sim::Rng retry_rng_;
  AdmissionGate* gate_ = nullptr;
  std::int64_t total_retries_ = 0;
  std::int64_t total_timeouts_ = 0;
  std::int64_t total_failed_ = 0;
  std::int64_t stale_arrivals_ = 0;
};

}  // namespace qif::pfs
