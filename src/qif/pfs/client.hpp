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
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qif/pfs/layout.hpp"
#include "qif/pfs/types.hpp"
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
  using DataCallback = std::function<void()>;
  using OpenCallback = std::function<void(FileHandle)>;
  using StatCallback = std::function<void(bool ok, std::int64_t size)>;

  /// `job` tags every record this client emits (one workload = one job id).
  PfsClient(Cluster& cluster, NodeId node, Rank rank, std::int32_t job);

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
    OstId ost = 0;
    std::int64_t disk_offset = 0;
    std::int64_t bytes = 0;
    bool oversized = false;  ///< grew past the threshold; close is cheap
  };

  /// Fault outcome of one POSIX-level op (shared by all of its chunk RPCs).
  struct OpFaultStats {
    std::int32_t retries = 0;
    std::int32_t timeouts = 0;
    bool failed = false;
  };

  /// One RPC riding the timeout/retry state machine.
  struct RetryOp {
    int server_port = 0;
    std::int64_t request_payload = 0;
    std::int64_t response_payload = 0;
    std::function<void(std::function<void()>)> serve;
    std::function<void(bool ok)> cb;
    std::shared_ptr<OpFaultStats> stats;
    int attempt = 0;                        ///< attempts issued so far
    bool done = false;                      ///< response accepted or EIO'd
    sim::EventId timer = sim::kInvalidEvent;
  };

  /// `path`/`stripes`/`stripe_hint` are the replay-metadata columns of the
  /// record (empty/zero for data ops); see trace::OpRecord.
  void emit(OpType type, FileId file, std::int64_t offset, std::int64_t bytes,
            sim::SimTime start, trace::TargetList targets,
            const OpFaultStats* faults = nullptr, std::string path = {},
            std::int32_t stripes = 0, std::int32_t stripe_hint = -1);
  void data_op(bool is_write, const FileHandle& fh, std::int64_t offset, std::int64_t len,
               DataCallback cb);
  void note_small_write(const FileHandle& fh, std::int64_t offset, std::int64_t len);
  void finish_close(FileId file, sim::SimTime start, trace::TargetList targets,
                    std::shared_ptr<OpFaultStats> faults, DataCallback cb);

  /// Runs one RPC under the timeout/retry machine when `rpc_deadline` > 0;
  /// with a zero deadline it degrades to a plain fabric RPC (no timer
  /// events, no RNG draws) and always reports ok=true.
  void rpc_faultable(int server_port, std::int64_t request_payload,
                     std::int64_t response_payload,
                     std::function<void(std::function<void()>)> serve,
                     std::function<void(bool ok)> cb,
                     std::shared_ptr<OpFaultStats> stats);
  void issue_attempt(std::shared_ptr<RetryOp> op);
  /// Allocates per-op fault stats when the machinery is on, nullptr when off.
  [[nodiscard]] std::shared_ptr<OpFaultStats> make_fault_stats() {
    return params_.rpc_deadline > 0 ? std::make_shared<OpFaultStats>() : nullptr;
  }

  Cluster& cluster_;
  sim::Simulation& sim_;  ///< the engine owning this client's node
  NodeId node_;
  Rank rank_;
  std::int32_t job_;
  std::int64_t next_op_index_ = 0;
  ClientParams params_;
  std::map<FileId, SmallDirty> small_dirty_;
  sim::Rng retry_rng_;
  AdmissionGate* gate_ = nullptr;
  std::int64_t total_retries_ = 0;
  std::int64_t total_timeouts_ = 0;
  std::int64_t total_failed_ = 0;
};

}  // namespace qif::pfs
