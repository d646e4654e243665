#include "qif/pfs/client.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "qif/pfs/admission.hpp"
#include "qif/pfs/cluster.hpp"

namespace qif::pfs {

PfsClient::PfsClient(Cluster& cluster, NodeId node, Rank rank, std::int32_t job)
    : cluster_(cluster), sim_(cluster.sim_for_node(node)), node_(node), rank_(rank),
      job_(job),
      params_(cluster.config().client),
      retry_rng_(sim::Rng::derive_seed(
          cluster.config().seed, "client-retry/n" + std::to_string(node) + "/r" +
                                     std::to_string(rank) + "/j" + std::to_string(job))) {}

void PfsClient::emit(OpType type, FileId file, std::int64_t offset, std::int64_t bytes,
                     sim::SimTime start, trace::TargetList targets,
                     const OpFaultStats* faults, std::string path, std::int32_t stripes,
                     std::int32_t stripe_hint) {
  trace::OpRecord rec;
  rec.path = std::move(path);
  rec.stripes = stripes;
  rec.stripe_hint = stripe_hint;
  rec.job = job_;
  rec.rank = rank_;
  rec.op_index = next_op_index_++;
  rec.type = type;
  rec.file = file;
  rec.offset = offset;
  rec.bytes = bytes;
  rec.start = start;
  rec.end = sim_.now();
  rec.targets = std::move(targets);
  if (faults != nullptr) {
    rec.retries = faults->retries;
    rec.timeouts = faults->timeouts;
    rec.failed = faults->failed;
    total_retries_ += faults->retries;
    total_timeouts_ += faults->timeouts;
    total_failed_ += faults->failed ? 1 : 0;
  }
  cluster_.record_client_op(node_, std::move(rec));
}

// ---------------------------------------------------------------------------
// RPC timeout/retry state machine.
//
// Each attempt arms a deadline timer; a response beats the timer or the
// timer beats the response.  A timed-out attempt backs off exponentially
// (with deterministic jitter from the client's own RNG stream) and
// re-issues, up to rpc_max_retries re-issues, after which the op fails with
// EIO.  Responses from superseded attempts are recognised by attempt number
// and dropped — at-least-once semantics, like a real RPC resend (server
// work is idempotent here).  Each attempt carries its own copy of the serve
// closure: the server side of an in-flight attempt then touches no state the
// client side ever writes, which is what lets the attempt cross an event-lane
// boundary — a straggler arriving after the op settles simply re-executes
// idempotent server work, as a real resent RPC would.  With rpc_deadline ==
// 0 none of this exists:
// the RPC goes straight to the fabric, scheduling no timer and drawing no
// randomness, so healthy runs replay the exact pre-fault event sequence.
// ---------------------------------------------------------------------------

void PfsClient::rpc_faultable(int server_port, std::int64_t request_payload,
                              std::int64_t response_payload,
                              std::function<void(std::function<void()>)> serve,
                              std::function<void(bool)> cb,
                              std::shared_ptr<OpFaultStats> stats) {
  if (params_.rpc_deadline <= 0) {
    cluster_.net().rpc(node_, server_port, request_payload, response_payload,
                       std::move(serve), [cb = std::move(cb)] { cb(true); });
    return;
  }
  auto op = std::make_shared<RetryOp>();
  op->server_port = server_port;
  op->request_payload = request_payload;
  op->response_payload = response_payload;
  op->serve = std::move(serve);
  op->cb = std::move(cb);
  op->stats = std::move(stats);
  issue_attempt(std::move(op));
}

void PfsClient::issue_attempt(std::shared_ptr<RetryOp> op) {
  const int my_attempt = ++op->attempt;
  op->timer = sim_.schedule_after(params_.rpc_deadline, [this, op, my_attempt] {
    if (op->done || op->attempt != my_attempt) return;  // superseded meanwhile
    op->timer = sim::kInvalidEvent;
    if (op->stats) ++op->stats->timeouts;
    if (op->attempt > params_.rpc_max_retries) {
      // Retries exhausted: surface EIO.  Late responses are ignored by the
      // done flag; stragglers still in flight re-run their own serve copy.
      op->done = true;
      if (op->stats) op->stats->failed = true;
      auto cb = std::move(op->cb);
      op->serve = nullptr;
      cb(false);
      return;
    }
    if (op->stats) ++op->stats->retries;
    const double scale = static_cast<double>(1u << (op->attempt - 1));
    double wait = static_cast<double>(params_.retry_backoff) * scale;
    if (params_.retry_jitter > 0) {
      wait *= 1.0 + params_.retry_jitter * retry_rng_.next_double();
    }
    sim_.schedule_after(
        std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(wait)), [this, op] {
          // A late response may have completed the op during the backoff.
          if (!op->done) issue_attempt(op);
        });
  });
  cluster_.net().rpc(
      node_, op->server_port, op->request_payload, op->response_payload,
      // Value copy per attempt: the server side must not read RetryOp fields
      // the client side writes (settling clears op->serve), or a cross-lane
      // straggler would race the settle.
      [serve = op->serve](std::function<void()> done) { serve(std::move(done)); },
      [this, op, my_attempt] {
        if (op->done || op->attempt != my_attempt) return;  // stale response
        op->done = true;
        if (op->timer != sim::kInvalidEvent) {
          sim_.cancel(op->timer);
          op->timer = sim::kInvalidEvent;
        }
        auto cb = std::move(op->cb);
        op->serve = nullptr;
        cb(true);
      });
}

// ---------------------------------------------------------------------------
// Metadata operations: one RPC to the MDS each.
// ---------------------------------------------------------------------------

void PfsClient::create(const std::string& path, int stripe_count, OpenCallback cb,
                       int stripe_hint) {
  const sim::SimTime start = sim_.now();
  // The MDS reply payload travels back through the RPC; a shared slot
  // carries it from the serve closure to the completion closure.
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), /*request=*/256, /*response=*/256,
      [this, path, stripe_count, stripe_hint, result](std::function<void()> done) {
        cluster_.mdt().create(path, stripe_count, stripe_hint,
                              [result, done = std::move(done)](const MetaResult& r) {
                                *result = r;
                                done();
                              });
      },
      [this, path, stripe_count, stripe_hint, result, start, cb = std::move(cb),
       stats](bool ok) {
        emit(OpType::kCreate, ok ? result->file : kInvalidFile, 0, 0, start,
             {trace::kMdtTarget}, stats.get(), path, stripe_count, stripe_hint);
        if (ok) {
          cb(FileHandle{result->file, result->layout, result->size});
        } else {
          cb(FileHandle{});  // EIO: invalid handle, caller's ops degenerate
        }
      },
      stats);
}

void PfsClient::open(const std::string& path, OpenCallback cb) {
  const sim::SimTime start = sim_.now();
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path, result](std::function<void()> done) {
        cluster_.mdt().open(path, [result, done = std::move(done)](const MetaResult& r) {
          *result = r;
          done();
        });
      },
      [this, path, result, start, cb = std::move(cb), stats](bool ok) {
        emit(OpType::kOpen, ok ? result->file : kInvalidFile, 0, 0, start,
             {trace::kMdtTarget}, stats.get(), path);
        cb(FileHandle{ok && result->ok ? result->file : kInvalidFile, result->layout,
                      result->size});
      },
      stats);
}

void PfsClient::stat(const std::string& path, StatCallback cb) {
  const sim::SimTime start = sim_.now();
  auto result = std::make_shared<MetaResult>();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path, result](std::function<void()> done) {
        cluster_.mdt().stat(path, [result, done = std::move(done)](const MetaResult& r) {
          *result = r;
          done();
        });
      },
      [this, path, result, start, cb = std::move(cb), stats](bool ok) {
        emit(OpType::kStat, ok ? result->file : kInvalidFile, 0, 0, start,
             {trace::kMdtTarget}, stats.get(), path);
        cb(ok && result->ok, result->size);
      },
      stats);
}

void PfsClient::close(const FileHandle& fh, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  // Flush-on-close: a small file's dirty bytes are committed to the OST
  // synchronously before the namespace close, so the close op's latency
  // carries the full cost of whatever the target disk is suffering.
  if (auto it = small_dirty_.find(fh.file);
      it != small_dirty_.end() && !it->second.oversized && it->second.bytes > 0) {
    const SmallDirty dirty = it->second;
    small_dirty_.erase(it);
    rpc_faultable(
        cluster_.oss_port(dirty.ost), dirty.bytes, 0,
        [this, dirty](std::function<void()> done) {
          cluster_.ost(dirty.ost).write_sync(dirty.disk_offset, dirty.bytes, std::move(done));
        },
        [this, file = fh.file, start, ost = dirty.ost, stats,
         cb = std::move(cb)](bool) mutable {
          // Whether or not the flush succeeded, the namespace close still
          // goes to the MDS (its own attempt budget, shared op stats).
          finish_close(file, start, {ost, trace::kMdtTarget}, std::move(stats),
                       std::move(cb));
        },
        stats);
    return;
  }
  small_dirty_.erase(fh.file);
  finish_close(fh.file, start, {trace::kMdtTarget}, std::move(stats), std::move(cb));
}

void PfsClient::finish_close(FileId file, sim::SimTime start,
                             trace::TargetList targets,
                             std::shared_ptr<OpFaultStats> faults, DataCallback cb) {
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, file](std::function<void()> done) {
        cluster_.mdt().close(file, [done = std::move(done)](const MetaResult&) { done(); });
      },
      [this, file, start, targets = std::move(targets), faults,
       cb = std::move(cb)](bool) {
        emit(OpType::kClose, file, 0, 0, start, targets, faults.get());
        cb();
      },
      faults);
}

void PfsClient::note_small_write(const FileHandle& fh, std::int64_t offset, std::int64_t len) {
  auto [it, inserted] = small_dirty_.try_emplace(fh.file);
  SmallDirty& d = it->second;
  if (inserted) {
    const auto extents = fh.layout->map(offset, len);
    d.ost = extents.front().ost;
    d.disk_offset = extents.front().disk_offset;
  }
  d.bytes += len;
  if (d.bytes > params_.small_file_flush_bytes) d.oversized = true;
}

void PfsClient::unlink(const std::string& path, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path](std::function<void()> done) {
        cluster_.mdt().unlink(path, [done = std::move(done)](const MetaResult&) { done(); });
      },
      [this, path, start, stats, cb = std::move(cb)](bool) {
        emit(OpType::kUnlink, kInvalidFile, 0, 0, start, {trace::kMdtTarget}, stats.get(),
             path);
        cb();
      },
      stats);
}

void PfsClient::mkdir(const std::string& path, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  auto stats = make_fault_stats();
  rpc_faultable(
      cluster_.mds_port(), 256, 256,
      [this, path](std::function<void()> done) {
        cluster_.mdt().mkdir(path, [done = std::move(done)](const MetaResult&) { done(); });
      },
      [this, path, start, stats, cb = std::move(cb)](bool) {
        emit(OpType::kMkdir, kInvalidFile, 0, 0, start, {trace::kMdtTarget}, stats.get(),
             path);
        cb();
      },
      stats);
}

// ---------------------------------------------------------------------------
// Data operations: stripe mapping, RPC chunking, bounded in-flight window.
// ---------------------------------------------------------------------------

void PfsClient::read(const FileHandle& fh, std::int64_t offset, std::int64_t len,
                     DataCallback cb) {
  data_op(/*is_write=*/false, fh, offset, len, std::move(cb));
}

void PfsClient::write(const FileHandle& fh, std::int64_t offset, std::int64_t len,
                      DataCallback cb) {
  data_op(/*is_write=*/true, fh, offset, len, std::move(cb));
}

void PfsClient::data_op(bool is_write, const FileHandle& fh, std::int64_t offset,
                        std::int64_t len, DataCallback cb) {
  const sim::SimTime start = sim_.now();
  if (!fh.valid() || len <= 0) {
    // Degenerate op: still emits a record so op indices stay aligned with
    // the workload's issue sequence.
    sim_.schedule_after(sim::kMicrosecond, [this, is_write, fh, offset, start,
                                                      cb = std::move(cb)] {
      emit(is_write ? OpType::kWrite : OpType::kRead, fh.file, offset, 0, start, {});
      cb();
    });
    return;
  }

  // Chunk the stripe extents to the RPC size cap.
  struct Chunk {
    OstId ost;
    std::int64_t disk_offset;
    std::int64_t len;
  };
  auto chunks = std::make_shared<std::vector<Chunk>>();
  trace::TargetList targets;
  for (const Extent& e : fh.layout->map(offset, len)) {
    std::int64_t pos = 0;
    while (pos < e.len) {
      const std::int64_t take = std::min(params_.max_rpc_bytes, e.len - pos);
      chunks->push_back(Chunk{e.ost, e.disk_offset + pos, take});
      pos += take;
    }
    if (std::find(targets.begin(), targets.end(), e.ost) == targets.end()) {
      targets.push_back(e.ost);
    }
  }

  struct OpState {
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::size_t remaining;
    bool throttle_wait = false;  ///< a gate wake-up event is pending
    explicit OpState(std::size_t n) : remaining(n) {}
  };
  if (is_write) note_small_write(fh, offset, len);

  auto stats = make_fault_stats();  // shared by every chunk RPC of this op
  auto state = std::make_shared<OpState>(chunks->size());
  auto finish = [this, is_write, fh, offset, len, start, stats,
                 targets = std::move(targets), cb = std::move(cb)]() {
    // A failed op never reached the server coherently; don't grow the file.
    if (is_write && !(stats && stats->failed)) {
      cluster_.post_note_size(node_, fh.file, offset + len);
    }
    emit(is_write ? OpType::kWrite : OpType::kRead, fh.file, offset, len, start, targets,
         stats.get());
    cb();
  };

  // Issue chunks with at most max_rpcs_in_flight outstanding.  `pump` is
  // stored in a shared_ptr so completion callbacks can re-enter it.  With an
  // admission gate the pump additionally (a) clamps the window to the gate's
  // concurrency cap, re-read before every chunk so a decision epoch takes
  // effect mid-op, and (b) asks the gate before issuing each chunk —
  // strictly before rpc_faultable, so a throttled chunk never arms a
  // deadline timer and an admission delay can never read as a timeout or
  // retry.  A refused ask parks the pump behind one wake-up event (single
  // waiter per op); ungated clients take the exact pre-gate code path.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, is_write, chunks, state, stats, pump, finish = std::move(finish)]() {
    while (state->next < chunks->size()) {
      std::size_t cap = static_cast<std::size_t>(params_.max_rpcs_in_flight);
      if (gate_ != nullptr) {
        cap = static_cast<std::size_t>(
            std::clamp(gate_->concurrency_cap(), 1, params_.max_rpcs_in_flight));
      }
      if (state->outstanding >= cap) break;
      const Chunk c = (*chunks)[state->next];
      const int port = cluster_.oss_port(c.ost);
      if (gate_ != nullptr) {
        const sim::SimDuration wait = gate_->acquire(port, c.len, sim_.now());
        if (wait > 0) {
          if (!state->throttle_wait) {
            state->throttle_wait = true;
            sim_.schedule_after(wait, [state, pump] {
              state->throttle_wait = false;
              // The op may have drained (EIO path) while we slept.
              if (*pump) (*pump)();
            });
          }
          return;
        }
      }
      ++state->next;
      ++state->outstanding;
      const sim::SimTime issued = sim_.now();
      const std::int64_t req_payload = is_write ? c.len : 0;
      const std::int64_t resp_payload = is_write ? 0 : c.len;
      rpc_faultable(
          port, req_payload, resp_payload,
          [this, is_write, c](std::function<void()> done) {
            if (is_write) {
              cluster_.ost(c.ost).write(c.disk_offset, c.len, std::move(done));
            } else {
              cluster_.ost(c.ost).read(c.disk_offset, c.len, std::move(done));
            }
          },
          [this, state, pump, finish, port, len = c.len, issued](bool) {
            // ok=false already marked stats->failed; the op still drains its
            // remaining chunks so the completion count stays exact.
            if (gate_ != nullptr) {
              gate_->on_chunk_complete(port, len, sim_.now() - issued);
            }
            --state->outstanding;
            --state->remaining;
            if (state->remaining == 0) {
              finish();
              // Break the pump's self-reference cycle so the op state frees.
              *pump = nullptr;
            } else {
              (*pump)();
            }
          },
          stats);
    }
  };
  (*pump)();
}

}  // namespace qif::pfs
