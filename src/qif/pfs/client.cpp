#include "qif/pfs/client.hpp"

#include <algorithm>
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

// ---------------------------------------------------------------------------
// The op slab.  Every op — data or metadata — lives in a pooled record from
// issue to completion; events refer to it by {slot, generation} handle, so
// a completed op's stragglers can never touch the slot's next tenant, and
// destroying the client frees everything still in flight.
// ---------------------------------------------------------------------------

PfsClient::OpHandle PfsClient::begin_op(OpType type, FileId file, std::int64_t offset,
                                        std::int64_t len) {
  std::uint32_t slot;
  if (!free_ops_.empty()) {
    slot = free_ops_.back();
    free_ops_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(ops_.size());
    ops_.emplace_back();
  }
  Op& op = ops_[slot];
  op.type = type;
  op.file = file;
  op.offset = offset;
  op.len = len;
  op.start = sim_.now();
  op.path.clear();
  op.stripes = 0;
  op.stripe_hint = -1;
  op.targets = {};
  op.rpcs.clear();
  op.next = 0;
  op.outstanding = 0;
  op.remaining = 0;
  op.throttle_wait = false;
  op.faults = {};
  op.meta = {};
  return OpHandle{slot, op.gen};
}

PfsClient::Op* PfsClient::live_op(OpHandle h) {
  Op& op = ops_[h.slot];
  if (op.gen == h.gen) return &op;
  ++stale_arrivals_;
  return nullptr;
}

void PfsClient::release(OpHandle h) {
  ++ops_[h.slot].gen;  // every handle to the finished op goes stale
  free_ops_.push_back(h.slot);
}

void PfsClient::emit(Op& op, FileId file) {
  trace::OpRecord rec;
  rec.replay = trace::ReplayColumns(op.path, op.stripes, op.stripe_hint);
  rec.job = job_;
  rec.rank = rank_;
  rec.op_index = next_op_index_++;
  rec.type = op.type;
  rec.file = file;
  rec.offset = op.offset;
  rec.bytes = op.len;
  rec.start = op.start;
  rec.end = sim_.now();
  rec.targets = std::move(op.targets);
  rec.retries = op.faults.retries;
  rec.timeouts = op.faults.timeouts;
  rec.failed = op.faults.failed;
  total_retries_ += op.faults.retries;
  total_timeouts_ += op.faults.timeouts;
  total_failed_ += op.faults.failed ? 1 : 0;
  cluster_.record_client_op(node_, std::move(rec));
}

// ---------------------------------------------------------------------------
// RPC timeout/retry state machine.
//
// Each attempt arms a deadline timer; a response beats the timer or the
// timer beats the response.  A timed-out attempt backs off exponentially
// (with deterministic jitter from the client's own RNG stream) and
// re-issues, up to rpc_max_retries re-issues, after which the RPC fails
// with EIO.  Responses from superseded attempts are recognised by attempt
// number and dropped — at-least-once semantics, like a real RPC resend
// (server work is idempotent here).  Each attempt sends its own by-value
// copy of the request: the server side of an in-flight attempt then reads
// no state the client ever writes, which is what lets the attempt cross an
// event-lane boundary — a straggler arriving after the op settles simply
// re-executes idempotent server work, as a real resent RPC would, and its
// response finds a stale handle.  With rpc_deadline == 0 none of this
// exists: the RPC goes straight to the fabric, scheduling no timer and
// drawing no randomness, so healthy runs replay the exact pre-fault event
// sequence.
// ---------------------------------------------------------------------------

void PfsClient::issue(OpHandle h, std::uint32_t idx) {
  Op& op = ops_[h.slot];
  Rpc& rpc = op.rpcs[idx];
  const std::int32_t attempt = ++rpc.attempt;
  if (params_.rpc_deadline > 0) {
    rpc.timer = sim_.schedule_after(params_.rpc_deadline, [this, h, idx, attempt] {
      on_timeout(h, idx, attempt);
    });
  }
  RpcRequest req;
  req.kind = rpc.kind;
  int port;
  if (req.is_metadata()) {
    port = cluster_.mds_port();
    req.stripes = op.stripes;
    req.stripe_hint = op.stripe_hint;
    req.file = op.file;
    req.path = op.path;
  } else {
    port = cluster_.oss_port(rpc.ost);
    req.ost = rpc.ost;
    req.disk_offset = rpc.disk_offset;
    req.len = rpc.len;
  }
  cluster_.net().rpc(node_, port, std::move(req),
                     [this, h, idx, attempt](const MetaResult& reply) {
                       on_reply(h, idx, attempt, reply);
                     });
}

void PfsClient::on_reply(OpHandle h, std::uint32_t idx, std::int32_t attempt,
                         const MetaResult& reply) {
  Op* op = live_op(h);
  if (op == nullptr) return;  // the op already finished
  Rpc& rpc = op->rpcs[idx];
  if (rpc.done || rpc.attempt != attempt) return;  // settled, or a superseded attempt
  rpc.done = true;
  if (rpc.timer != sim::kInvalidEvent) {
    sim_.cancel(rpc.timer);
    rpc.timer = sim::kInvalidEvent;
  }
  op->meta = reply;
  settled(h, idx, /*ok=*/true);
}

void PfsClient::on_timeout(OpHandle h, std::uint32_t idx, std::int32_t attempt) {
  Op* op = live_op(h);
  if (op == nullptr) return;
  Rpc& rpc = op->rpcs[idx];
  if (rpc.done || rpc.attempt != attempt) return;  // superseded meanwhile
  rpc.timer = sim::kInvalidEvent;
  ++op->faults.timeouts;
  if (rpc.attempt > params_.rpc_max_retries) {
    // Retries exhausted: surface EIO.  Late responses find the RPC done or
    // the op gone; stragglers still in flight re-run their own request copy.
    rpc.done = true;
    op->faults.failed = true;
    settled(h, idx, /*ok=*/false);
    return;
  }
  ++op->faults.retries;
  const double scale = static_cast<double>(1u << (rpc.attempt - 1));
  double wait = static_cast<double>(params_.retry_backoff) * scale;
  if (params_.retry_jitter > 0) {
    wait *= 1.0 + params_.retry_jitter * retry_rng_.next_double();
  }
  sim_.schedule_after(std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(wait)),
                      [this, h, idx] {
                        // A late response may have settled the RPC, or even
                        // finished the op, during the backoff.
                        const Op* live = live_op(h);
                        if (live != nullptr && !live->rpcs[idx].done) issue(h, idx);
                      });
}

void PfsClient::settled(OpHandle h, std::uint32_t idx, bool ok) {
  Op& op = ops_[h.slot];
  switch (op.type) {
    case OpType::kRead:
    case OpType::kWrite: {
      // ok=false already marked the op failed; it still drains its
      // remaining chunks so the completion count stays exact.
      const Rpc& chunk = op.rpcs[idx];
      if (gate_ != nullptr) {
        gate_->on_chunk_complete(cluster_.oss_port(chunk.ost), chunk.len,
                                 sim_.now() - chunk.issued);
      }
      --op.outstanding;
      if (--op.remaining == 0) {
        finish_data(h);
      } else {
        pump(h);
      }
      return;
    }
    case OpType::kClose:
      if (op.rpcs[idx].kind == RpcKind::kWriteSync) {
        // Whether or not the flush succeeded, the namespace close still
        // goes to the MDS (its own attempt budget, shared op stats).
        op.rpcs.push_back(Rpc{RpcKind::kClose});
        issue(h, idx + 1);
        return;
      }
      break;
    default:
      break;
  }
  finish_meta(h, ok);
}

// ---------------------------------------------------------------------------
// Metadata operations: one RPC to the MDS each (a small file's close first
// flushes its dirty bytes to the OST).
// ---------------------------------------------------------------------------

PfsClient::OpHandle PfsClient::begin_meta(OpType type, RpcKind kind, const std::string& path) {
  const OpHandle h = begin_op(type, kInvalidFile, 0, 0);
  Op& op = ops_[h.slot];
  op.path = path;
  op.targets = {trace::kMdtTarget};
  op.rpcs.push_back(Rpc{kind});
  return h;
}

void PfsClient::create(const std::string& path, int stripe_count, OpenCallback cb,
                       int stripe_hint) {
  const OpHandle h = begin_meta(OpType::kCreate, RpcKind::kCreate, path);
  Op& op = ops_[h.slot];
  op.stripes = stripe_count;
  op.stripe_hint = stripe_hint;
  op.on_open = std::move(cb);
  issue(h, 0);
}

void PfsClient::open(const std::string& path, OpenCallback cb) {
  const OpHandle h = begin_meta(OpType::kOpen, RpcKind::kOpen, path);
  ops_[h.slot].on_open = std::move(cb);
  issue(h, 0);
}

void PfsClient::stat(const std::string& path, StatCallback cb) {
  const OpHandle h = begin_meta(OpType::kStat, RpcKind::kStat, path);
  ops_[h.slot].on_stat = std::move(cb);
  issue(h, 0);
}

void PfsClient::unlink(const std::string& path, DataCallback cb) {
  const OpHandle h = begin_meta(OpType::kUnlink, RpcKind::kUnlink, path);
  ops_[h.slot].on_done = std::move(cb);
  issue(h, 0);
}

void PfsClient::mkdir(const std::string& path, DataCallback cb) {
  const OpHandle h = begin_meta(OpType::kMkdir, RpcKind::kMkdir, path);
  ops_[h.slot].on_done = std::move(cb);
  issue(h, 0);
}

void PfsClient::close(const FileHandle& fh, DataCallback cb) {
  const OpHandle h = begin_op(OpType::kClose, fh.file, 0, 0);
  Op& op = ops_[h.slot];
  op.on_done = std::move(cb);
  const auto it = std::find_if(small_dirty_.begin(), small_dirty_.end(),
                               [&fh](const SmallDirty& d) { return d.file == fh.file; });
  if (it != small_dirty_.end() && !it->oversized && it->bytes > 0) {
    // Flush-on-close: a small file's dirty bytes are committed to the OST
    // synchronously before the namespace close, so the close op's latency
    // carries the full cost of whatever the target disk is suffering.
    op.targets = {it->ost, trace::kMdtTarget};
    op.rpcs.push_back(Rpc{RpcKind::kWriteSync, it->ost, it->disk_offset, it->bytes});
  } else {
    op.targets = {trace::kMdtTarget};
    op.rpcs.push_back(Rpc{RpcKind::kClose});
  }
  if (it != small_dirty_.end()) {
    *it = small_dirty_.back();
    small_dirty_.pop_back();
  }
  issue(h, 0);
}

void PfsClient::finish_meta(OpHandle h, bool ok) {
  Op& op = ops_[h.slot];
  // An EIO'd op never accepted a reply, so `meta` is still empty.
  const MetaResult meta = op.meta;
  switch (op.type) {
    case OpType::kCreate: {
      emit(op, ok ? meta.file : kInvalidFile);
      OpenCallback cb = std::move(op.on_open);
      release(h);
      // EIO: an invalid handle, so the caller's ops degenerate.
      cb(ok ? FileHandle{meta.file, meta.layout, meta.size} : FileHandle{});
      return;
    }
    case OpType::kOpen: {
      emit(op, ok ? meta.file : kInvalidFile);
      OpenCallback cb = std::move(op.on_open);
      release(h);
      cb(FileHandle{ok && meta.ok ? meta.file : kInvalidFile, meta.layout, meta.size});
      return;
    }
    case OpType::kStat: {
      emit(op, ok ? meta.file : kInvalidFile);
      StatCallback cb = std::move(op.on_stat);
      release(h);
      cb(ok && meta.ok, meta.size);
      return;
    }
    default: {  // close, unlink, mkdir
      emit(op, op.type == OpType::kClose ? op.file : kInvalidFile);
      DataCallback cb = std::move(op.on_done);
      release(h);
      cb();
      return;
    }
  }
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
  const OpType type = is_write ? OpType::kWrite : OpType::kRead;
  if (!fh.valid() || len <= 0) {
    // Degenerate op: still emits a record so op indices stay aligned with
    // the workload's issue sequence.
    const OpHandle h = begin_op(type, fh.file, offset, 0);
    ops_[h.slot].on_done = std::move(cb);
    sim_.schedule_after(sim::kMicrosecond, [this, h] { finish_data(h); });
    return;
  }

  const OpHandle h = begin_op(type, fh.file, offset, len);
  Op& op = ops_[h.slot];
  op.on_done = std::move(cb);
  // Chunk the stripe extents to the RPC size cap.
  const RpcKind kind = is_write ? RpcKind::kWrite : RpcKind::kRead;
  fh.layout->for_each_extent(offset, len, [&](const Extent& e) {
    for (std::int64_t pos = 0; pos < e.len;) {
      const std::int64_t take = std::min(params_.max_rpc_bytes, e.len - pos);
      op.rpcs.push_back(Rpc{kind, e.ost, e.disk_offset + pos, take});
      pos += take;
    }
    if (std::find(op.targets.begin(), op.targets.end(), e.ost) == op.targets.end()) {
      op.targets.push_back(e.ost);
    }
  });
  op.remaining = op.rpcs.size();
  if (is_write) note_small_write(fh.file, op.rpcs.front(), len);
  pump(h);
}

void PfsClient::note_small_write(FileId file, const Rpc& first_chunk, std::int64_t len) {
  auto it = std::find_if(small_dirty_.begin(), small_dirty_.end(),
                         [file](const SmallDirty& d) { return d.file == file; });
  if (it == small_dirty_.end()) {
    small_dirty_.push_back(SmallDirty{file, first_chunk.ost, first_chunk.disk_offset});
    it = small_dirty_.end() - 1;
  }
  it->bytes += len;
  if (it->bytes > params_.small_file_flush_bytes) it->oversized = true;
}

// Issues chunks with at most max_rpcs_in_flight outstanding; every chunk
// completion re-enters the pump.  With an admission gate the pump
// additionally (a) clamps the window to the gate's concurrency cap, re-read
// before every chunk so a decision epoch takes effect mid-op, and (b) asks
// the gate before issuing each chunk — strictly before issue(), so a
// throttled chunk never arms a deadline timer and an admission delay can
// never read as a timeout or retry.  A refused ask parks the pump behind
// one wake-up event (single waiter per op); ungated clients take the exact
// pre-gate code path.
void PfsClient::pump(OpHandle h) {
  Op& op = ops_[h.slot];
  while (op.next < op.rpcs.size()) {
    std::size_t cap = static_cast<std::size_t>(params_.max_rpcs_in_flight);
    if (gate_ != nullptr) {
      cap = static_cast<std::size_t>(
          std::clamp(gate_->concurrency_cap(), 1, params_.max_rpcs_in_flight));
    }
    if (op.outstanding >= cap) break;
    Rpc& chunk = op.rpcs[op.next];
    if (gate_ != nullptr) {
      const sim::SimDuration wait =
          gate_->acquire(cluster_.oss_port(chunk.ost), chunk.len, sim_.now());
      if (wait > 0) {
        if (!op.throttle_wait) {
          op.throttle_wait = true;
          sim_.schedule_after(wait, [this, h] {
            // Another completion may have drained the op while we slept.
            if (Op* live = live_op(h)) {
              live->throttle_wait = false;
              pump(h);
            }
          });
        }
        return;
      }
    }
    chunk.issued = sim_.now();
    ++op.outstanding;
    issue(h, static_cast<std::uint32_t>(op.next++));
  }
}

void PfsClient::finish_data(OpHandle h) {
  Op& op = ops_[h.slot];
  // A failed op never reached the server coherently; don't grow the file.
  // (A degenerate op has len 0 and never touched it.)
  if (op.type == OpType::kWrite && op.len > 0 && !op.faults.failed) {
    cluster_.post_note_size(node_, op.file, op.offset + op.len);
  }
  emit(op, op.file);
  DataCallback cb = std::move(op.on_done);
  release(h);
  cb();
}

}  // namespace qif::pfs
