// End-to-end tests for the PFS client + cluster: POSIX-ish semantics, RPC
// chunking, trace emission, flush-on-close, and the monitored-server
// counter mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "qif/pfs/admission.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/pfs/faults.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

struct ClusterFixture : ::testing::Test {
  sim::Simulation s;
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;
  void SetUp() override {
    cfg.seed = 9;
    cfg.ost_disk.service_jitter = 0.0;
    cfg.mdt_disk.service_jitter = 0.0;
    cfg.mdt.cpu_jitter = 0.0;
    cluster = std::make_unique<Cluster>(s, cfg);
  }
};

TEST_F(ClusterFixture, TopologyMatchesConfig) {
  EXPECT_EQ(cluster->n_osts(), 6);
  EXPECT_EQ(cluster->n_servers(), 7);
  EXPECT_EQ(cluster->mdt_server_index(), 6);
  EXPECT_EQ(cluster->oss_port(0), 0);
  EXPECT_EQ(cluster->oss_port(1), 0);
  EXPECT_EQ(cluster->oss_port(2), 1);
  EXPECT_EQ(cluster->oss_port(5), 2);
  EXPECT_EQ(cluster->mds_port(), 3);
  EXPECT_EQ(cluster->server_index(trace::kMdtTarget), 6);
  EXPECT_EQ(cluster->server_index(2), 2);
}

TEST(ClusterConfig, RejectsAnOstCountBeyondSixteenBitServerIds) {
  ClusterConfig cfg;
  cfg.n_oss = std::numeric_limits<std::int16_t>::max();
  cfg.osts_per_oss = 1;
  EXPECT_NO_THROW(cfg.validate());  // the largest OST id is 32766
  cfg.n_oss = 4096;
  cfg.osts_per_oss = 8;  // 32768 OSTs
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.n_oss = 1 << 16;
  cfg.osts_per_oss = 1 << 16;  // overflows int; still rejected
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.n_oss = 0;
  cfg.osts_per_oss = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The cluster validates before it builds a server.
  sim::Simulation s;
  EXPECT_THROW(Cluster(s, cfg), std::invalid_argument);
}

TEST_F(ClusterFixture, CreateWriteReadCloseRoundTrip) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  bool finished = false;
  client.create("/t/file", 1, [&](FileHandle fh) {
    ASSERT_TRUE(fh.valid());
    client.write(fh, 0, 2 << 20, [&, fh] {
      client.read(fh, 0, 1 << 20, [&, fh] {
        client.close(fh, [&] { finished = true; });
      });
    });
  });
  s.run_all();
  EXPECT_TRUE(finished);
  const auto& recs = cluster->trace_log().records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].type, OpType::kCreate);
  EXPECT_EQ(recs[1].type, OpType::kWrite);
  EXPECT_EQ(recs[1].bytes, 2 << 20);
  EXPECT_EQ(recs[2].type, OpType::kRead);
  EXPECT_EQ(recs[3].type, OpType::kClose);
}

TEST_F(ClusterFixture, OpIndicesAreSequentialPerRank) {
  PfsClient& c0 = cluster->make_client(0, 0, 0);
  PfsClient& c1 = cluster->make_client(1, 1, 0);
  c0.stat("/", [](bool, std::int64_t) {});
  c1.stat("/", [](bool, std::int64_t) {});
  c0.stat("/", [](bool, std::int64_t) {});
  s.run_all();
  std::int64_t max_r0 = -1, max_r1 = -1;
  for (const auto& r : cluster->trace_log().records()) {
    if (r.rank == 0) max_r0 = std::max(max_r0, r.op_index);
    if (r.rank == 1) max_r1 = std::max(max_r1, r.op_index);
  }
  EXPECT_EQ(max_r0, 1);
  EXPECT_EQ(max_r1, 0);
}

TEST_F(ClusterFixture, MetadataOpsTargetMdt) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  client.mkdir("/d", [] {});
  s.run_all();
  const auto& rec = cluster->trace_log().records().back();
  ASSERT_EQ(rec.targets.size(), 1u);
  EXPECT_EQ(rec.targets[0], trace::kMdtTarget);
}

TEST_F(ClusterFixture, StripedWriteTargetsAllItsOsts) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  trace::TargetList targets;
  client.create("/wide", 0, [&](FileHandle fh) {
    client.write(fh, 0, 6 << 20, [] {});  // one stripe unit on each OST
  });
  s.run_all();
  for (const auto& r : cluster->trace_log().records()) {
    if (r.type == OpType::kWrite) targets = r.targets;
  }
  EXPECT_EQ(targets.size(), 6u);
}

TEST_F(ClusterFixture, LargeOpSplitsIntoRpcChunks) {
  // A 4 MiB read on a 1-stripe file must produce 4 x 1 MiB disk requests.
  PfsClient& client = cluster->make_client(0, 0, 0);
  OstId ost = -1;
  client.create("/big", 1, [&](FileHandle fh) {
    ost = fh.layout->osts()[0];
    client.read(fh, 0, 4 << 20, [] {});
  });
  s.run_all();
  ASSERT_GE(ost, 0);
  EXPECT_EQ(cluster->ost(ost).disk().counters().sectors_read, (4 << 20) / 512);
}

TEST_F(ClusterFixture, SmallFileCloseFlushesSynchronously) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  OstId ost = -1;
  sim::SimTime write_done = 0;
  client.create("/small", 1, [&](FileHandle fh) {
    ost = fh.layout->osts()[0];
    client.write(fh, 0, 3901, [&, fh] {
      write_done = s.now();
      client.close(fh, [] {});
    });
  });
  s.run_all();
  ASSERT_GE(ost, 0);
  // The 3901-byte body reaches the disk via the close's sync flush.
  EXPECT_EQ(cluster->ost(ost).disk().counters().sectors_written, (3901 + 511) / 512);
  const auto& close_rec = cluster->trace_log().records().back();
  ASSERT_EQ(close_rec.type, OpType::kClose);
  // The close targets both the OST (flush) and the MDT (namespace close).
  ASSERT_EQ(close_rec.targets.size(), 2u);
  EXPECT_EQ(close_rec.targets[0], ost);
  EXPECT_EQ(close_rec.targets[1], trace::kMdtTarget);
  // And the close is the expensive op, not the buffered write.
  EXPECT_GT(close_rec.duration(), 0);
}

TEST_F(ClusterFixture, LargeFileCloseIsCheap) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  sim::SimDuration close_time = 0;
  client.create("/bulk", 1, [&](FileHandle fh) {
    client.write(fh, 0, 4 << 20, [&, fh] {
      client.close(fh, [] {});
    });
  });
  s.run_all();
  for (const auto& r : cluster->trace_log().records()) {
    if (r.type == OpType::kClose) close_time = r.duration();
  }
  EXPECT_LT(sim::to_millis(close_time), 10.0);
}

TEST_F(ClusterFixture, ZeroLengthDataOpStillEmitsRecord) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  bool cb = false;
  client.create("/z", 1, [&](FileHandle fh) {
    client.write(fh, 0, 0, [&] { cb = true; });
  });
  s.run_all();
  EXPECT_TRUE(cb);
  const auto& recs = cluster->trace_log().records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].type, OpType::kWrite);
  EXPECT_EQ(recs[1].bytes, 0);
}

TEST_F(ClusterFixture, ServerCountersReflectLoad) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  client.create("/load", 1, [&](FileHandle fh) {
    client.read(fh, 0, 1 << 20, [] {});
  });
  s.run_all();
  bool some_reads = false;
  for (int srv = 0; srv < cluster->n_osts(); ++srv) {
    const auto counters = cluster->server_counters(srv);
    if (counters[0] > 0) some_reads = true;  // completed reads
  }
  EXPECT_TRUE(some_reads);
  // MDT server counters include the create as a modifying op.
  const auto mdt = cluster->server_counters(cluster->mdt_server_index());
  EXPECT_GE(mdt[1], 1);  // completed "writes" = modifying metadata ops
}

TEST_F(ClusterFixture, WriteUpdatesFileSizeAtMds) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  std::int64_t size_seen = -1;
  client.create("/grow", 1, [&](FileHandle fh) {
    client.write(fh, 0, 12345, [&] {
      client.stat("/grow", [&](bool ok, std::int64_t size) {
        ASSERT_TRUE(ok);
        size_seen = size;
      });
    });
  });
  s.run_all();
  EXPECT_EQ(size_seen, 12345);
}

TEST_F(ClusterFixture, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    ClusterConfig cc;
    cc.seed = seed;
    Cluster cl(sim, cc);
    PfsClient& client = cl.make_client(0, 0, 0);
    client.create("/det", 0, [&](FileHandle fh) {
      client.write(fh, 0, 8 << 20, [&, fh] {
        client.read(fh, 0, 8 << 20, [&, fh] { client.close(fh, [] {}); });
      });
    });
    sim.run_all();
    std::vector<sim::SimTime> ends;
    for (const auto& r : cl.trace_log().records()) ends.push_back(r.end);
    return ends;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // jitter differs across seeds
}

// ---------------------------------------------------------------------------
// Admission gate x timeout/retry machine (qif::ctrl rides this hook).
// ---------------------------------------------------------------------------

/// Scriptable test double: waits `delay` for the first `waits_left` asks,
/// admits everything after, and counts what it sees.
struct FixedGate final : AdmissionGate {
  sim::SimDuration delay = 0;
  int waits_left = 0;
  int cap = 1 << 20;  ///< far above max_rpcs_in_flight: exercises the clamp
  std::int64_t asks = 0;
  std::int64_t admitted = 0;
  std::int64_t completions = 0;
  std::int64_t completed_bytes = 0;
  int inflight = 0;
  int max_inflight = 0;

  sim::SimDuration acquire(int, std::int64_t, sim::SimTime) override {
    ++asks;
    if (waits_left > 0) {
      --waits_left;
      return delay;
    }
    ++admitted;
    inflight += 1;
    max_inflight = std::max(max_inflight, inflight);
    return 0;
  }
  [[nodiscard]] int concurrency_cap() const override { return cap; }
  void on_chunk_complete(int, std::int64_t bytes, sim::SimDuration) override {
    inflight -= 1;
    ++completions;
    completed_bytes += bytes;
  }
};

TEST(AdmissionGate, ThrottleDelayIsNeverCountedAsTimeoutOrRetry) {
  sim::Simulation s;
  ClusterConfig cfg;
  cfg.seed = 9;
  cfg.client.rpc_deadline = 300 * sim::kMillisecond;
  Cluster cluster(s, cfg);
  PfsClient& client = cluster.make_client(0, 0, 0);
  FixedGate gate;
  gate.delay = 200 * sim::kMillisecond;
  gate.waits_left = 3;  // 600 ms of admission delay, past the RPC deadline
  client.set_gate(&gate);
  bool done = false;
  client.create("/throttled", 1, [&](FileHandle fh) {
    client.write(fh, 0, 4 << 20, [&] { done = true; });
  });
  s.run_all();
  EXPECT_TRUE(done);
  const auto& rec = cluster.trace_log().records().back();
  ASSERT_EQ(rec.type, OpType::kWrite);
  // The per-RPC deadline arms only after admission: throttling for twice
  // the deadline surfaces as latency, never as a timeout/retry/failure.
  EXPECT_EQ(rec.retries, 0);
  EXPECT_EQ(rec.timeouts, 0);
  EXPECT_FALSE(rec.failed);
  EXPECT_GE(rec.duration(), 600 * sim::kMillisecond);
  EXPECT_EQ(gate.admitted, 4);  // 4 x 1 MiB chunks
  EXPECT_EQ(gate.asks, 4 + 3);  // a rejected ask consumes nothing
  EXPECT_EQ(gate.completions, 4);
  EXPECT_EQ(gate.completed_bytes, 4 << 20);
}

TEST_F(ClusterFixture, GateConcurrencyCapSerializesChunks) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  FixedGate gate;
  gate.cap = 1;
  client.set_gate(&gate);
  client.create("/serial", 1, [&](FileHandle fh) {
    client.read(fh, 0, 8 << 20, [] {});
  });
  s.run_all();
  EXPECT_EQ(gate.admitted, 8);
  EXPECT_EQ(gate.max_inflight, 1);
}

TEST_F(ClusterFixture, GateCapIsClampedToMaxRpcsInFlight) {
  PfsClient& client = cluster->make_client(0, 0, 0);
  FixedGate gate;  // cap stays at its huge default
  client.set_gate(&gate);
  client.create("/wide-pipe", 1, [&](FileHandle fh) {
    client.read(fh, 0, 16 << 20, [] {});
  });
  s.run_all();
  EXPECT_EQ(gate.admitted, 16);
  EXPECT_EQ(gate.max_inflight, 8);  // the client's clamp, not the gate's cap
}

/// A stall window on OST 0 long enough that the first read attempts hit
/// their deadline and retry; metadata RPCs (MDS) stay healthy throughout.
faults::FaultPlan ost0_stall() {
  faults::FaultPlan plan;
  plan.stalls.push_back({/*ost=*/0, /*start=*/0, /*duration=*/2500 * sim::kMillisecond});
  return plan;
}

TEST(AdmissionGate, ZeroDelayGateIsInvisibleEvenUnderRetries) {
  // An always-admit gate must not move a single event: same op-end and
  // fault-counter sequences with and without it, both on the healthy path
  // and with the timeout/retry machine firing (a stalled OST).  This pins
  // the no-double-count contract — the gate adds no events when admitting
  // and never touches the retry RNG's jitter stream.
  const auto run = [](bool stalled, bool gated) {
    sim::Simulation s;
    ClusterConfig cfg;
    cfg.seed = 9;
    cfg.client.rpc_deadline = 200 * sim::kMillisecond;
    Cluster cluster(s, cfg);
    std::unique_ptr<faults::FaultInjector> injector;
    if (stalled) {
      injector = std::make_unique<faults::FaultInjector>(cluster, ost0_stall(), 5);
    }
    PfsClient& client = cluster.make_client(0, 0, 0);
    FixedGate gate;
    if (gated) client.set_gate(&gate);
    client.create("/invisible", 1, [&](FileHandle fh) {
      client.read(fh, 0, 3 << 20, [&, fh] { client.close(fh, [] {}); });
    }, /*stripe_hint=*/0);  // pin to the (possibly stalled) OST 0
    s.run_all();
    std::vector<std::tuple<sim::SimTime, std::int32_t, std::int32_t, bool>> log;
    for (const auto& r : cluster.trace_log().records()) {
      log.emplace_back(r.end, r.retries, r.timeouts, r.failed);
    }
    return log;
  };
  EXPECT_EQ(run(false, true), run(false, false));
  const auto faulted = run(true, true);
  EXPECT_EQ(faulted, run(true, false));
  std::int64_t timeouts = 0;
  for (const auto& entry : faulted) timeouts += std::get<2>(entry);
  EXPECT_GT(timeouts, 0) << "the stalled OST should have tripped the retry machine";
}

TEST(AdmissionGate, RetriesNeverReenterTheGate) {
  // A chunk that times out is re-issued inside the retry machine, but it is
  // admitted exactly once: the gate sees chunks + scripted-waits asks, no
  // matter how many attempts the stall forces.  And two identical runs stay
  // bit-identical — throttling composes with the deterministic retry jitter
  // without perturbing it.
  const auto run = [] {
    sim::Simulation s;
    ClusterConfig cfg;
    cfg.seed = 9;
    cfg.client.rpc_deadline = 200 * sim::kMillisecond;
    Cluster cluster(s, cfg);
    faults::FaultInjector injector(cluster, ost0_stall(), 5);
    PfsClient& client = cluster.make_client(0, 0, 0);
    FixedGate gate;
    gate.delay = 50 * sim::kMillisecond;
    gate.waits_left = 2;
    client.set_gate(&gate);
    trace::OpRecord read_rec;
    client.create("/stalled", 1, [&](FileHandle fh) {
      client.read(fh, 0, 3 << 20, [] {});
    }, /*stripe_hint=*/0);
    s.run_all();
    for (const auto& r : cluster.trace_log().records()) {
      if (r.type == OpType::kRead) read_rec = r;
    }
    return std::make_tuple(read_rec.end, read_rec.retries, read_rec.timeouts,
                           read_rec.failed, gate.asks, gate.admitted,
                           gate.completions);
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(std::get<4>(first), 3 + 2);  // 3 chunk admissions + 2 waits
  EXPECT_EQ(std::get<5>(first), 3);
  EXPECT_EQ(std::get<6>(first), 3);      // timed-out chunks still report back
  EXPECT_GT(std::get<2>(first), 0);      // the stall really forced timeouts
}

/// Gate double that answers asks from a script of waits (0 = admit), and
/// admits everything once the script runs out.
struct ScriptedGate final : AdmissionGate {
  std::vector<sim::SimDuration> waits;
  std::size_t asks = 0;

  sim::SimDuration acquire(int, std::int64_t, sim::SimTime) override {
    const std::size_t i = asks++;
    return i < waits.size() ? waits[i] : 0;
  }
  [[nodiscard]] int concurrency_cap() const override { return 8; }
  void on_chunk_complete(int, std::int64_t, sim::SimDuration) override {}
};

TEST(LateArrival, GateWakeUpAfterTheOpDrainedIsANoOp) {
  // The first 2 MiB read parks its second chunk behind a 100 ms wake-up,
  // but the first chunk's completion re-asks and is admitted, so the op
  // drains long before the wake-up fires.  The follow-up read (same slot)
  // parks its own second chunk for 200 ms; the stale wake-up must neither
  // clear that park nor pump the new op.
  const auto run = [](bool follow_up) {
    sim::Simulation s;
    ClusterConfig cfg;
    cfg.seed = 9;
    cfg.ost_disk.service_jitter = 0.0;
    Cluster cluster(s, cfg);
    PfsClient& client = cluster.make_client(0, 0, 0);
    ScriptedGate gate;
    const sim::SimDuration ms = sim::kMillisecond;
    // op 1: chunk 0 admitted, chunk 1 parked, re-ask admitted;
    // op 2: chunk 0 admitted, chunk 1 parked, re-ask parked again.
    gate.waits = {0, 100 * ms, 0, 0, 200 * ms, 200 * ms};
    client.set_gate(&gate);
    const FileLayout layout(1, {0}, cfg.stripe_size, cfg.ost_disk.capacity_bytes);
    const FileHandle fh{1, &layout, 0};
    client.read(fh, 0, 2 << 20, [&] {
      if (follow_up) client.read(fh, 2 << 20, 2 << 20, [] {});
    });
    while (client.stale_arrivals() == 0 && s.pending() > 0) s.run_until(s.next_event_time());
    const sim::SimTime stale_at = s.now();
    const std::size_t emitted_by_stale = cluster.trace_log().size();
    s.run_all();
    std::vector<trace::OpRecord> recs;
    for (const auto& r : cluster.trace_log().records()) recs.push_back(r);
    return std::make_tuple(recs, stale_at, emitted_by_stale, client.stale_arrivals(),
                           client.op_slab_size(), gate.asks);
  };
  const auto [alone, alone_stale_at, alone_emitted, alone_stale, alone_slab, alone_asks] =
      run(false);
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_LT(alone[0].end, 100 * sim::kMillisecond);
  EXPECT_EQ(alone_stale, 1);
  EXPECT_EQ(alone_stale_at, 100 * sim::kMillisecond);
  EXPECT_EQ(alone_asks, 3u);

  const auto [recs, stale_at, emitted, stale, slab, asks] = run(true);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(slab, 1u);
  EXPECT_EQ(stale, 1);
  EXPECT_EQ(stale_at, 100 * sim::kMillisecond);
  EXPECT_EQ(emitted, 1u);  // the new op was parked when the wake-up came
  EXPECT_EQ(recs[1].start, recs[0].end);
  // Its second chunk waited for its own wake-up, and nothing re-asked.
  EXPECT_GE(recs[1].end, recs[1].start + 200 * sim::kMillisecond);
  EXPECT_EQ(asks, 7u);
}

}  // namespace
}  // namespace qif::pfs
