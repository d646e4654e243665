#!/usr/bin/env bash
# Tier-1 gate: full build + test suite (which holds the end-to-end gates:
# lane fingerprint identity in cli_lanes, batched == sync serving for both
# model architectures in test_serve_service and cli_roundtrip, and the
# mitigation-on-beats-off study in test_campaign_mitigate), then the
# exec/campaign tests again under ThreadSanitizer to catch data races in
# the qif::exec thread pool, the parallel campaign runner, and the
# thread-parallel GEMM path, and an
# AddressSanitizer leg over the .qds corruption-fuzz and reader tests so
# hostile bytes can never turn into a silent out-of-bounds read (the same
# leg fuzzes the .qifm model parser and the trainer's width checks, runs
# the scenario tests with LeakSanitizer on, and runs the event engine,
# extent-map, GEMM, network and command-line parser tests), and an
# UndefinedBehaviorSanitizer leg over the trace-storage (record layout and
# allocation counts included), fault-path, event-engine, extent-map, GEMM,
# network and command-line parser tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier-1: standard build + ctest ==="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "=== tier-1: exec/campaign/scheduler tests under TSan ==="
cmake -B build-tsan -S . -DQIF_SANITIZE=thread
cmake --build build-tsan -j --target test_exec test_core test_ml_gemm test_ml_trainer \
  test_sim_simulation test_sim_links test_export test_data_alloc \
  test_campaign_faults test_pfs_faults test_sim_property test_streaming \
  test_sim_lanes test_serve_ring test_serve_service \
  test_ctrl_bucket test_ctrl_controller test_campaign_mitigate
./build-tsan/tests/test_exec
./build-tsan/tests/test_core --gtest_filter='Campaign.*'
# Data-plane: parallel campaign shards block-append into one FeatureTable,
# and the .qds reader touches whole columns — both must stay race-free.
./build-tsan/tests/test_export
./build-tsan/tests/test_data_alloc
./build-tsan/tests/test_ml_gemm --gtest_filter='Gemm.Parallel*'
./build-tsan/tests/test_ml_trainer --gtest_filter='Trainer.ResultIsBitIdenticalAcrossJobCounts'
# Chunked trainer: batches stream out of mmap'ed shards while the GEMM
# pool fans out — the shard access path must stay race-free.
./build-tsan/tests/test_streaming --gtest_filter='ChunkedTraining.*'
# The event engine itself is single-threaded, but campaign workers each run
# a private Simulation on pool threads — the slab/heap must stay free of
# cross-engine shared state.
./build-tsan/tests/test_sim_simulation
./build-tsan/tests/test_sim_links
# Fault layer: faulted campaigns shard across pool workers exactly like
# healthy ones, and the property harness hammers the per-worker engines.
./build-tsan/tests/test_campaign_faults
./build-tsan/tests/test_pfs_faults
./build-tsan/tests/test_sim_property
# Parallel event lanes: N engines on worker threads synchronized by
# barrier windows, cross-lane messages through per-(src,dst) outboxes —
# the whole lane data plane must be race-free under TSan while the tests
# assert bit-identity against the lanes=1 sequential reference.
./build-tsan/tests/test_sim_lanes
# Serving layer: the MPSC ring (multi-producer ticket CAS + per-cell seq)
# and the batcher/hot-swap path (producers spinning on completion flags
# while the batcher thread swaps models) are the two lock-free surfaces —
# both must stay race-free while the tests assert FIFO order,
# exactly-once consumption, and single-version batches.
./build-tsan/tests/test_serve_ring
./build-tsan/tests/test_serve_service
# Mitigation layer: each campaign worker runs its own Mitigator +
# controllers on a private engine; mitigated (and faulted+mitigated)
# campaigns must shard across the pool without sharing controller state,
# while the tests assert byte-identity across --jobs counts.
./build-tsan/tests/test_ctrl_bucket
./build-tsan/tests/test_ctrl_controller
./build-tsan/tests/test_campaign_mitigate

echo "=== tier-1: .qds/.qwp corruption fuzz and scenario leaks under ASan ==="
# test_qds_fuzz covers the buffered reader, the mmap path (QdsMmapFuzz),
# the .qdm manifest/shard files (QdmFuzz), and the qlz codec (QlzFuzz);
# test_streaming exercises the mmap'ed shard lifecycle end to end.
# test_qwp flips/truncates every byte of a serialized workload program and
# test_replay parses crafted DXT dumps — the two text-IR parsers must turn
# hostile bytes into clean errors, never out-of-bounds reads.
# test_serve_registry truncates, bit-flips and forges headers of the .qifm
# model file — the only model parser that reads outside bytes — and
# test_ml_trainer evaluates models on rows of the wrong width, which used
# to read past every row, and trains and evaluates on labels outside the
# class count, which used to index past the loss and confusion buffers.
# The GEMM, layer and network tests cover the NT path's transpose indexing
# into its grow-once scratch and the padded tail rows.
cmake -B build-asan -S . -DQIF_SANITIZE=address
cmake --build build-asan -j --target test_qds_fuzz test_export test_streaming \
  test_qwp test_replay test_trace test_serve_registry test_ml_trainer \
  test_ml_gemm test_ml_nn test_ml_kernelnet test_ml_attention \
  test_sim_golden test_core test_sim_lanes test_pfs_client test_pfs_faults \
  test_campaign_mitigate test_sim_simulation test_sim_property test_sim_links \
  test_pfs_read_cache test_pfs_writeback test_options test_workloads \
  test_workload_scenarios
./build-asan/tests/test_qds_fuzz
./build-asan/tests/test_export
./build-asan/tests/test_streaming
./build-asan/tests/test_qwp
./build-asan/tests/test_replay
./build-asan/tests/test_serve_registry
./build-asan/tests/test_ml_trainer
./build-asan/tests/test_ml_gemm
./build-asan/tests/test_ml_nn
./build-asan/tests/test_ml_kernelnet
./build-asan/tests/test_ml_attention
# A scenario's trace is handed out by move while the client monitor that
# observed it dies with the run's stack frame: recording into the returned
# trace must never call back into it (ASan sees the dead frame only with
# stack-use-after-return detection on).
ASAN_OPTIONS=detect_stack_use_after_return=1 ./build-asan/tests/test_trace
# Leak leg: every scenario ends with data ops still in flight at its horizon
# (noise jobs loop until it), on healthy, lane, faulted and mitigated runs.
# Their state lives in each client's pooled op slab, so tearing the cluster
# down must free all of it — LeakSanitizer reports anything that survives.
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_sim_golden
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_core
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_sim_lanes
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_pfs_client
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_pfs_faults
ASAN_OPTIONS=detect_leaks=1 ./build-asan/tests/test_campaign_mitigate
# Event engine: closures are built in place in slot chunks, run where they
# sit while they schedule into freshly grown chunks, and FairLink/Pipe hand
# callbacks between flows, ring cells and slots; the extent maps split and
# shift flat vectors by index.  Use-after-free and out-of-bounds index
# arithmetic are the hazards.
./build-asan/tests/test_sim_simulation
./build-asan/tests/test_sim_property
./build-asan/tests/test_sim_links
./build-asan/tests/test_pfs_read_cache
./build-asan/tests/test_pfs_writeback
# Command-line parser: every word of argv is outside input.
./build-asan/tests/test_options
# Workload programs: the 32-byte op records, the per-rank path table that
# copies and moves re-point, and the executor's repeat cursor over folded
# transfer runs, driven through every catalogue workload end to end.
./build-asan/tests/test_workloads
./build-asan/tests/test_workload_scenarios

echo "=== tier-1: trace storage, fault paths, event engine, extent maps and GEMM under UBSan ==="
# The trace log's fixed blocks and the records' 16-bit target lists (whose
# spill pointer shares bytes with the inline ids) and replay boxes do their
# own index arithmetic and byte-level storage; every test that records,
# dumps, replays, observes or fingerprints traces runs with UB trapping,
# as do test_trace_alloc, which pins what a record owns, and
# test_pfs_faults, which drives the retry/timeout counters that end up in
# every faulted record.  So do the engine's chunked slot indexing and
# in-place closure storage, the flat extent maps' index arithmetic, and the
# GEMM's transpose and padded-tile indexing under every layer and network.
cmake -B build-ubsan -S . -DQIF_SANITIZE=undefined
cmake --build build-ubsan -j --target test_trace test_trace_alloc test_export test_replay \
  test_monitor test_pfs_client test_pfs_faults test_sim_golden test_sim_simulation \
  test_pfs_read_cache test_pfs_writeback test_ml_gemm test_ml_nn test_ml_kernelnet \
  test_ml_attention test_options test_workloads test_qwp test_workload_scenarios
./build-ubsan/tests/test_trace
./build-ubsan/tests/test_trace_alloc
./build-ubsan/tests/test_export
./build-ubsan/tests/test_replay
./build-ubsan/tests/test_monitor
./build-ubsan/tests/test_pfs_client
./build-ubsan/tests/test_pfs_faults
./build-ubsan/tests/test_sim_golden
./build-ubsan/tests/test_sim_simulation
./build-ubsan/tests/test_pfs_read_cache
./build-ubsan/tests/test_pfs_writeback
./build-ubsan/tests/test_ml_gemm
./build-ubsan/tests/test_ml_nn
./build-ubsan/tests/test_ml_kernelnet
./build-ubsan/tests/test_ml_attention
./build-ubsan/tests/test_options
# Workload programs: the record words each kind shares, and the run
# cursor's offset arithmetic (wrapping by design, never signed overflow),
# through the builders, the .qwp round trip and the scenarios.
./build-ubsan/tests/test_workloads
./build-ubsan/tests/test_qwp
./build-ubsan/tests/test_workload_scenarios

echo "tier-1 OK"
