// Streaming data-plane tests: sharded .qds datasets behind a manifest,
// mmap zero-copy loads, and the chunked training path.
//
// The load-bearing claims pinned here:
//   - shard -> open -> materialize reproduces the dataset exactly, and the
//     shard/manifest bytes are deterministic;
//   - a ShardedDataset serves the same rows as the in-RAM table;
//   - training through the chunked RowAccess path (sharded, mmap'ed, or
//     budget-capped) produces a .qifm model file BYTE-identical to the
//     in-RAM path at the same seed — the refactor moved storage, not math.
// The chunked-trainer thread fan-out test also runs under ThreadSanitizer
// in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/export.hpp"
#include "qif/monitor/qds_file.hpp"
#include "qif/sim/rng.hpp"

namespace qif::monitor {
namespace {

/// A synthetic dataset with learnable structure: class-1 rows carry a
/// shifted first column, so training has signal to latch onto.
Dataset synthetic_dataset(std::size_t rows) {
  Dataset ds(2, 5);
  sim::Rng rng(515);
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = static_cast<int>(i % 2);
    double* f = ds.append_row(static_cast<std::int64_t>(i), label, 1.0 + label);
    for (std::size_t j = 0; j < ds.width(); ++j) {
      f[j] = rng.uniform(-1.0, 1.0) + (label == 1 && j % 5 == 0 ? 2.5 : 0.0);
    }
  }
  return ds;
}

std::string serialize(const Dataset& ds) {
  std::ostringstream os;
  write_dataset_qds(os, ds);
  return os.str();
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_same_rows(const RowAccess& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.n_servers(), want.n_servers());
  ASSERT_EQ(got.dim(), want.dim());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.window_index(i), want.window_index(i)) << i;
    EXPECT_EQ(got.label(i), want.label(i)) << i;
    EXPECT_EQ(got.degradation(i), want.degradation(i)) << i;
    const double* g = got.row(i);
    const double* w = want.row(i);
    for (std::size_t j = 0; j < want.width(); ++j) EXPECT_EQ(g[j], w[j]) << i << "," << j;
  }
}

TEST(ShardedDataset, ShardOpenMaterializeRoundTrips) {
  const Dataset ds = synthetic_dataset(23);
  // 23 rows / 7 per shard -> shards of 7,7,7,2: exercises the remainder.
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "rt", ds, 7);
  const ShardedDataset sharded = ShardedDataset::open(manifest);
  EXPECT_EQ(sharded.n_shards(), 4u);
  EXPECT_TRUE(sharded.zero_copy());
  expect_same_rows(sharded, ds);
  EXPECT_EQ(serialize(sharded.materialize()), serialize(ds));
}

TEST(ShardedDataset, ShardingIsDeterministic) {
  const Dataset ds = synthetic_dataset(11);
  const std::string m1 = write_sharded_dataset(testing::TempDir() + "det_a", ds, 4);
  const std::string m2 = write_sharded_dataset(testing::TempDir() + "det_b", ds, 4);
  const Manifest a = read_manifest_file(m1);
  const Manifest b = read_manifest_file(m2);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  const std::string dir1 = m1.substr(0, m1.rfind('/') + 1);
  const std::string dir2 = m2.substr(0, m2.rfind('/') + 1);
  for (std::size_t k = 0; k < a.shards.size(); ++k) {
    EXPECT_EQ(a.shards[k].rows, b.shards[k].rows);
    // Same rows, same bytes — shard order IS row order.
    EXPECT_EQ(slurp_file(dir1 + a.shards[k].file), slurp_file(dir2 + b.shards[k].file));
  }
}

TEST(ShardedDataset, CompressedShardsServeIdenticalRows) {
  // Constant-heavy columns so qlz actually wins (the writer falls back to
  // raw — and thus zero-copy — when compression would not shrink a block).
  Dataset ds(2, 5);
  for (int i = 0; i < 20; ++i) {
    double* f = ds.append_row(i, i % 2, 2.0);
    for (std::size_t j = 0; j < ds.width(); ++j) f[j] = static_cast<double>(i % 3);
  }
  QdsWriteOptions opts;
  opts.codec = QdsCodec::kQlz;
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "comp", ds, 6, opts);
  const ShardedDataset sharded = ShardedDataset::open(manifest);
  EXPECT_FALSE(sharded.zero_copy());  // compressed blocks are materialized
  expect_same_rows(sharded, ds);
}

TEST(ShardedDataset, TinyMemoryBudgetStillServesEveryRow) {
  // A 4 KiB budget forces drop_pages() every few rows; the data must
  // survive because dropped pages re-fault from the file.
  const Dataset ds = synthetic_dataset(40);
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "budget", ds, 8);
  const ShardedDataset sharded = ShardedDataset::open(manifest, 4096);
  expect_same_rows(sharded, ds);
  expect_same_rows(sharded, ds);  // second sweep: after the drops
}

TEST(SubsetRows, ComposesWithSplitRows) {
  const Dataset ds = synthetic_dataset(30);
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "subset", ds, 9);
  const ShardedDataset sharded = ShardedDataset::open(manifest);
  auto [train_idx, test_idx] = ml::split_rows(ds.size(), 0.2, 17);
  const SubsetRows train(sharded, train_idx);
  const SubsetRows test(sharded, test_idx);
  EXPECT_EQ(train.size() + test.size(), ds.size());
  // Same membership as the in-RAM split at the same seed.
  auto [train_view, test_view] = ml::split_dataset(ds, 0.2, 17);
  ASSERT_EQ(train.size(), train_view.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(train.window_index(i), train_view.window_index(i)) << i;
    EXPECT_EQ(train.label(i), train_view.label(i)) << i;
  }
  ASSERT_EQ(test.size(), test_view.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(test.window_index(i), test_view.window_index(i)) << i;
  }
}

/// Fits a TrainingServer on `rows` (streaming) or `ds` (in-RAM when rows
/// is null) and returns the bytes of its .qifm model file.
std::string fit_bundle(const Dataset& ds, const RowAccess* rows, int jobs) {
  core::TrainingServerConfig cfg;
  cfg.train.max_epochs = 6;
  cfg.train.jobs = jobs;
  core::TrainingServer server(cfg);
  if (rows != nullptr) {
    (void)server.fit_rows(*rows);
  } else {
    (void)server.fit(ds);
  }
  std::ostringstream os;
  server.save(os);
  return os.str();
}

TEST(ChunkedTraining, ShardedModelBytesMatchInRam) {
  const Dataset ds = synthetic_dataset(48);
  const std::string baseline = fit_bundle(ds, nullptr, 1);
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "train", ds, 10);
  const ShardedDataset sharded = ShardedDataset::open(manifest);
  EXPECT_EQ(fit_bundle(ds, &sharded, 1), baseline);
  // A starved page budget changes I/O, never math.
  const ShardedDataset capped = ShardedDataset::open(manifest, 4096);
  EXPECT_EQ(fit_bundle(ds, &capped, 1), baseline);
}

TEST(ChunkedTraining, ThreadFanOutOverShardsIsBitIdentical) {
  // jobs=2 runs the training GEMMs on a pool while batches stream out of
  // the mmap'ed shards; under TSan this doubles as a race check on the
  // shard access path.
  const Dataset ds = synthetic_dataset(48);
  const std::string baseline = fit_bundle(ds, nullptr, 1);
  const std::string manifest =
      write_sharded_dataset(testing::TempDir() + "train_mt", ds, 10);
  const ShardedDataset sharded = ShardedDataset::open(manifest);
  EXPECT_EQ(fit_bundle(ds, &sharded, 2), baseline);
}

TEST(ChunkedTraining, MmapZeroCopyModelBytesMatchInRam) {
  const Dataset ds = synthetic_dataset(48);
  const std::string baseline = fit_bundle(ds, nullptr, 1);
  const std::string path = testing::TempDir() + "train_mmap.qds";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    write_dataset_qds(out, ds);
  }
  const MappedDataset mapped = map_dataset_qds(path);
  ASSERT_TRUE(mapped.zero_copy);
  EXPECT_EQ(fit_bundle(mapped.table, nullptr, 1), baseline);
}

TEST(Manifest, WriterReaderRoundTripAndRejectsPathEscapes) {
  Manifest m;
  m.n_servers = 2;
  m.dim = 5;
  m.rows = 9;
  m.shards = {{4, "a.000.qds", 0x0123456789abcdefull}, {5, "a.001.qds", 0xdeadbeef00c0ffeeull}};
  std::ostringstream os;
  write_manifest(os, m);
  std::istringstream is(os.str());
  const Manifest back = read_manifest(is);
  EXPECT_EQ(back.n_servers, 2);
  EXPECT_EQ(back.dim, 5);
  EXPECT_EQ(back.rows, 9u);
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.shards[1].file, "a.001.qds");
  EXPECT_EQ(back.shards[0].checksum, 0x0123456789abcdefull);
  EXPECT_EQ(back.shards[1].checksum, 0xdeadbeef00c0ffeeull);

  for (const char* hostile : {"/etc/passwd", "../up.qds", "a/../../up.qds"}) {
    std::istringstream bad("qif.qdm 1\nshape 2 5 9\nshard 9 0000000000000000 " +
                           std::string(hostile) + "\nend\n");
    EXPECT_THROW((void)read_manifest(bad), std::runtime_error) << hostile;
  }
  // The checksum field is exactly 16 lowercase hex digits — anything else
  // (uppercase aliasing, short, or non-hex) is malformed, not coerced.
  for (const char* hex : {"0123456789ABCDEF", "123", "0123456789abcdeg", ""}) {
    std::istringstream bad("qif.qdm 1\nshape 2 5 9\nshard 9 " + std::string(hex) +
                           " a.qds\nend\n");
    EXPECT_THROW((void)read_manifest(bad), std::runtime_error) << hex;
  }
}

}  // namespace
}  // namespace qif::monitor
