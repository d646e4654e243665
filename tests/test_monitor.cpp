// Tests for the client-side and server-side monitors, the metric schema,
// and per-server feature assembly.
#include <gtest/gtest.h>

#include <stdexcept>

#include "qif/monitor/client_monitor.hpp"
#include "qif/monitor/features.hpp"
#include "qif/monitor/schema.hpp"
#include "qif/monitor/server_monitor.hpp"
#include "qif/pfs/cluster.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::monitor {
namespace {

trace::OpRecord data_op(pfs::OpType type, std::int64_t bytes, sim::SimTime start,
                        sim::SimDuration dur, trace::TargetList targets,
                        std::int32_t job = 0) {
  trace::OpRecord r;
  r.job = job;
  r.rank = 0;
  r.type = type;
  r.bytes = bytes;
  r.start = start;
  r.end = start + dur;
  r.targets = std::move(targets);
  return r;
}

TEST(MetricSchema, DimensionsAndLayout) {
  MetricSchema schema;
  EXPECT_EQ(schema.dim(), 37);
  EXPECT_EQ(MetricSchema::kClientFeatures, 10);
  EXPECT_EQ(MetricSchema::kServerFeatures, 27);
  EXPECT_EQ(static_cast<int>(schema.features().size()), schema.dim());
  // First block is client, rest is server-side.
  for (int i = 0; i < MetricSchema::kClientFeatures; ++i) {
    EXPECT_EQ(schema.at(i).group, FeatureGroup::kClient);
  }
  EXPECT_EQ(schema.at(10).group, FeatureGroup::kIoSpeed);
}

TEST(MetricSchema, GroupIndicesPartitionTheVector) {
  MetricSchema schema;
  std::size_t total = 0;
  for (const auto g : {FeatureGroup::kClient, FeatureGroup::kIoSpeed,
                       FeatureGroup::kDevice, FeatureGroup::kQueue}) {
    total += schema.group_indices(g).size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(schema.dim()));
}

TEST(MetricSchema, NamesAreUnique) {
  MetricSchema schema;
  std::set<std::string> names;
  for (const auto& f : schema.features()) names.insert(f.name);
  EXPECT_EQ(names.size(), static_cast<std::size_t>(schema.dim()));
}

TEST(MetricSchema, FaultVariantAppendsClientFaultBlock) {
  const MetricSchema healthy;
  const MetricSchema faulted(/*with_fault_features=*/true);
  EXPECT_FALSE(healthy.with_fault_features());
  EXPECT_TRUE(faulted.with_fault_features());
  EXPECT_EQ(healthy.dim(), MetricSchema::kPerServerDim);
  EXPECT_EQ(faulted.dim(), MetricSchema::kPerServerDimFaults);
  EXPECT_EQ(faulted.dim(), healthy.dim() + MetricSchema::kFaultFeatures);
  // The fault block sits right after the 10 client features and belongs to
  // the client group; the server block follows unchanged.
  EXPECT_EQ(faulted.at(MetricSchema::kClientFeatures).name, "cli_retries");
  EXPECT_EQ(faulted.at(MetricSchema::kClientFeatures + 1).name, "cli_timeouts");
  EXPECT_EQ(faulted.at(MetricSchema::kClientFeatures + 2).name, "cli_failed_ops");
  for (int k = 0; k < MetricSchema::kFaultFeatures; ++k) {
    EXPECT_EQ(faulted.at(MetricSchema::kClientFeatures + k).group, FeatureGroup::kClient);
  }
  EXPECT_EQ(faulted.at(MetricSchema::kClientFeatures + 3).group, FeatureGroup::kIoSpeed);
  // The first 10 names are identical, and the layout hashes differ so a
  // 40-wide .qds can never be misread as a 37-wide one.
  for (int i = 0; i < MetricSchema::kClientFeatures; ++i) {
    EXPECT_EQ(healthy.at(i).name, faulted.at(i).name);
  }
  EXPECT_NE(healthy.layout_hash(), faulted.layout_hash());
}

TEST(ClientMonitor, AggregatesPerWindowAndServer) {
  ClientMonitor mon(/*job=*/0, sim::kSecond, /*n_servers=*/3, /*mdt=*/2);
  mon.observe(data_op(pfs::OpType::kRead, 1 << 20, 0, 10 * sim::kMillisecond, {0}));
  mon.observe(data_op(pfs::OpType::kWrite, 2 << 20, sim::kMillisecond,
                      20 * sim::kMillisecond, {0, 1}));
  mon.observe(data_op(pfs::OpType::kStat, 0, 2 * sim::kMillisecond, sim::kMillisecond,
                      {trace::kMdtTarget}));
  const ClientWindow* c0 = mon.cell(0, 0);
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->n_read, 1);
  EXPECT_EQ(c0->n_write, 1);
  EXPECT_EQ(c0->bytes_read, 1 << 20);
  EXPECT_EQ(c0->bytes_write, 1 << 20);  // split across two targets
  EXPECT_NEAR(c0->io_time_s, 0.030, 1e-9);
  const ClientWindow* c1 = mon.cell(0, 1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->n_write, 1);
  const ClientWindow* mdt = mon.cell(0, 2);
  ASSERT_NE(mdt, nullptr);
  EXPECT_EQ(mdt->n_meta, 1);
  EXPECT_EQ(mon.ops_observed(), 3);
}

TEST(ClientMonitor, BucketsByStartTime) {
  ClientMonitor mon(0, sim::kSecond, 2, 1);
  mon.observe(data_op(pfs::OpType::kRead, 1, 2 * sim::kSecond + 1, 10, {0}));
  EXPECT_EQ(mon.cell(0, 0), nullptr);
  ASSERT_NE(mon.cell(2, 0), nullptr);
  EXPECT_EQ(mon.window_indices(), (std::vector<std::int64_t>{2}));
}

TEST(ClientMonitor, IgnoresOtherJobs) {
  ClientMonitor mon(0, sim::kSecond, 2, 1);
  mon.observe(data_op(pfs::OpType::kRead, 1, 0, 10, {0}, /*job=*/3));
  EXPECT_EQ(mon.ops_observed(), 0);
  EXPECT_EQ(mon.cell(0, 0), nullptr);
}

TEST(ClientMonitor, FillFeaturesDerivedMetrics) {
  ClientMonitor mon(0, sim::kSecond, 2, 1);
  mon.observe(data_op(pfs::OpType::kRead, 10 << 20, 0, 100 * sim::kMillisecond, {0}));
  double f[MetricSchema::kClientFeatures];
  mon.fill_features(0, 0, f);
  EXPECT_DOUBLE_EQ(f[0], 1.0);                       // n_read
  EXPECT_DOUBLE_EQ(f[4], 10 << 20);                  // bytes_read
  EXPECT_NEAR(f[7], 0.1, 1e-9);                      // io time
  EXPECT_NEAR(f[8], (10 << 20) / 0.1, 1.0);          // throughput
  EXPECT_DOUBLE_EQ(f[9], 1.0);                       // IOPS over a 1 s window
}

TEST(ClientMonitor, FillFeaturesZeroForUnknownWindow) {
  ClientMonitor mon(0, sim::kSecond, 2, 1);
  double f[MetricSchema::kClientFeatures];
  mon.fill_features(99, 0, f);
  for (const double v : f) EXPECT_EQ(v, 0.0);
}

struct ServerMonitorFixture : ::testing::Test {
  sim::Simulation s;
  pfs::ClusterConfig cfg;
  std::unique_ptr<pfs::Cluster> cluster;
  void SetUp() override {
    cfg.seed = 21;
    cluster = std::make_unique<pfs::Cluster>(s, cfg);
  }
};

TEST_F(ServerMonitorFixture, SamplesPerSecondDeltas) {
  ServerMonitor mon(*cluster, 2 * sim::kSecond);
  mon.start();
  // Generate disk traffic on OST 0 during the first second only.
  cluster->ost(0).read(0, 1 << 20, nullptr);
  s.run_until(4 * sim::kSecond);
  const ServerWindow* w0 = mon.window_data(0, 0);
  ASSERT_NE(w0, nullptr);
  // completed_reads (metric 0) summed over the window's 2 seconds == 1.
  EXPECT_DOUBLE_EQ(w0->metrics[0].sum(), 1.0);
  EXPECT_DOUBLE_EQ(w0->metrics[0].mean(), 0.5);
  // sectors_read (metric 2).
  EXPECT_DOUBLE_EQ(w0->metrics[2].sum(), (1 << 20) / 512.0);
  // Window 1 saw no traffic.
  const ServerWindow* w1 = mon.window_data(1, 0);
  ASSERT_NE(w1, nullptr);
  EXPECT_DOUBLE_EQ(w1->metrics[0].sum(), 0.0);
}

TEST_F(ServerMonitorFixture, FillFeaturesSumMeanStd) {
  ServerMonitor mon(*cluster, 2 * sim::kSecond);
  mon.start();
  cluster->ost(1).read(0, 2 << 20, nullptr);
  s.run_until(2 * sim::kSecond);
  double f[MetricSchema::kServerFeatures];
  mon.fill_features(0, 1, f);
  // Metric 0 = completed reads: sum 1, mean 0.5, std 0.5 over {1, 0}.
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 0.5);
  EXPECT_NEAR(f[2], 0.5, 1e-9);
}

TEST_F(ServerMonitorFixture, UnknownWindowYieldsZeros) {
  ServerMonitor mon(*cluster, sim::kSecond);
  double f[MetricSchema::kServerFeatures];
  mon.fill_features(7, 0, f);
  for (const double v : f) EXPECT_EQ(v, 0.0);
}

TEST_F(ServerMonitorFixture, AssemblerCombinesClientAndServerBlocks) {
  ClientMonitor cmon(0, sim::kSecond, cluster->n_servers(), cluster->mdt_server_index());
  ServerMonitor smon(*cluster, sim::kSecond);
  smon.start();
  cluster->trace_log().set_observer([&](const trace::OpRecord& r) { cmon.observe(r); });
  pfs::PfsClient& client = cluster->make_client(0, 0, 0);
  client.create("/x", 1, [&](pfs::FileHandle fh) {
    client.read(fh, 0, 1 << 20, [] {});
  });
  s.run_until(sim::kSecond);
  FeatureAssembler assembler(cmon, smon, cluster->n_servers());
  const auto features = assembler.window_features(0);
  ASSERT_EQ(features.size(),
            static_cast<std::size_t>(cluster->n_servers()) * MetricSchema::kPerServerDim);
  // Some server's client block must carry the read; the MDT block the create.
  double total_reads = 0.0, total_meta = 0.0;
  for (int srv = 0; srv < cluster->n_servers(); ++srv) {
    total_reads += features[srv * MetricSchema::kPerServerDim + 0];
    total_meta += features[srv * MetricSchema::kPerServerDim + 2];
  }
  EXPECT_DOUBLE_EQ(total_reads, 1.0);
  EXPECT_GE(total_meta, 1.0);
}

TEST(Dataset, HistogramAndAppend) {
  Dataset a(2, 3);
  double* f0 = a.append_row(0, 0, 1.0);
  for (int j = 0; j < 6; ++j) f0[j] = 1.0 + j;
  for (int i = 1; i < 3; ++i) {
    double* f = a.append_row(i, 2, 1.0);
    for (int j = 0; j < 6; ++j) f[j] = 1.0 + j;
  }
  const auto hist = a.class_histogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 0u);
  EXPECT_EQ(hist[2], 2u);

  Dataset b;
  b.append(a);
  EXPECT_EQ(b.n_servers(), 2);
  EXPECT_EQ(b.size(), 3u);
  b.append(a);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_DOUBLE_EQ(b.row(5)[5], 6.0);
}

TEST(Dataset, AppendShapeMismatchThrows) {
  Dataset a(2, 3);
  a.append_row(0, 0, 1.0);
  Dataset wrong(3, 3);
  wrong.append_row(0, 0, 1.0);
  EXPECT_THROW(a.append(wrong), std::invalid_argument);
  Dataset wrong_dim(2, 4);
  wrong_dim.append_row(0, 0, 1.0);
  EXPECT_THROW(a.append(wrong_dim), std::invalid_argument);
  // Appending an empty, shapeless table is a no-op, not an error.
  const Dataset empty;
  a.append(empty);
  EXPECT_EQ(a.size(), 1u);
}

}  // namespace
}  // namespace qif::monitor
