// Tests for the standard dataset campaigns: shapes, class-balance
// character, richness scaling, and CSV interop.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "qif/core/datasets.hpp"
#include "qif/monitor/export.hpp"

namespace qif::core {
namespace {

DatasetOptions cheap() {
  DatasetOptions o;
  o.richness = 0.5;
  return o;
}

TEST(Datasets, Io500SkewsPositive) {
  const monitor::Dataset ds = build_io500_dataset(cheap());
  ASSERT_GT(ds.size(), 100u);
  EXPECT_EQ(ds.n_servers(), 7);
  EXPECT_EQ(ds.dim(), monitor::MetricSchema::kPerServerDim);
  const auto hist = ds.class_histogram();
  ASSERT_EQ(hist.size(), 2u);
  // Like the paper's 8,647 vs 2,991: interference windows dominate.
  EXPECT_GT(hist[1], hist[0]);
}

TEST(Datasets, RichnessMustBePositiveAndFinite) {
  for (const double richness : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    DatasetOptions o;
    o.richness = richness;
    EXPECT_THROW((void)build_io500_dataset(o), std::invalid_argument) << richness;
    EXPECT_THROW((void)build_dlio_dataset(o), std::invalid_argument) << richness;
    EXPECT_THROW((void)build_app_dataset("amrex", o), std::invalid_argument) << richness;
  }
}

TEST(Datasets, DlioSkewsNegative) {
  const monitor::Dataset ds = build_dlio_dataset(cheap());
  ASSERT_GT(ds.size(), 50u);
  const auto hist = ds.class_histogram();
  ASSERT_EQ(hist.size(), 2u);
  // Like the paper's 3,702 vs 14,724: quiet windows dominate.
  EXPECT_GT(hist[0], hist[1]);
}

TEST(Datasets, MulticlassThresholdsProduceThreeBins) {
  DatasetOptions o = cheap();
  o.bin_thresholds = {2.0, 5.0};
  const monitor::Dataset ds = build_io500_dataset(o);
  const auto hist = ds.class_histogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_GT(hist[0], 0u);
  EXPECT_GT(hist[1], 0u);
  EXPECT_GT(hist[2], 0u);
}

TEST(Datasets, OpenPmdYieldsFewSamples) {
  // The Figure 5 handicap must be structural, not accidental.
  const monitor::Dataset openpmd = build_app_dataset("openpmd", cheap());
  const monitor::Dataset enzo = build_app_dataset("enzo", cheap());
  EXPECT_LT(openpmd.size() * 4, enzo.size());
}

TEST(Datasets, RichnessScalesWindowCount) {
  DatasetOptions lean = cheap();
  DatasetOptions rich = cheap();
  rich.richness = 1.5;
  const auto a = build_app_dataset("amrex", lean);
  const auto b = build_app_dataset("amrex", rich);
  EXPECT_GT(b.size(), a.size());
}

TEST(Datasets, DeterministicPerSeed) {
  const auto a = build_app_dataset("amrex", cheap());
  const auto b = build_app_dataset("amrex", cheap());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_DOUBLE_EQ(a.degradation(i), b.degradation(i));
  }
}

TEST(Datasets, SurvivesCsvRoundTrip) {
  const monitor::Dataset ds = build_app_dataset("amrex", cheap());
  std::stringstream ss;
  monitor::write_dataset_csv(ss, ds);
  const monitor::Dataset loaded = monitor::read_dataset_csv(ss);
  ASSERT_EQ(loaded.size(), ds.size());
  EXPECT_EQ(loaded.n_servers(), ds.n_servers());
  EXPECT_EQ(loaded.dim(), ds.dim());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded.label(i), ds.label(i));
  }
}

TEST(Datasets, CsvAndQdsAgreeOnCampaignData) {
  // The interop (CSV) and native (.qds) paths must describe the same
  // dataset: every column equal, CSV features equal after the text
  // round-trip's %.17g formatting (which is exact for doubles).
  const monitor::Dataset ds = build_app_dataset("amrex", cheap());
  std::stringstream csv, qds;
  monitor::write_dataset_csv(csv, ds);
  monitor::write_dataset_qds(qds, ds);
  const monitor::Dataset from_csv = monitor::read_dataset_csv(csv);
  const monitor::Dataset from_qds = monitor::read_dataset_qds(qds);
  ASSERT_EQ(from_csv.size(), ds.size());
  ASSERT_EQ(from_qds.size(), ds.size());
  ASSERT_EQ(from_csv.width(), from_qds.width());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(from_csv.window_index(i), from_qds.window_index(i));
    EXPECT_EQ(from_csv.label(i), from_qds.label(i));
    EXPECT_DOUBLE_EQ(from_csv.degradation(i), from_qds.degradation(i));
    for (std::size_t f = 0; f < ds.width(); ++f) {
      ASSERT_DOUBLE_EQ(from_csv.row(i)[f], from_qds.row(i)[f])
          << "row " << i << " col " << f;
    }
  }
  // And the binary path is the bit-exact one: its feature block matches
  // the in-memory table directly.
  EXPECT_EQ(from_qds.feature_block(), ds.feature_block());
}


}  // namespace
}  // namespace qif::core
