// ModelRegistry and the binary .qifm format: roundtrip fidelity for both
// network kinds, version selection, warm fallback on corrupt candidates,
// and the same hostile-input discipline as the .qds fuzz suite — every
// strict truncation and every single-bit flip of a valid image must be
// rejected by a thrown error, never a crash or a silent wrong model, and
// hostile headers must be refused before any size-driven allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "qif/serve/batcher.hpp"
#include "qif/serve/registry.hpp"
#include "qif/sim/rng.hpp"

namespace qif::serve {
namespace {

constexpr int kD = 3;
constexpr int kS = 2;
constexpr std::size_t kFeat = kD * kS;

ServingModel tiny_kernel_model(std::uint64_t seed) {
  ServingModel m;
  m.kind = ServingModel::Kind::kKernel;
  ml::KernelNetConfig cfg;
  cfg.per_server_dim = kD;
  cfg.n_servers = kS;
  cfg.n_classes = 2;
  cfg.kernel_hidden = {4};
  cfg.head_hidden = {3};
  cfg.seed = seed;
  m.kernel = ml::KernelNet(cfg);
  std::vector<double> mean(kD), inv_std(kD);
  sim::Rng rng(seed + 1);
  for (int i = 0; i < kD; ++i) {
    mean[i] = rng.normal(0, 1);
    inv_std[i] = rng.uniform(0.5, 2.0);
  }
  m.stdz = ml::Standardizer::from_moments(std::move(mean), std::move(inv_std));
  m.n_classes = 2;
  return m;
}

ServingModel tiny_attention_model(std::uint64_t seed) {
  ServingModel m;
  m.kind = ServingModel::Kind::kAttention;
  ml::AttentionNetConfig cfg;
  cfg.per_server_dim = kD;
  cfg.n_servers = kS;
  cfg.n_classes = 2;
  cfg.embed_dim = 4;
  cfg.attention_dim = 3;
  cfg.head_hidden = {3};
  cfg.seed = seed;
  m.attention = ml::AttentionNet(cfg);
  m.stdz = ml::Standardizer::from_moments(std::vector<double>(kD, 0.0),
                                          std::vector<double>(kD, 1.0));
  m.n_classes = 2;
  return m;
}

std::string serialize(const ServingModel& m) {
  std::stringstream ss;
  save_model(m, ss);
  return ss.str();
}

/// Byte-exact prediction comparison between two bundles on a probe batch.
void expect_same_predictions(const ServingModel& a, const ServingModel& b) {
  sim::Rng rng(99);
  std::vector<double> features(kFeat);
  for (auto& v : features) v = rng.uniform(-1.5, 1.5);
  PredictScratch sa, sb;
  Request ra, rb;
  ra.features = rb.features = features.data();
  ra.n_features = rb.n_features = kFeat;
  Request* pa = &ra;
  Request* pb = &rb;
  predict_batch(a, &pa, 1, sa);
  predict_batch(b, &pb, 1, sb);
  EXPECT_EQ(ra.predicted_class, rb.predicted_class);
  ASSERT_EQ(ra.probabilities.size(), rb.probabilities.size());
  EXPECT_EQ(std::memcmp(ra.probabilities.data(), rb.probabilities.data(),
                        ra.probabilities.size() * sizeof(double)),
            0);
  ASSERT_EQ(ra.server_scores.size(), rb.server_scores.size());
  EXPECT_EQ(std::memcmp(ra.server_scores.data(), rb.server_scores.data(),
                        ra.server_scores.size() * sizeof(double)),
            0);
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/qif_registry_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ModelFormat, KernelRoundtripIsExact) {
  const ServingModel m = tiny_kernel_model(7);
  std::stringstream ss(serialize(m));
  const ServingModel back = load_model(ss);
  EXPECT_EQ(back.kind, ServingModel::Kind::kKernel);
  EXPECT_EQ(back.n_classes, 2);
  EXPECT_EQ(back.per_server_dim(), kD);
  EXPECT_EQ(back.n_servers(), kS);
  EXPECT_EQ(back.kernel.snapshot(), m.kernel.snapshot());
  EXPECT_EQ(back.stdz.mean(), m.stdz.mean());
  EXPECT_EQ(back.stdz.inv_std(), m.stdz.inv_std());
  expect_same_predictions(m, back);
}

TEST(ModelFormat, AttentionRoundtripIsExact) {
  const ServingModel m = tiny_attention_model(8);
  std::stringstream ss(serialize(m));
  const ServingModel back = load_model(ss);
  EXPECT_EQ(back.kind, ServingModel::Kind::kAttention);
  EXPECT_EQ(back.attention.snapshot(), m.attention.snapshot());
  expect_same_predictions(m, back);
}

TEST(ModelFormat, EveryTruncationIsRejected) {
  const std::string image = serialize(tiny_kernel_model(3));
  ASSERT_GT(image.size(), 100u);
  for (std::size_t len = 0; len < image.size(); ++len) {
    std::stringstream ss(image.substr(0, len));
    EXPECT_THROW(load_model(ss), std::runtime_error) << "prefix length " << len;
  }
}

TEST(ModelFormat, EverySingleBitFlipIsRejected) {
  const std::string image = serialize(tiny_kernel_model(4));
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = image;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::stringstream ss(corrupt);
      EXPECT_THROW(load_model(ss), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(ModelFormat, HostileHeaderSizesAreRefusedBeforeAllocation) {
  // A forged header claiming absurd widths must be rejected by the bounds
  // checks, not by an attempted multi-gigabyte allocation.
  auto forge = [](std::uint32_t n_classes, std::uint32_t dim, std::uint32_t servers,
                  std::uint32_t n_hidden) {
    std::string img = "QIFM";
    auto put32 = [&img](std::uint32_t v) {
      img.append(reinterpret_cast<const char*>(&v), 4);
    };
    put32(1);  // format version
    put32(0);  // kind = kernel
    put32(n_classes);
    put32(dim);
    put32(servers);
    put32(n_hidden);
    // Deliberately no payload: the size fields alone must trip the guard.
    return img;
  };
  const std::uint32_t kHuge = 0x7fffffff;
  for (const std::string& img :
       {forge(kHuge, 3, 2, 1), forge(2, kHuge, 2, 1), forge(2, 3, kHuge, 1),
        forge(2, 3, 2, kHuge)}) {
    std::stringstream ss(img);
    EXPECT_THROW(load_model(ss), std::runtime_error);
  }
  std::stringstream not_qifm("QXFM garbage");
  EXPECT_THROW(load_model(not_qifm), std::runtime_error);
}

TEST(ModelRegistry, PublishAssignsAscendingVersionsAndRefreshPicksHighest) {
  const std::string dir = fresh_dir("publish");
  ModelRegistry registry(dir, kD);
  EXPECT_EQ(registry.refresh(), 0u);
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.publish(tiny_kernel_model(1)), 1u);
  EXPECT_EQ(registry.publish(tiny_kernel_model(2)), 2u);
  EXPECT_EQ(registry.list_versions(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(registry.refresh(), 2u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 2u);
  // The published v2 image must load back equal to what was published.
  expect_same_predictions(tiny_kernel_model(2), *registry.current());
}

TEST(ModelRegistry, CorruptNewestFallsBackToNextValidVersion) {
  const std::string dir = fresh_dir("fallback");
  ModelRegistry registry(dir, kD);
  registry.publish(tiny_kernel_model(5));
  {
    std::ofstream bad(dir + "/v2.qifm", std::ios::binary);
    bad << "QIFM this is not a model";
  }
  EXPECT_EQ(registry.refresh(), 1u) << "corrupt v2 must fall back to v1";
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->version, 1u);
}

TEST(ModelRegistry, RefreshKeepsWarmModelWhenEverythingOnDiskIsBad) {
  const std::string dir = fresh_dir("warm");
  ModelRegistry registry(dir, kD);
  registry.publish(tiny_kernel_model(6));
  ASSERT_EQ(registry.refresh(), 1u);
  const auto warm = registry.current();
  // Truncate the only image on disk: refresh must fail to load it but
  // keep the previously live model serving.
  std::filesystem::resize_file(dir + "/v1.qifm", 10);
  EXPECT_EQ(registry.refresh(), 1u);
  EXPECT_EQ(registry.current(), warm);
}

TEST(ModelRegistry, SchemaWidthMismatchIsSkippedOnRefresh) {
  const std::string dir = fresh_dir("schema");
  {
    ModelRegistry writer(dir);  // no schema check on the writing side
    writer.publish(tiny_kernel_model(9));
  }
  ModelRegistry registry(dir, kD + 1);  // serving schema is wider
  EXPECT_EQ(registry.refresh(), 0u) << "width-incompatible model must not go live";
  EXPECT_EQ(registry.current(), nullptr);
}

TEST(ServingModel, ValidateFeatureWidthNamesBothWidths) {
  const ServingModel m = tiny_kernel_model(10);
  EXPECT_NO_THROW(m.validate_feature_width(kD));
  EXPECT_NO_THROW(m.validate_feature_width(0));  // 0 disables the check
  try {
    m.validate_feature_width(kD + 37);
    FAIL() << "width mismatch must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(kD)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kD + 37)), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace qif::serve
