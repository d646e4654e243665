// Versioned model registry for the serving layer.
//
// A ServingModel is an immutable bundle: a trained network (the paper's
// kernel net, or the attention-pooling variant), the standardizer fitted
// alongside it, and the class count.  The registry keeps the live bundle
// behind a shared_ptr that hot-swaps atomically: a batch acquires the
// pointer once, so an in-flight batch finishes on the model it started
// with and a swap is never torn — requests in one batch all carry the
// same model version by construction (pinned by the hot-swap tests).
//
// On-disk format: the binary, checksummed .qifm image (save_model /
// load_model below) is the only model file — `qif train` writes it and
// the registry stores it as v<N>.qifm.  Truncation, bit flips, and
// hostile headers are rejected before any size-driven allocation (same
// discipline as the .qds fuzz suite).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qif/ml/attention_net.hpp"
#include "qif/ml/kernel_net.hpp"
#include "qif/ml/preprocess.hpp"

namespace qif::serve {

/// Immutable trained-model bundle.  `kind` selects which network is live;
/// the other stays default-constructed (empty).
struct ServingModel {
  enum class Kind : std::uint8_t { kKernel = 0, kAttention = 1 };

  Kind kind = Kind::kKernel;
  ml::KernelNet kernel;
  ml::AttentionNet attention;
  ml::Standardizer stdz;
  int n_classes = 2;
  std::uint64_t version = 0;  ///< registry version (0 = unpublished)

  /// Flattened feature width one request must carry (S * D).
  [[nodiscard]] std::size_t feature_dim() const;
  /// Width of one per-server vector (D) — the schema-compatibility axis.
  [[nodiscard]] int per_server_dim() const;
  [[nodiscard]] int n_servers() const;

  /// Throws std::runtime_error naming both widths when the model's
  /// per-server feature width disagrees with the serving schema's.
  void validate_feature_width(int schema_dim) const;
};

/// Writes the binary .qifm image (header, dims, weights, standardizer
/// moments, FNV-1a trailer).
void save_model(const ServingModel& model, std::ostream& os);

/// Parses a binary .qifm image.  Throws std::runtime_error on truncation,
/// checksum mismatch, or a hostile header (every size field is bounded
/// before it drives an allocation).
[[nodiscard]] ServingModel load_model(std::istream& is);

/// Directory-backed registry of versioned models (v<N>.qifm) plus the
/// atomically swappable live bundle.
class ModelRegistry {
 public:
  /// `schema_dim` is the serving schema's per-server width; every loaded
  /// or installed model is validated against it (0 disables the check).
  explicit ModelRegistry(std::string dir, int schema_dim = 0);

  /// Serializes `model` as v<N+1>.qifm (N = highest version present) and
  /// returns the assigned version.  Does not install it.
  std::uint64_t publish(const ServingModel& model);

  /// Loads the highest-versioned valid model from the directory and
  /// installs it.  A corrupt, truncated, or schema-incompatible candidate
  /// is skipped (falling back to the next-highest version); if nothing
  /// valid is found the previously live model stays warm and serving —
  /// refresh never leaves the registry empty-handed when it was not.
  /// Returns the live version (0 if nothing is live).
  std::uint64_t refresh();

  /// Installs a bundle directly (hot swap).  In-flight holders of the old
  /// shared_ptr keep it alive until their batch completes.
  void install(std::shared_ptr<const ServingModel> model);

  /// The live bundle (nullptr before the first install/refresh).  The
  /// returned pointer is safe to hold across a swap.
  [[nodiscard]] std::shared_ptr<const ServingModel> current() const;

  /// Versions present on disk, ascending.
  [[nodiscard]] std::vector<std::uint64_t> list_versions() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  int schema_dim_ = 0;
  mutable std::mutex mutex_;  // guards live_ (shared_ptr copy in/out)
  std::shared_ptr<const ServingModel> live_;
};

}  // namespace qif::serve
