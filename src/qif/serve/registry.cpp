#include "qif/serve/registry.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace qif::serve {

namespace {

constexpr char kMagic[4] = {'Q', 'I', 'F', 'M'};
constexpr std::uint32_t kFormatVersion = 1;

// Hostile-header bounds: every size field is checked against these BEFORE
// it drives an allocation, so a corrupt or adversarial file cannot ask for
// gigabytes.  Generous for any real model (the paper's is ~10k params).
constexpr std::uint32_t kMaxDim = 65536;        // per-server width D
constexpr std::uint32_t kMaxServers = 4096;     // S
constexpr std::uint32_t kMaxClasses = 4096;     // C
constexpr std::uint32_t kMaxHiddenLayers = 64;  // layer-count fields
constexpr std::uint32_t kMaxHiddenWidth = 8192;
constexpr std::uint64_t kMaxParams = 1ull << 26;  // 64M doubles = 512 MB

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Byte-wise FNV-1a accumulated across every field as it is written or
/// read, so the trailer covers the whole image in stream order.
struct Fnv {
  std::uint64_t h = kFnvBasis;
  void update(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
};

struct Writer {
  std::ostream& os;
  Fnv fnv;
  void raw(const void* data, std::size_t n) {
    os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    fnv.update(data, n);
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64s(const double* v, std::size_t n) { raw(v, n * sizeof(double)); }
};

struct Reader {
  std::istream& is;
  Fnv fnv;
  void raw(void* data, std::size_t n, const char* what) {
    is.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is.gcount()) != n) {
      throw std::runtime_error(std::string("qifm: truncated ") + what);
    }
    fnv.update(data, n);
  }
  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    raw(&v, sizeof v, what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v = 0;
    raw(&v, sizeof v, what);
    return v;
  }
  void f64s(double* v, std::size_t n, const char* what) {
    raw(v, n * sizeof(double), what);
  }
};

std::uint32_t bounded(std::uint32_t v, std::uint32_t lo, std::uint32_t hi,
                      const char* what) {
  if (v < lo || v > hi) {
    throw std::runtime_error("qifm: " + std::string(what) + " " + std::to_string(v) +
                             " out of range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
  }
  return v;
}

/// Parameter count of a KernelNet with this shape, computed arithmetically
/// so a hostile header is rejected before any network is constructed.
std::uint64_t kernel_param_count(std::uint64_t d, std::uint64_t s, std::uint64_t c,
                                 const std::vector<int>& kernel_hidden,
                                 const std::vector<int>& head_hidden) {
  std::uint64_t n = 0;
  std::uint64_t in = d;
  for (const int h : kernel_hidden) {
    const auto hh = static_cast<std::uint64_t>(h);
    n += in * hh + hh;
    in = hh;
  }
  n += in + 1;  // final kernel layer: in -> 1
  in = s;
  for (const int h : head_hidden) {
    const auto hh = static_cast<std::uint64_t>(h);
    n += in * hh + hh;
    in = hh;
  }
  n += in * c + c;
  return n;
}

std::uint64_t attention_param_count(std::uint64_t d, std::uint64_t c, std::uint64_t e,
                                    std::uint64_t a,
                                    const std::vector<int>& head_hidden) {
  std::uint64_t n = d * e + e;  // embed
  n += e * a + a;               // attention hidden
  n += a + 1;                   // attention score: a -> 1
  std::uint64_t in = e;
  for (const int h : head_hidden) {
    const auto hh = static_cast<std::uint64_t>(h);
    n += in * hh + hh;
    in = hh;
  }
  n += in * c + c;
  return n;
}

std::vector<int> read_hidden(Reader& r, const char* what) {
  const std::uint32_t n = bounded(r.u32(what), 0, kMaxHiddenLayers, what);
  std::vector<int> hidden(n);
  for (auto& h : hidden) {
    h = static_cast<int>(bounded(r.u32(what), 1, kMaxHiddenWidth, what));
  }
  return hidden;
}

}  // namespace

std::size_t ServingModel::feature_dim() const {
  return static_cast<std::size_t>(per_server_dim()) *
         static_cast<std::size_t>(n_servers());
}

int ServingModel::per_server_dim() const {
  return kind == Kind::kKernel ? kernel.config().per_server_dim
                               : attention.config().per_server_dim;
}

int ServingModel::n_servers() const {
  return kind == Kind::kKernel ? kernel.config().n_servers
                               : attention.config().n_servers;
}

void ServingModel::validate_feature_width(int schema_dim) const {
  if (schema_dim != 0 && per_server_dim() != schema_dim) {
    throw std::runtime_error(
        "model/schema feature-width mismatch: model has " +
        std::to_string(per_server_dim()) + " features per server, serving schema has " +
        std::to_string(schema_dim));
  }
}

void save_model(const ServingModel& model, std::ostream& os) {
  Writer w{os};
  w.raw(kMagic, sizeof kMagic);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(model.kind));
  w.u32(static_cast<std::uint32_t>(model.n_classes));
  w.u32(static_cast<std::uint32_t>(model.per_server_dim()));
  w.u32(static_cast<std::uint32_t>(model.n_servers()));
  std::vector<double> params;
  if (model.kind == ServingModel::Kind::kKernel) {
    const auto& cfg = model.kernel.config();
    w.u32(static_cast<std::uint32_t>(cfg.kernel_hidden.size()));
    for (const int h : cfg.kernel_hidden) w.u32(static_cast<std::uint32_t>(h));
    w.u32(static_cast<std::uint32_t>(cfg.head_hidden.size()));
    for (const int h : cfg.head_hidden) w.u32(static_cast<std::uint32_t>(h));
    model.kernel.snapshot_into(params);
  } else {
    const auto& cfg = model.attention.config();
    w.u32(static_cast<std::uint32_t>(cfg.embed_dim));
    w.u32(static_cast<std::uint32_t>(cfg.attention_dim));
    w.u32(static_cast<std::uint32_t>(cfg.head_hidden.size()));
    for (const int h : cfg.head_hidden) w.u32(static_cast<std::uint32_t>(h));
    model.attention.snapshot_into(params);
  }
  w.u64(model.version);
  w.u64(params.size());
  w.f64s(params.data(), params.size());
  const auto& mean = model.stdz.mean();
  const auto& inv_std = model.stdz.inv_std();
  w.u64(mean.size());
  w.f64s(mean.data(), mean.size());
  w.f64s(inv_std.data(), inv_std.size());
  // Trailer: checksum over everything above (not itself).
  const std::uint64_t sum = w.fnv.h;
  os.write(reinterpret_cast<const char*>(&sum), sizeof sum);
  if (!os) throw std::runtime_error("qifm: write failed");
}

ServingModel load_model(std::istream& is) {
  Reader r{is};
  char magic[4] = {};
  r.raw(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("qifm: bad magic");
  }
  const std::uint32_t version = r.u32("format version");
  if (version != kFormatVersion) {
    throw std::runtime_error("qifm: unsupported format version " +
                             std::to_string(version));
  }
  const std::uint32_t kind_raw = bounded(r.u32("model kind"), 0, 1, "model kind");
  const auto kind = static_cast<ServingModel::Kind>(kind_raw);
  const std::uint32_t n_classes = bounded(r.u32("class count"), 1, kMaxClasses, "class count");
  const std::uint32_t dim = bounded(r.u32("per-server dim"), 1, kMaxDim, "per-server dim");
  const std::uint32_t servers = bounded(r.u32("server count"), 1, kMaxServers, "server count");

  ServingModel model;
  model.kind = kind;
  model.n_classes = static_cast<int>(n_classes);
  std::uint64_t expected_params = 0;
  ml::KernelNetConfig kcfg;
  ml::AttentionNetConfig acfg;
  if (kind == ServingModel::Kind::kKernel) {
    kcfg.per_server_dim = static_cast<int>(dim);
    kcfg.n_servers = static_cast<int>(servers);
    kcfg.n_classes = static_cast<int>(n_classes);
    kcfg.kernel_hidden = read_hidden(r, "kernel hidden sizes");
    kcfg.head_hidden = read_hidden(r, "head hidden sizes");
    expected_params = kernel_param_count(dim, servers, n_classes, kcfg.kernel_hidden,
                                         kcfg.head_hidden);
  } else {
    acfg.per_server_dim = static_cast<int>(dim);
    acfg.n_servers = static_cast<int>(servers);
    acfg.n_classes = static_cast<int>(n_classes);
    acfg.embed_dim =
        static_cast<int>(bounded(r.u32("embed dim"), 1, kMaxHiddenWidth, "embed dim"));
    acfg.attention_dim = static_cast<int>(
        bounded(r.u32("attention dim"), 1, kMaxHiddenWidth, "attention dim"));
    acfg.head_hidden = read_hidden(r, "head hidden sizes");
    expected_params = attention_param_count(
        dim, n_classes, static_cast<std::uint64_t>(acfg.embed_dim),
        static_cast<std::uint64_t>(acfg.attention_dim), acfg.head_hidden);
  }
  model.version = r.u64("model version");
  const std::uint64_t n_params = r.u64("parameter count");
  // The declared count must match the architecture exactly AND stay under
  // the absolute cap — both checked before the vector<double> allocation
  // and before any network is constructed.
  if (n_params != expected_params) {
    throw std::runtime_error("qifm: parameter count " + std::to_string(n_params) +
                             " does not match architecture (expected " +
                             std::to_string(expected_params) + ")");
  }
  if (n_params > kMaxParams) {
    throw std::runtime_error("qifm: parameter count " + std::to_string(n_params) +
                             " exceeds cap " + std::to_string(kMaxParams));
  }
  std::vector<double> params(n_params);
  r.f64s(params.data(), params.size(), "parameters");

  const std::uint64_t stdz_dim = r.u64("standardizer dim");
  if (stdz_dim != dim) {
    throw std::runtime_error("qifm: standardizer dim " + std::to_string(stdz_dim) +
                             " does not match per-server dim " + std::to_string(dim));
  }
  std::vector<double> mean(stdz_dim), inv_std(stdz_dim);
  r.f64s(mean.data(), mean.size(), "standardizer means");
  r.f64s(inv_std.data(), inv_std.size(), "standardizer scales");

  const std::uint64_t expected_sum = r.fnv.h;  // snapshot before the trailer read
  std::uint64_t sum = 0;
  is.read(reinterpret_cast<char*>(&sum), sizeof sum);
  if (static_cast<std::size_t>(is.gcount()) != sizeof sum) {
    throw std::runtime_error("qifm: truncated checksum");
  }
  if (sum != expected_sum) throw std::runtime_error("qifm: checksum mismatch");

  if (kind == ServingModel::Kind::kKernel) {
    model.kernel = ml::KernelNet(kcfg);
    model.kernel.restore(params);
  } else {
    model.attention = ml::AttentionNet(acfg);
    model.attention.restore(params);
  }
  model.stdz = ml::Standardizer::from_moments(std::move(mean), std::move(inv_std));
  return model;
}

ModelRegistry::ModelRegistry(std::string dir, int schema_dim)
    : dir_(std::move(dir)), schema_dim_(schema_dim) {}

std::vector<std::uint64_t> ModelRegistry::list_versions() const {
  std::vector<std::uint64_t> versions;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // v<N>.qifm, N decimal.
    if (name.size() < 7 || name.front() != 'v' ||
        name.compare(name.size() - 5, 5, ".qifm") != 0) {
      continue;
    }
    std::uint64_t v = 0;
    bool ok = name.size() > 6;
    for (std::size_t i = 1; i + 5 < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        ok = false;
        break;
      }
      v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
    }
    if (ok && v > 0) versions.push_back(v);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

std::uint64_t ModelRegistry::publish(const ServingModel& model) {
  std::filesystem::create_directories(dir_);
  const auto versions = list_versions();
  const std::uint64_t next = versions.empty() ? 1 : versions.back() + 1;
  const std::string path = dir_ + "/v" + std::to_string(next) + ".qifm";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("registry: cannot write " + path);
  // Serialize a copy stamped with the assigned version; the caller's
  // bundle is left untouched (publish is rare, the copy is irrelevant).
  ServingModel stamped = model;
  stamped.version = next;
  save_model(stamped, os);
  os.close();
  if (!os) throw std::runtime_error("registry: write failed for " + path);
  return next;
}

std::uint64_t ModelRegistry::refresh() {
  const auto versions = list_versions();
  // Highest version first; fall back down the list on any load failure so
  // one corrupt publish cannot take serving down.
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    const std::string path = dir_ + "/v" + std::to_string(*it) + ".qifm";
    try {
      std::ifstream is(path, std::ios::binary);
      if (!is) throw std::runtime_error("registry: cannot open " + path);
      auto model = std::make_shared<ServingModel>(load_model(is));
      model->version = *it;  // the filename is authoritative
      model->validate_feature_width(schema_dim_);
      install(std::move(model));
      return *it;
    } catch (const std::exception&) {
      continue;  // corrupt/incompatible candidate: try the next-highest
    }
  }
  // Nothing valid on disk: the previously live model (if any) stays warm.
  const auto live = current();
  return live ? live->version : 0;
}

void ModelRegistry::install(std::shared_ptr<const ServingModel> model) {
  if (model) model->validate_feature_width(schema_dim_);
  std::lock_guard<std::mutex> lock(mutex_);
  live_ = std::move(model);
}

std::shared_ptr<const ServingModel> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

}  // namespace qif::serve
