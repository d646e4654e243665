#include "qif/monitor/export.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "qif/monitor/qlz.hpp"
#include "qif/monitor/schema.hpp"
#include "qif/trace/text_cursor.hpp"

namespace qif::monitor {

// The strict cell parsers (full-consumption from_chars/strtod with
// line/column diagnostics) are shared with the DXT and .qwp readers; the
// DXT dump itself moved to qif/trace/dxt.hpp so trace replay and the
// export surface parse one grammar with one parser.
using trace::parse_double_cell;
using trace::parse_int_cell;

void write_dataset_csv(std::ostream& os, const Dataset& ds) {
  os.precision(17);
  // Pick the schema variant matching the table's per-server width, so both
  // healthy (37) and fault-injected (40) datasets get named columns.
  const MetricSchema schema(ds.dim() == MetricSchema::kPerServerDimFaults);
  os << "window_index,label,degradation";
  for (int s = 0; s < ds.n_servers(); ++s) {
    for (int f = 0; f < ds.dim(); ++f) {
      os << ",s" << s << '.';
      // Feature names are known when dim matches the standard schema;
      // otherwise fall back to positional names.
      if (ds.dim() == schema.dim()) {
        os << schema.at(f).name;
      } else {
        os << 'f' << f;
      }
    }
  }
  os << '\n';
  const std::size_t width = ds.width();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    os << ds.window_index(i) << ',' << ds.label(i) << ',' << ds.degradation(i);
    const double* row = ds.row(i);
    for (std::size_t j = 0; j < width; ++j) os << ',' << row[j];
    os << '\n';
  }
}

void write_ctrl_windows_csv(std::ostream& os, const ctrl::MitigationReport& report) {
  os.precision(17);
  os << "window,throttle_waits,throttled_bytes,throttle_delay_s,"
        "mean_admission_level,flagged_controllers,victim_p99_ms\n";
  for (const ctrl::WindowCtrl& w : report.windows) {
    os << w.window_index << ',' << w.throttle_waits << ',' << w.throttled_bytes << ','
       << w.throttle_delay_s << ',' << w.mean_admission_level << ','
       << w.flagged_controllers << ',' << w.victim_p99_ms << '\n';
  }
}

Dataset read_dataset_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) throw std::runtime_error("empty dataset CSV");
  // Infer the shape from the header: count "sK." prefixes and the highest K.
  std::size_t n_features = 0;
  int max_server = -1;
  {
    std::istringstream hs(line);
    std::string cell;
    std::int64_t col = 0;
    while (std::getline(hs, cell, ',')) {
      if (++col <= 3) continue;
      ++n_features;
      const auto dot = cell.find('.');
      if (cell.size() > 1 && cell[0] == 's' && dot != std::string::npos && dot > 1) {
        max_server = std::max(max_server, parse_int_cell<int>({cell.data() + 1, dot - 1},
                                                              "CSV header server", 1, col));
      }
    }
  }
  if (n_features == 0 || max_server < 0) {
    throw std::runtime_error("dataset CSV header has no feature columns");
  }
  const int n_servers = max_server + 1;
  if (n_features % static_cast<std::size_t>(n_servers) != 0) {
    throw std::runtime_error("dataset CSV feature count not divisible by servers");
  }
  Dataset ds(n_servers, static_cast<int>(n_features / static_cast<std::size_t>(n_servers)));

  std::int64_t line_no = 1;  // the header was line 1
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string cell;
    std::int64_t col = 0;
    const auto next_cell = [&]() {
      if (!std::getline(ls, cell, ',')) {
        throw std::runtime_error("truncated CSV row at line " + std::to_string(line_no) +
                                 ", column " + std::to_string(col + 1));
      }
      ++col;
    };
    next_cell();
    const auto window = parse_int_cell<std::int64_t>(cell, "CSV window_index", line_no, col);
    next_cell();
    const auto label = parse_int_cell<int>(cell, "CSV label", line_no, col);
    next_cell();
    const auto degradation = parse_double_cell(cell, "CSV degradation", line_no, col);
    double* row = ds.append_row(window, label, degradation);
    std::size_t j = 0;
    while (std::getline(ls, cell, ',')) {
      ++col;
      if (j >= n_features) {
        throw std::runtime_error("dataset CSV row width mismatch at line " +
                                 std::to_string(line_no) + ", column " + std::to_string(col));
      }
      row[j++] = parse_double_cell(cell, "CSV feature", line_no, col);
    }
    if (j != n_features) {
      throw std::runtime_error("dataset CSV row width mismatch at line " +
                               std::to_string(line_no) + ", column " + std::to_string(col));
    }
  }
  return ds;
}

namespace {

constexpr char kQdsMagic[8] = {'q', 'i', 'f', '.', 'q', 'd', 's', '\n'};
constexpr std::uint32_t kQdsVersionLegacy = 1;
constexpr std::uint32_t kQdsVersionBlocks = 2;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::size_t kQdsV2HeaderSize = 48;
constexpr std::size_t kQdsBlockHeaderSize = 32;
constexpr std::uint32_t kQdsFlagCompressed = 1u;

/// Stream checksum: FNV-1a folded 8 bytes at a time (one xor-multiply per
/// word instead of per byte), byte-wise over the tail.  Word-wise so the
/// checksum pass stays negligible next to the column reads — the reader
/// hashes every payload byte of multi-megabyte files.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void write_raw(std::ostream& os, const void* data, std::size_t n, std::uint64_t& hash) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  hash = fnv1a(data, n, hash);
}

/// Schema hash stamped into headers: the canonical MetricSchema hash when
/// the per-server width matches the healthy (37) or fault-injected (40)
/// layout, 0 (unchecked) for custom widths such as the flat-net ablation's
/// reshaped tables.
std::uint64_t header_schema_hash(int dim) {
  if (dim == MetricSchema::kPerServerDim) return MetricSchema().layout_hash();
  if (dim == MetricSchema::kPerServerDimFaults) {
    return MetricSchema(/*with_fault_features=*/true).layout_hash();
  }
  return 0;
}

template <typename T>
[[nodiscard]] T load_at(const char* data, std::size_t offset) {
  T v;
  std::memcpy(&v, data + offset, sizeof v);
  return v;
}

template <typename T>
void append_value(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// One column block of a validated image: `stored` points into the image,
/// `raw_bytes` is the decompressed size implied by the file header.
struct QdsBlockRef {
  std::uint32_t codec = 0;
  const char* stored = nullptr;
  std::size_t stored_bytes = 0;
  std::size_t raw_bytes = 0;
};

struct QdsValidated {
  std::uint32_t version = 0;
  int n_servers = 0;
  int dim = 0;
  std::size_t rows = 0;
  std::size_t width = 0;
  bool all_raw = false;
  QdsBlockRef blocks[4];  // window_index, label, degradation, features
};

/// Validates a complete in-memory `.qds` image: magic, header sanity,
/// every checksum, exact size (no truncation, no trailing garbage), block
/// framing and padding.  This is the single validation pass behind both
/// the buffered reader and the mmap path, so both reject corruption with
/// the identical error taxonomy.
QdsValidated validate_qds_image(const char* data, std::size_t n) {
  if (!is_qds_magic(data, n)) {
    throw std::runtime_error("not a .qds dataset (bad magic)");
  }
  if (n < 36) throw std::runtime_error("truncated .qds dataset (header)");
  QdsValidated v;
  v.version = load_at<std::uint32_t>(data, 8);
  if (v.version != kQdsVersionLegacy && v.version != kQdsVersionBlocks) {
    throw std::runtime_error(".qds dataset: unsupported version " +
                             std::to_string(v.version));
  }
  const auto schema_hash = load_at<std::uint64_t>(data, 12);
  const auto n_servers = load_at<std::int32_t>(data, 20);
  const auto dim = load_at<std::int32_t>(data, 24);
  const auto rows = load_at<std::uint64_t>(data, 28);
  if (n_servers < 0 || dim < 0 || (n_servers == 0) != (dim == 0)) {
    throw std::runtime_error(".qds dataset: corrupt header shape");
  }
  if (schema_hash != 0 && schema_hash != header_schema_hash(dim)) {
    throw std::runtime_error(".qds dataset: metric-schema hash mismatch");
  }
  const auto width = static_cast<std::uint64_t>(n_servers) * static_cast<std::uint64_t>(dim);
  if ((n_servers == 0 && rows != 0) ||
      (width != 0 &&
       rows > std::numeric_limits<std::uint64_t>::max() / width / sizeof(double))) {
    throw std::runtime_error(".qds dataset: corrupt header row count");
  }
  v.n_servers = n_servers;
  v.dim = dim;
  v.rows = static_cast<std::size_t>(rows);
  v.width = static_cast<std::size_t>(width);
  const std::uint64_t col_bytes[4] = {rows * sizeof(std::int64_t), rows * sizeof(std::int32_t),
                                      rows * sizeof(double), rows * width * sizeof(double)};

  if (v.version == kQdsVersionLegacy) {
    // Legacy layout: contiguous columns, one trailing checksum over
    // everything after the magic.  The exact-size comparison (128-bit so a
    // hostile rows*width cannot wrap it) rejects truncation AND trailing
    // garbage before any allocation.
    unsigned __int128 need = 36 + sizeof(std::uint64_t);
    for (const std::uint64_t c : col_bytes) need += c;
    if (static_cast<unsigned __int128>(n) != need) {
      throw std::runtime_error(static_cast<unsigned __int128>(n) < need
                                   ? "truncated .qds dataset (declared payload exceeds file)"
                                   : ".qds dataset: trailing garbage after payload");
    }
    // The word-folded FNV is chunk-boundary sensitive and the v1 writer
    // hashes field by field, then column by column — reproduce exactly
    // that sequence or every legacy file reads as corrupt.
    std::uint64_t hash = kFnvBasis;
    hash = fnv1a(data + 8, 4, hash);    // version
    hash = fnv1a(data + 12, 8, hash);   // schema hash
    hash = fnv1a(data + 20, 4, hash);   // n_servers
    hash = fnv1a(data + 24, 4, hash);   // dim
    hash = fnv1a(data + 28, 8, hash);   // rows
    {
      std::size_t off = 36;
      for (const std::uint64_t c : col_bytes) {
        hash = fnv1a(data + off, static_cast<std::size_t>(c), hash);
        off += static_cast<std::size_t>(c);
      }
    }
    if (hash != load_at<std::uint64_t>(data, n - sizeof(std::uint64_t))) {
      throw std::runtime_error(".qds dataset: checksum mismatch");
    }
    std::size_t offset = 36;
    for (int k = 0; k < 4; ++k) {
      const auto bytes = static_cast<std::size_t>(col_bytes[k]);
      v.blocks[k] = {0, data + offset, bytes, bytes};
      offset += bytes;
    }
    v.all_raw = true;  // raw but misaligned — never zero-copy (see inspect)
    return v;
  }

  // Version 2: header checksum, then four self-checksummed blocks.
  if (n < kQdsV2HeaderSize) throw std::runtime_error("truncated .qds dataset (header)");
  const auto flags = load_at<std::uint32_t>(data, 36);
  if ((flags & ~kQdsFlagCompressed) != 0) {
    throw std::runtime_error(".qds dataset: unknown header flags");
  }
  if (fnv1a(data + 8, 32, kFnvBasis) != load_at<std::uint64_t>(data, 40)) {
    throw std::runtime_error(".qds dataset: header checksum mismatch");
  }
  // Pre-allocation guard: with compression a block's raw size legitimately
  // exceeds the file size, but qlz expands at most ~255x, so a total
  // declared raw payload beyond 256x the image is a forged header — reject
  // it before the materializing caller allocates columns.
  unsigned __int128 total_raw = 0;
  for (const std::uint64_t c : col_bytes) total_raw += c;
  if (total_raw > static_cast<unsigned __int128>(n) * 256 + 4096) {
    throw std::runtime_error("truncated .qds dataset (declared payload exceeds file)");
  }
  std::size_t offset = kQdsV2HeaderSize;
  bool any_compressed = false;
  for (std::uint32_t k = 0; k < 4; ++k) {
    if (n - offset < kQdsBlockHeaderSize) {
      throw std::runtime_error("truncated .qds dataset (block header)");
    }
    const auto kind = load_at<std::uint32_t>(data, offset);
    const auto codec = load_at<std::uint32_t>(data, offset + 4);
    const auto raw_bytes = load_at<std::uint64_t>(data, offset + 8);
    const auto stored_bytes = load_at<std::uint64_t>(data, offset + 16);
    const auto checksum = load_at<std::uint64_t>(data, offset + 24);
    if (kind != k) throw std::runtime_error(".qds dataset: block order mismatch");
    if (codec > static_cast<std::uint32_t>(QdsCodec::kQlz)) {
      throw std::runtime_error(".qds dataset: unknown block codec");
    }
    if (raw_bytes != col_bytes[k]) {
      throw std::runtime_error(".qds dataset: block size mismatch");
    }
    if (codec == 0 ? stored_bytes != raw_bytes : stored_bytes >= raw_bytes) {
      throw std::runtime_error(".qds dataset: block size mismatch");
    }
    if (stored_bytes > n - offset - kQdsBlockHeaderSize) {
      throw std::runtime_error("truncated .qds dataset (block payload)");
    }
    const char* payload = data + offset + kQdsBlockHeaderSize;
    std::uint64_t h = fnv1a(data + offset, 24, kFnvBasis);
    h = fnv1a(payload, static_cast<std::size_t>(stored_bytes), h);
    if (h != checksum) throw std::runtime_error(".qds dataset: checksum mismatch");
    const std::size_t pad = (8 - static_cast<std::size_t>(stored_bytes) % 8) % 8;
    if (pad > n - offset - kQdsBlockHeaderSize - static_cast<std::size_t>(stored_bytes)) {
      throw std::runtime_error("truncated .qds dataset (block padding)");
    }
    for (std::size_t b = 0; b < pad; ++b) {
      // Pad bytes sit outside the checksummed payload, so a flip there
      // must still be caught: they are defined to be zero.
      if (payload[stored_bytes + b] != 0) {
        throw std::runtime_error(".qds dataset: nonzero block padding");
      }
    }
    if (codec != 0) any_compressed = true;
    v.blocks[k] = {codec, payload, static_cast<std::size_t>(stored_bytes),
                   static_cast<std::size_t>(raw_bytes)};
    offset += kQdsBlockHeaderSize + static_cast<std::size_t>(stored_bytes) + pad;
  }
  if (((flags & kQdsFlagCompressed) != 0) != any_compressed) {
    throw std::runtime_error(".qds dataset: header flags mismatch");
  }
  if (offset != n) throw std::runtime_error(".qds dataset: trailing garbage after payload");
  v.all_raw = !any_compressed;
  return v;
}

void materialize_block(const QdsBlockRef& block, void* dst) {
  if (block.codec == 0) {
    // An empty column's destination may be null, which memcpy forbids even
    // for zero bytes.
    if (block.raw_bytes != 0) std::memcpy(dst, block.stored, block.raw_bytes);
  } else {
    qlz_decompress(block.stored, block.stored_bytes, dst, block.raw_bytes);
  }
}

template <typename T>
[[nodiscard]] bool aligned_for(const char* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/// Reads the rest of the stream into a string: sized read when seekable,
/// rdbuf drain otherwise.
std::string slurp_stream(std::istream& is) {
  if (const auto cur = is.tellg(); cur != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(cur);
    if (is && end != std::istream::pos_type(-1) && end >= cur) {
      std::string out(static_cast<std::size_t>(end - cur), '\0');
      is.read(out.data(), static_cast<std::streamsize>(out.size()));
      if (static_cast<std::size_t>(is.gcount()) != out.size()) {
        throw std::runtime_error("truncated .qds dataset (stream read)");
      }
      return out;
    }
    is.clear();
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

void write_dataset_qds_v1(std::ostream& os, const Dataset& ds) {
  os.write(kQdsMagic, sizeof(kQdsMagic));
  std::uint64_t hash = kFnvBasis;
  const std::uint32_t version = kQdsVersionLegacy;
  const std::uint64_t schema_hash = header_schema_hash(ds.dim());
  const std::int32_t n_servers = ds.n_servers();
  const std::int32_t dim = ds.dim();
  const std::uint64_t rows = ds.size();
  write_raw(os, &version, sizeof(version), hash);
  write_raw(os, &schema_hash, sizeof(schema_hash), hash);
  write_raw(os, &n_servers, sizeof(n_servers), hash);
  write_raw(os, &dim, sizeof(dim), hash);
  write_raw(os, &rows, sizeof(rows), hash);
  write_raw(os, ds.window_index_data(), ds.size() * sizeof(std::int64_t), hash);
  write_raw(os, ds.label_data(), ds.size() * sizeof(std::int32_t), hash);
  write_raw(os, ds.degradation_data(), ds.size() * sizeof(double), hash);
  write_raw(os, ds.feature_data(), ds.size() * ds.width() * sizeof(double), hash);
  os.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
}

/// Appends one v2 block (header + payload + zero padding), compressing
/// when requested AND strictly smaller.
void append_block_v2(std::string& out, std::uint32_t kind, const void* raw,
                     std::size_t raw_bytes, QdsCodec want, bool& any_compressed) {
  std::vector<char> compressed;
  std::uint32_t codec = 0;
  const char* stored = static_cast<const char*>(raw);
  std::size_t stored_bytes = raw_bytes;
  if (want == QdsCodec::kQlz && raw_bytes >= 64) {
    compressed.resize(raw_bytes - 1);  // capacity < raw: only keep a strict win
    if (const std::size_t c = qlz_compress(raw, raw_bytes, compressed.data(),
                                           compressed.size())) {
      codec = static_cast<std::uint32_t>(QdsCodec::kQlz);
      stored = compressed.data();
      stored_bytes = c;
      any_compressed = true;
    }
  }
  char header[24];
  std::memcpy(header, &kind, sizeof kind);
  std::memcpy(header + 4, &codec, sizeof codec);
  const std::uint64_t raw64 = raw_bytes;
  const std::uint64_t stored64 = stored_bytes;
  std::memcpy(header + 8, &raw64, sizeof raw64);
  std::memcpy(header + 16, &stored64, sizeof stored64);
  std::uint64_t checksum = fnv1a(header, sizeof header, kFnvBasis);
  checksum = fnv1a(stored, stored_bytes, checksum);
  out.append(header, sizeof header);
  append_value(out, checksum);
  out.append(stored, stored_bytes);
  out.append((8 - stored_bytes % 8) % 8, '\0');
}

}  // namespace

bool is_qds_magic(const char* bytes, std::size_t n) {
  return n >= sizeof(kQdsMagic) && std::memcmp(bytes, kQdsMagic, sizeof(kQdsMagic)) == 0;
}

std::uint64_t qds_image_checksum(const void* data, std::size_t n) {
  return fnv1a(data, n, kFnvBasis);
}

void write_dataset_qds(std::ostream& os, const Dataset& ds, const QdsWriteOptions& options) {
  static_assert(sizeof(int) == sizeof(std::int32_t), "label column is stored as i32");
  if (options.version == kQdsVersionLegacy) {
    write_dataset_qds_v1(os, ds);
    if (!os) throw std::runtime_error("failed writing .qds dataset");
    return;
  }
  if (options.version != kQdsVersionBlocks) {
    throw std::runtime_error(".qds dataset: unsupported version " +
                             std::to_string(options.version));
  }
  const std::size_t rows = ds.size();
  std::string blocks;
  blocks.reserve(rows * (sizeof(std::int64_t) + sizeof(std::int32_t) + sizeof(double) +
                         ds.width() * sizeof(double)) +
                 4 * kQdsBlockHeaderSize);
  bool any_compressed = false;
  append_block_v2(blocks, 0, ds.window_index_data(), rows * sizeof(std::int64_t),
                  options.codec, any_compressed);
  append_block_v2(blocks, 1, ds.label_data(), rows * sizeof(std::int32_t), options.codec,
                  any_compressed);
  append_block_v2(blocks, 2, ds.degradation_data(), rows * sizeof(double), options.codec,
                  any_compressed);
  append_block_v2(blocks, 3, ds.feature_data(), rows * ds.width() * sizeof(double),
                  options.codec, any_compressed);

  std::string header(kQdsMagic, sizeof(kQdsMagic));
  append_value(header, kQdsVersionBlocks);
  append_value(header, header_schema_hash(ds.dim()));
  append_value(header, static_cast<std::int32_t>(ds.n_servers()));
  append_value(header, static_cast<std::int32_t>(ds.dim()));
  append_value(header, static_cast<std::uint64_t>(rows));
  append_value(header, any_compressed ? kQdsFlagCompressed : 0u);
  append_value(header, fnv1a(header.data() + 8, 32, kFnvBasis));

  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(blocks.data(), static_cast<std::streamsize>(blocks.size()));
  if (!os) throw std::runtime_error("failed writing .qds dataset");
}

QdsImageView inspect_dataset_qds(const char* data, std::size_t n) {
  const QdsValidated v = validate_qds_image(data, n);
  QdsImageView view;
  view.version = v.version;
  view.n_servers = v.n_servers;
  view.dim = v.dim;
  view.rows = v.rows;
  // Zero-copy needs raw v2 blocks (v1 columns are raw too, but the 36-byte
  // header leaves them misaligned) and an 8-aligned base — true for any
  // mmap, not necessarily for an arbitrary heap buffer.
  view.zero_copy = v.version == kQdsVersionBlocks && v.all_raw &&
                   aligned_for<std::int64_t>(v.blocks[0].stored) &&
                   aligned_for<std::int32_t>(v.blocks[1].stored) &&
                   aligned_for<double>(v.blocks[2].stored) &&
                   aligned_for<double>(v.blocks[3].stored);
  if (view.zero_copy) {
    view.window_index = reinterpret_cast<const std::int64_t*>(v.blocks[0].stored);
    view.label = reinterpret_cast<const std::int32_t*>(v.blocks[1].stored);
    view.degradation = reinterpret_cast<const double*>(v.blocks[2].stored);
    view.features = reinterpret_cast<const double*>(v.blocks[3].stored);
  }
  return view;
}

Dataset parse_dataset_qds(const char* data, std::size_t n) {
  const QdsValidated v = validate_qds_image(data, n);
  std::vector<std::int64_t> windows(v.rows);
  std::vector<int> labels(v.rows);
  std::vector<double> degradations(v.rows);
  std::vector<double> features(v.rows * v.width);
  materialize_block(v.blocks[0], windows.data());
  materialize_block(v.blocks[1], labels.data());
  materialize_block(v.blocks[2], degradations.data());
  materialize_block(v.blocks[3], features.data());
  return Dataset::from_columns(v.n_servers, v.dim, std::move(windows), std::move(labels),
                               std::move(degradations), std::move(features));
}

Dataset read_dataset_qds(std::istream& is) {
  const std::string image = slurp_stream(is);
  return parse_dataset_qds(image.data(), image.size());
}

Dataset read_dataset_auto(std::istream& is) {
  char magic[sizeof(kQdsMagic)] = {};
  is.read(magic, sizeof(magic));
  const auto got = static_cast<std::size_t>(is.gcount());
  // A zero-byte or shorter-than-magic stream is neither format: say so
  // directly instead of letting the CSV parser report a garbage cell.
  if (got == 0) throw std::runtime_error("empty dataset (no bytes to read)");
  if (got < sizeof(magic)) {
    throw std::runtime_error("truncated dataset: " + std::to_string(got) +
                             " byte(s) is shorter than any dataset header");
  }
  is.clear();
  is.seekg(0);
  if (!is) throw std::runtime_error("dataset stream is not seekable");
  if (is_qds_magic(magic, sizeof(magic))) return read_dataset_qds(is);
  return read_dataset_csv(is);
}

}  // namespace qif::monitor
