// Window data-plane benchmark: the FeatureTable pipeline stages that the
// columnar refactor targets.
//
//   data_plane [--richness R]...     (default: --richness 1 --richness 4)
//              [--streaming-rows N] [--streaming-budget-mib M]
//
// For each richness it builds the IO500 campaign dataset once, then times
//   assemble:  the campaign build itself (scenario -> labelled table)
//   append:    block-appending the table into a reserve-once destination
//   split:     the 80/20 index-view split (zero-copy TableViews)
//   csv/qds:   save + load through both persistence paths (memory streams,
//              so the numbers compare parse cost, not disk)
//   mmap:      map_dataset_qds over a real file — validate + borrow in
//              place, no payload copy
//   qlz:       the compressed .qds path (save/load + on-disk bytes)
// and prints one JSON object to stdout.  It is run by hand (the repo's
// benchmark is benchmark/run.sh).  A misspelled, valueless or malformed
// option exits 2 naming it before any work starts.  The headline
// number is load_speedup_qds_vs_csv: the binary reader is O(read) where
// CSV re-parses every cell.
//
// --streaming-rows N adds a "streaming" leg: a synthetic N-row dataset is
// written shard by shard (never fully resident), then trained through the
// chunked ShardedDataset path under --streaming-budget-mib; peak RSS
// (ru_maxrss) is reported so the fixed-footprint claim is checkable.  Run
// it without --richness: peak RSS is a whole-process high-water mark, so
// the streaming leg must not inherit the campaign legs' pages.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qif/core/datasets.hpp"
#include "qif/core/training_server.hpp"
#include "qif/ml/preprocess.hpp"
#include "qif/monitor/export.hpp"
#include "qif/monitor/qds_file.hpp"
#include "qif/sim/rng.hpp"

#include "cli_options.hpp"

using namespace qif;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Best-of-3 wall time of `fn` in milliseconds.
template <typename Fn>
double best_ms(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double t = ms_since(t0);
    if (t < best) best = t;
  }
  return best;
}

struct StageTimes {
  std::size_t windows = 0;
  double assemble_ms = 0.0;
  double append_ms = 0.0;
  double split_ms = 0.0;
  double csv_save_ms = 0.0;
  double csv_load_ms = 0.0;
  double qds_save_ms = 0.0;
  double qds_load_ms = 0.0;
  double qds_mmap_load_ms = 0.0;
  double qlz_save_ms = 0.0;
  double qlz_load_ms = 0.0;
  std::size_t csv_bytes = 0;
  std::size_t qds_bytes = 0;
  std::size_t qlz_bytes = 0;
  bool mmap_zero_copy = false;
};

StageTimes run_richness(double richness) {
  StageTimes t;
  core::DatasetOptions opts;
  opts.richness = richness;

  const auto t0 = std::chrono::steady_clock::now();
  const monitor::Dataset ds = core::build_io500_dataset(opts);
  t.assemble_ms = ms_since(t0);
  t.windows = ds.size();

  t.append_ms = best_ms([&] {
    monitor::Dataset dst;
    dst.set_shape(ds.n_servers(), ds.dim());
    dst.reserve(ds.size());
    dst.append(ds);
  });

  t.split_ms = best_ms([&] {
    auto [train, test] = ml::split_dataset(ds, 0.2, 17);
    if (train.size() + test.size() != ds.size()) std::abort();
  });

  std::string csv_text, qds_text;
  t.csv_save_ms = best_ms([&] {
    std::ostringstream os;
    monitor::write_dataset_csv(os, ds);
    csv_text = os.str();
  });
  t.qds_save_ms = best_ms([&] {
    std::ostringstream os;
    monitor::write_dataset_qds(os, ds);
    qds_text = os.str();
  });
  t.csv_bytes = csv_text.size();
  t.qds_bytes = qds_text.size();

  t.csv_load_ms = best_ms([&] {
    std::istringstream is(csv_text);
    const monitor::Dataset loaded = monitor::read_dataset_csv(is);
    if (loaded.size() != ds.size()) std::abort();
  });
  t.qds_load_ms = best_ms([&] {
    std::istringstream is(qds_text);
    const monitor::Dataset loaded = monitor::read_dataset_qds(is);
    if (loaded.size() != ds.size()) std::abort();
  });

  // Mmap leg: a real file, so the number includes open+map+full validation
  // — everything except the copy the buffered reader pays on top.
  const std::string mmap_path = "bench_data_plane.tmp.qds";
  {
    std::ofstream os(mmap_path, std::ios::binary | std::ios::trunc);
    os.write(qds_text.data(), static_cast<std::streamsize>(qds_text.size()));
  }
  t.qds_mmap_load_ms = best_ms([&] {
    const monitor::MappedDataset mapped = monitor::map_dataset_qds(mmap_path);
    if (mapped.table.size() != ds.size()) std::abort();
    t.mmap_zero_copy = mapped.zero_copy;
  });
  std::remove(mmap_path.c_str());

  // Compressed leg: per-block qlz, which is what fixes ".qds bigger than
  // the CSV it replaced" — blocks that will not shrink stay raw.
  std::string qlz_text;
  monitor::QdsWriteOptions qlz_opts;
  qlz_opts.codec = monitor::QdsCodec::kQlz;
  t.qlz_save_ms = best_ms([&] {
    std::ostringstream os;
    monitor::write_dataset_qds(os, ds, qlz_opts);
    qlz_text = os.str();
  });
  t.qlz_bytes = qlz_text.size();
  t.qlz_load_ms = best_ms([&] {
    std::istringstream is(qlz_text);
    const monitor::Dataset loaded = monitor::read_dataset_qds(is);
    if (loaded.size() != ds.size()) std::abort();
  });
  return t;
}

struct StreamingTimes {
  std::size_t rows = 0;
  std::size_t shards = 0;
  std::size_t budget_mib = 0;
  std::size_t disk_bytes = 0;
  double write_ms = 0.0;
  double train_ms = 0.0;
  double peak_rss_mib = 0.0;
};

/// Writes an N-row synthetic sharded dataset chunk by chunk — at no point
/// is more than one shard resident — then trains through the chunked
/// RowAccess path under a page budget.  This is the 10M-window acceptance
/// scenario: dataset bytes >> budget >> any single shard.
StreamingTimes run_streaming(std::size_t rows, std::size_t budget_mib) {
  StreamingTimes out;
  out.rows = rows;
  out.budget_mib = budget_mib;
  constexpr std::size_t kRowsPerShard = 1 << 17;
  constexpr int kDim = 5;
  const std::string prefix = "bench_streaming.tmp";

  const auto t0 = std::chrono::steady_clock::now();
  monitor::Manifest m;
  m.n_servers = 1;
  m.dim = kDim;
  m.rows = rows;
  sim::Rng rng(4242);
  for (std::size_t lo = 0, k = 0; lo < rows; lo += kRowsPerShard, ++k) {
    const std::size_t hi = std::min(lo + kRowsPerShard, rows);
    monitor::Dataset chunk(1, kDim);
    chunk.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      const int label = static_cast<int>(i % 2);
      double* f = chunk.append_row(static_cast<std::int64_t>(i), label, 1.0 + label);
      for (int j = 0; j < kDim; ++j) {
        f[j] = rng.uniform(-1.0, 1.0) + (label == 1 && j == 0 ? 2.0 : 0.0);
      }
    }
    std::ostringstream image;
    monitor::write_dataset_qds(image, chunk);
    const std::string bytes = std::move(image).str();
    std::string num = std::to_string(k);
    if (num.size() < 3) num.insert(0, 3 - num.size(), '0');
    const std::string name = prefix + "." + num + ".qds";
    std::ofstream os(name, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!os) std::abort();
    out.disk_bytes += bytes.size();
    m.shards.push_back(
        {hi - lo, name, monitor::qds_image_checksum(bytes.data(), bytes.size())});
  }
  const std::string manifest_path = prefix + ".qdm";
  monitor::write_manifest_file(manifest_path, m);
  out.write_ms = ms_since(t0);
  out.shards = m.shards.size();

  {
    const monitor::ShardedDataset sharded =
        monitor::ShardedDataset::open(manifest_path, budget_mib << 20);
    core::TrainingServerConfig cfg;
    cfg.train.max_epochs = 2;
    const auto t1 = std::chrono::steady_clock::now();
    core::TrainingServer server(cfg);
    (void)server.fit_rows(sharded);
    out.train_ms = ms_since(t1);
  }

  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux

  for (const monitor::ShardInfo& s : m.shards) std::remove(s.file.c_str());
  std::remove(manifest_path.c_str());
  return out;
}

const cli::Command kCommand{
    "data_plane", "", 0, "time the window data plane's stages; print one JSON object",
    {{"richness", cli::Kind::kReal, "R", "campaign richness, repeatable; 1 and 4 if absent", "",
      0, false, true},
     {"streaming-rows", cli::Kind::kInt, "N", "add the streaming leg over N rows", "0", 0},
     {"streaming-budget-mib", cli::Kind::kInt, "M", "the streaming leg's page budget", "256",
      0}}};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kCommand, argc, argv);
  std::vector<double> richnesses = args.all<double>("richness");
  const auto streaming_rows = static_cast<std::size_t>(args.get<int>("streaming-rows"));
  const auto streaming_budget_mib =
      static_cast<std::size_t>(args.get<int>("streaming-budget-mib"));
  // A streaming-only invocation skips the campaign legs: peak RSS is a
  // whole-process number, so the fixed-footprint claim needs a clean slate.
  if (richnesses.empty() && streaming_rows == 0) richnesses = {1.0, 4.0};

  std::printf("{\n");
  for (std::size_t r = 0; r < richnesses.size(); ++r) {
    std::fprintf(stderr, "richness %.3g: building campaign dataset...\n",
                 richnesses[r]);
    const StageTimes t = run_richness(richnesses[r]);
    std::printf("  \"richness_%g\": {\n", richnesses[r]);
    std::printf("    \"windows\": %zu,\n", t.windows);
    std::printf("    \"assemble_ms\": %.3f,\n", t.assemble_ms);
    std::printf("    \"append_ms\": %.4f,\n", t.append_ms);
    std::printf("    \"split_ms\": %.4f,\n", t.split_ms);
    std::printf("    \"csv_save_ms\": %.3f,\n", t.csv_save_ms);
    std::printf("    \"csv_load_ms\": %.3f,\n", t.csv_load_ms);
    std::printf("    \"qds_save_ms\": %.3f,\n", t.qds_save_ms);
    std::printf("    \"qds_load_ms\": %.3f,\n", t.qds_load_ms);
    std::printf("    \"qds_mmap_load_ms\": %.3f,\n", t.qds_mmap_load_ms);
    std::printf("    \"qds_mmap_zero_copy\": %s,\n", t.mmap_zero_copy ? "true" : "false");
    std::printf("    \"qlz_save_ms\": %.3f,\n", t.qlz_save_ms);
    std::printf("    \"qlz_load_ms\": %.3f,\n", t.qlz_load_ms);
    std::printf("    \"csv_bytes\": %zu,\n", t.csv_bytes);
    std::printf("    \"qds_bytes\": %zu,\n", t.qds_bytes);
    std::printf("    \"qlz_bytes\": %zu,\n", t.qlz_bytes);
    std::printf("    \"qlz_ratio_vs_csv\": %.3f,\n",
                t.csv_bytes > 0 ? static_cast<double>(t.qlz_bytes) / t.csv_bytes : 0.0);
    std::printf("    \"load_speedup_qds_vs_csv\": %.2f,\n",
                t.qds_load_ms > 0 ? t.csv_load_ms / t.qds_load_ms : 0.0);
    std::printf("    \"load_speedup_mmap_vs_buffered\": %.2f\n",
                t.qds_mmap_load_ms > 0 ? t.qds_load_ms / t.qds_mmap_load_ms : 0.0);
    const bool more = r + 1 < richnesses.size() || streaming_rows > 0;
    std::printf("  }%s\n", more ? "," : "");
  }
  if (streaming_rows > 0) {
    std::fprintf(stderr, "streaming: %zu rows under %zu MiB budget...\n",
                 streaming_rows, streaming_budget_mib);
    const StreamingTimes s = run_streaming(streaming_rows, streaming_budget_mib);
    std::printf("  \"streaming\": {\n");
    std::printf("    \"rows\": %zu,\n", s.rows);
    std::printf("    \"shards\": %zu,\n", s.shards);
    std::printf("    \"disk_bytes\": %zu,\n", s.disk_bytes);
    std::printf("    \"budget_mib\": %zu,\n", s.budget_mib);
    std::printf("    \"write_ms\": %.1f,\n", s.write_ms);
    std::printf("    \"train_ms\": %.1f,\n", s.train_ms);
    std::printf("    \"peak_rss_mib\": %.1f\n", s.peak_rss_mib);
    std::printf("  }\n");
  }
  std::printf("}\n");
  return 0;
}
