// Tests for the DXT-style trace dump and dataset CSV / .qds round trips.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "qif/monitor/export.hpp"
#include "qif/sim/rng.hpp"
#include "qif/trace/dxt.hpp"

namespace qif::monitor {
namespace {

trace::OpRecord op(std::int32_t job, pfs::Rank rank, std::int64_t idx, pfs::OpType type,
                   std::int64_t offset, std::int64_t bytes,
                   trace::TargetList targets) {
  trace::OpRecord r;
  r.job = job;
  r.rank = rank;
  r.op_index = idx;
  r.type = type;
  r.offset = offset;
  r.bytes = bytes;
  r.start = 1000 + idx;
  r.end = 2000 + idx;
  r.targets = std::move(targets);
  return r;
}

TEST(DxtExport, RoundTripPreservesEveryField) {
  trace::TraceLog log;
  trace::OpRecord read = op(0, 1, 0, pfs::OpType::kRead, 4096, 1 << 20, {0, 3});
  read.file = 9;
  log.record(read);
  // The replay-metadata columns (file, path, stripes, hint) round-trip too.
  trace::OpRecord create = op(2, 0, 5, pfs::OpType::kCreate, 0, 0, {trace::kMdtTarget});
  create.file = 17;
  create.replay = trace::ReplayColumns("/ior/job2/file_r0", /*stripes=*/4, /*stripe_hint=*/2);
  log.record(create);
  log.record(op(0, 1, 1, pfs::OpType::kWrite, 1 << 20, 47008, {5}));

  std::stringstream ss;
  trace::write_dxt(ss, log);
  const trace::TraceLog loaded = trace::read_dxt(ss);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& a = log.records()[i];
    const auto& b = loaded.records()[i];
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.op_index, b.op_index);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.targets, b.targets);
    EXPECT_EQ(a.replay.path(), b.replay.path());
    EXPECT_EQ(a.replay.stripes(), b.replay.stripes());
    EXPECT_EQ(a.replay.stripe_hint(), b.replay.stripe_hint());
  }
}

TEST(DxtExport, FaultedRecordRoundTripsEveryDxtColumn) {
  // DXT v2 has no fault columns: a faulted record's dump carries every
  // other field, including targets spilled past the inline capacity and
  // the largest 16-bit OST id, and reads back with a healthy outcome.
  trace::TargetList targets = {trace::kMdtTarget, 32767};
  for (std::int32_t t = 0; targets.size() <= trace::TargetList::kInline; ++t) {
    targets.push_back(t);
  }
  trace::OpRecord rec = op(3, 4, 9, pfs::OpType::kWrite, 8192, 1 << 20, targets);
  rec.file = 11;
  rec.retries = 2;
  rec.timeouts = 3;
  rec.failed = true;
  trace::TraceLog log;
  log.record(rec);
  std::stringstream ss;
  trace::write_dxt(ss, log);
  const trace::TraceLog loaded = trace::read_dxt(ss);
  ASSERT_EQ(loaded.size(), 1u);
  const trace::OpRecord& got = loaded.records()[0];
  EXPECT_EQ(got.job, 3);
  EXPECT_EQ(got.rank, 4);
  EXPECT_EQ(got.op_index, 9);
  EXPECT_EQ(got.type, pfs::OpType::kWrite);
  EXPECT_EQ(got.file, 11);
  EXPECT_EQ(got.offset, 8192);
  EXPECT_EQ(got.bytes, 1 << 20);
  EXPECT_EQ(got.start, rec.start);
  EXPECT_EQ(got.end, rec.end);
  EXPECT_EQ(got.targets, targets);
  EXPECT_TRUE(got.replay.empty());
  EXPECT_EQ(got.retries, 0);
  EXPECT_EQ(got.timeouts, 0);
  EXPECT_FALSE(got.failed);
  // The logged record itself kept its outcome.
  EXPECT_EQ(log.records()[0].retries, 2);
  EXPECT_EQ(log.records()[0].timeouts, 3);
  EXPECT_TRUE(log.records()[0].failed);
}

TEST(DxtExport, TargetOutsideSixteenBitsIsRejected) {
  std::stringstream ss("# DXT qif 2\n0 0 0 read 1 0 8 1000 2000 - 0 -1 32768\n");
  EXPECT_THROW(trace::read_dxt(ss), std::runtime_error);
}

TEST(DxtExport, DumpIsCommentedAndGreppable) {
  trace::TraceLog log;
  log.record(op(0, 0, 0, pfs::OpType::kStat, 0, 0, {trace::kMdtTarget}));
  std::stringstream ss;
  trace::write_dxt(ss, log);
  const std::string text = ss.str();
  EXPECT_NE(text.find("# DXT"), std::string::npos);
  EXPECT_NE(text.find("stat"), std::string::npos);
}

TEST(DxtExport, RejectsGarbage) {
  std::stringstream ss("0 0 0 frobnicate 0 0 0 0\n");
  EXPECT_THROW(trace::read_dxt(ss), std::runtime_error);
}

TEST(DxtExport, RejectsTrailingGarbageOnLine) {
  // A numeric line with extra junk after the target list must not be
  // silently accepted.
  trace::TraceLog log;
  log.record(op(0, 0, 0, pfs::OpType::kRead, 0, 8, {1}));
  std::stringstream ss;
  trace::write_dxt(ss, log);
  std::string text = ss.str();
  text.replace(text.rfind('\n'), 1, " banana\n");
  std::stringstream bad(text);
  EXPECT_THROW(trace::read_dxt(bad), std::runtime_error);
}

TEST(DxtExport, WriterRejectsWhitespaceInPaths) {
  trace::TraceLog log;
  trace::OpRecord rec = op(0, 0, 0, pfs::OpType::kOpen, 0, 0, {trace::kMdtTarget});
  rec.replay = trace::ReplayColumns("/dir/has space");
  log.record(rec);
  std::stringstream ss;
  EXPECT_THROW(trace::write_dxt(ss, log), std::invalid_argument);
}

TEST(DxtExport, EmptyPathRoundTripsAndDashPathIsRejected) {
  // An empty path is written as "-" and reads back empty.
  trace::TraceLog log;
  log.record(op(0, 0, 0, pfs::OpType::kWrite, 0, 8, {1}));
  trace::OpRecord named = op(0, 0, 1, pfs::OpType::kStat, 0, 0, {trace::kMdtTarget});
  named.replay = trace::ReplayColumns("/-");
  log.record(named);
  std::stringstream ss;
  trace::write_dxt(ss, log);
  const trace::TraceLog loaded = trace::read_dxt(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.records()[0].replay.empty());
  EXPECT_EQ(loaded.records()[1].replay.path(), "/-");

  // A real path that is literally "-" would read back as empty, so the
  // writer refuses it.
  trace::TraceLog dash;
  trace::OpRecord rec = op(0, 0, 0, pfs::OpType::kOpen, 0, 0, {trace::kMdtTarget});
  rec.replay = trace::ReplayColumns("-");
  dash.record(rec);
  std::stringstream out;
  try {
    trace::write_dxt(out, dash);
    ADD_FAILURE() << "write_dxt accepted the path '-'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'-'"), std::string::npos) << e.what();
  }
}

TEST(DxtExport, HeaderlessInputParsesAsVersion1) {
  // Pre-metadata dumps have no version header and no file/path columns.
  std::stringstream ss("0 0 0 read 4096 8 1000 2000 1 2\n");
  const trace::TraceLog loaded = trace::read_dxt(ss);
  ASSERT_EQ(loaded.size(), 1u);
  const auto& r = loaded.records()[0];
  EXPECT_EQ(r.offset, 4096);
  EXPECT_EQ(r.bytes, 8);
  EXPECT_EQ(r.file, pfs::kInvalidFile);
  EXPECT_TRUE(r.replay.path().empty());
  EXPECT_EQ(r.targets, (trace::TargetList{1, 2}));
}

/// Pins the reader diagnostics' exact line/column format.  These strings
/// are contract: fuzz-found rejections must stay locatable.
template <typename Fn>
std::string error_message(Fn fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no exception>";
}

TEST(DxtExport, ErrorsNameLineAndColumn) {
  // Version-1 pins (headerless input, or an explicit v1 header): fields are
  // 1-based columns job rank op_index type offset bytes start end
  // targets...; the header comments still count as lines.  These strings
  // predate the v2 columns and must never change.
  EXPECT_EQ(error_message([] {
              std::stringstream ss("# DXT qif 1\n0 x 0 read 0 8 1000 2000 1\n");
              (void)trace::read_dxt(ss);
            }),
            "malformed DXT rank cell: 'x' at line 2, column 2");
  EXPECT_EQ(error_message([] {
              std::stringstream ss("0 0 0 frobnicate 0 8 0 1 1\n");
              (void)trace::read_dxt(ss);
            }),
            "unknown op type in DXT dump: 'frobnicate' at line 1, column 4");
  EXPECT_EQ(error_message([] {
              std::stringstream ss("0 0\n");
              (void)trace::read_dxt(ss);
            }),
            "missing DXT op_index field at line 1, column 3");
  EXPECT_EQ(error_message([] {
              std::stringstream ss("0 0 0 read 0 8 0 1 2 x\n");
              (void)trace::read_dxt(ss);
            }),
            "malformed DXT target cell: 'x' at line 1, column 10");
}

TEST(DxtExport, V2ErrorsNameLineAndColumn) {
  // Version-2 pins: job rank op_index type file offset bytes start end
  // path stripes hint targets...
  EXPECT_EQ(error_message([] {
              std::stringstream ss("# DXT qif 2\n0 0 0 read x 0 8 1000 2000 - 0 -1 1\n");
              (void)trace::read_dxt(ss);
            }),
            "malformed DXT file cell: 'x' at line 2, column 5");
  EXPECT_EQ(error_message([] {
              std::stringstream ss("# DXT qif 2\n0 0 0 read 7 0 8 1000 2000\n");
              (void)trace::read_dxt(ss);
            }),
            "missing DXT path field at line 2, column 10");
  EXPECT_EQ(error_message([] {
              std::stringstream ss("# DXT qif 3\n");
              (void)trace::read_dxt(ss);
            }),
            "unsupported DXT version 3 at line 1 (reader supports 1 and 2)");
  EXPECT_EQ(error_message([] {
              // A record parsed as v1, then a v2 header: the dump lies
              // about itself and must be rejected, not reinterpreted.
              std::stringstream ss("0 0 0 read 0 8 0 1 1\n# DXT qif 2\n");
              (void)trace::read_dxt(ss);
            }),
            "conflicting DXT version header at line 2");
}

TEST(DatasetCsv, ErrorsNameLineAndColumn) {
  const std::string header = "window_index,label,degradation,s0.f0,s0.f1\n";
  // Cells are 1-based columns; the header is line 1.
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(header + "1,0,1.0,2.0,3.0\n2,0,1.0,2.0,nope\n");
              (void)read_dataset_csv(ss);
            }),
            "malformed CSV feature cell: 'nope' at line 3, column 5");
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(header + "banana,0,1.0,2.0,3.0\n");
              (void)read_dataset_csv(ss);
            }),
            "malformed CSV window_index cell: 'banana' at line 2, column 1");
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(header + "1,0\n");
              (void)read_dataset_csv(ss);
            }),
            "truncated CSV row at line 2, column 3");
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(header + "1,0,,2.0,3.0\n");
              (void)read_dataset_csv(ss);
            }),
            "empty CSV degradation cell at line 2, column 3");
}

Dataset tiny_dataset() {
  Dataset ds(2, 3);
  for (int i = 0; i < 4; ++i) {
    double* f = ds.append_row(i * 10, i % 2, 1.0 + i * 0.75);
    f[0] = 1.5 * i;
    f[1] = -2.0;
    f[2] = 3.25;
    f[3] = 0.0;
    f[4] = 1e9 + i;
    f[5] = 1.0 / 3.0;
  }
  return ds;
}

void expect_equal_datasets(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.n_servers(), b.n_servers());
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.window_index(i), b.window_index(i));
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_DOUBLE_EQ(a.degradation(i), b.degradation(i));
    for (std::size_t f = 0; f < a.width(); ++f) {
      EXPECT_DOUBLE_EQ(a.row(i)[f], b.row(i)[f]) << "row " << i << " col " << f;
    }
  }
}

TEST(DatasetCsv, RoundTripPreservesShapeAndValues) {
  const Dataset ds = tiny_dataset();
  std::stringstream ss;
  write_dataset_csv(ss, ds);
  const Dataset loaded = read_dataset_csv(ss);
  EXPECT_EQ(loaded.n_servers(), 2);
  EXPECT_EQ(loaded.dim(), 3);
  ASSERT_EQ(loaded.size(), 4u);
  expect_equal_datasets(loaded, ds);
}

TEST(DatasetCsv, HeaderNamesStandardSchemaFeatures) {
  Dataset ds(1, MetricSchema::kPerServerDim);
  ds.append_row(0, 0, 0.0);
  std::stringstream ss;
  write_dataset_csv(ss, ds);
  std::string header;
  std::getline(ss, header);
  EXPECT_NE(header.find("s0.cli_n_read"), std::string::npos);
  EXPECT_NE(header.find("s0.srv_weighted_queue_ticks_std"), std::string::npos);
}

TEST(DatasetCsv, RejectsEmptyAndMalformed) {
  {
    std::stringstream ss("");
    EXPECT_THROW(read_dataset_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss("window_index,label,degradation\n");  // no features
    EXPECT_THROW(read_dataset_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss("window_index,label,degradation,s0.f0,s0.f1\n1,0,1.0,2.0\n");
    EXPECT_THROW(read_dataset_csv(ss), std::runtime_error);  // row too short
  }
}

TEST(DatasetCsv, RejectsMalformedCells) {
  // Strict parsing: garbage must throw, not decay to 0 like atoll/atof did.
  const std::string header = "window_index,label,degradation,s0.f0,s0.f1\n";
  const char* bad_rows[] = {
      "banana,0,1.0,2.0,3.0\n",   // non-numeric window index
      "1x,0,1.0,2.0,3.0\n",       // trailing junk in an integer cell
      "1,zero,1.0,2.0,3.0\n",     // non-numeric label
      "1,0,1.0q,2.0,3.0\n",       // trailing junk in a double cell
      "1,0,1.0,2.0,\n",           // empty feature cell
      "1,0,1.0,2.0,nope\n",       // non-numeric feature
  };
  for (const char* row : bad_rows) {
    std::stringstream ss(header + row);
    EXPECT_THROW(read_dataset_csv(ss), std::runtime_error) << "row: " << row;
  }
  // The same cells, well-formed, parse fine.
  std::stringstream ok(header + "1,0,1.0,2.0,3.0\n");
  const Dataset ds = read_dataset_csv(ok);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_DOUBLE_EQ(ds.row(0)[1], 3.0);
}

TEST(DatasetQds, RoundTripIsByteIdentical) {
  const Dataset ds = tiny_dataset();
  std::stringstream first;
  write_dataset_qds(first, ds);
  const Dataset loaded = read_dataset_qds(first);
  expect_equal_datasets(loaded, ds);

  // Write -> read -> write must reproduce the file byte for byte.
  std::stringstream second;
  write_dataset_qds(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(DatasetQds, RoundTripsEmptyAndSchemaWidthTables) {
  {
    Dataset empty(3, 4);
    std::stringstream ss;
    write_dataset_qds(ss, empty);
    const Dataset loaded = read_dataset_qds(ss);
    EXPECT_EQ(loaded.n_servers(), 3);
    EXPECT_EQ(loaded.dim(), 4);
    EXPECT_EQ(loaded.size(), 0u);
  }
  {
    Dataset ds(2, MetricSchema::kPerServerDim);
    double* f = ds.append_row(7, 1, 2.5);
    f[0] = 42.0;
    std::stringstream ss;
    write_dataset_qds(ss, ds);
    const Dataset loaded = read_dataset_qds(ss);
    expect_equal_datasets(loaded, ds);
  }
}

TEST(DatasetQds, RejectsTruncation) {
  const Dataset ds = tiny_dataset();
  std::stringstream ss;
  write_dataset_qds(ss, ds);
  const std::string full = ss.str();
  // Every strict prefix must be rejected (spot-check a spread of cuts).
  for (const std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{24},
                                std::size_t{8}, std::size_t{3}, std::size_t{0}}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(read_dataset_qds(truncated), std::runtime_error) << "cut=" << cut;
  }
}

TEST(DatasetQds, RejectsBadMagicVersionAndHeader) {
  const Dataset ds = tiny_dataset();
  std::stringstream ss;
  write_dataset_qds(ss, ds);
  const std::string full = ss.str();
  {
    std::string bad = full;
    bad[0] = 'x';  // magic
    std::stringstream s(bad);
    EXPECT_THROW(read_dataset_qds(s), std::runtime_error);
  }
  {
    std::string bad = full;
    bad[8] = static_cast<char>(0x7f);  // version
    std::stringstream s(bad);
    EXPECT_THROW(read_dataset_qds(s), std::runtime_error);
  }
  {
    std::string bad = full;
    bad[20] = static_cast<char>(0xff);  // n_servers -> nonsense (also checksum)
    std::stringstream s(bad);
    EXPECT_THROW(read_dataset_qds(s), std::runtime_error);
  }
}

TEST(DatasetQds, RejectsChecksumMismatch) {
  const Dataset ds = tiny_dataset();
  std::stringstream ss;
  write_dataset_qds(ss, ds);
  std::string full = ss.str();
  // Flip one bit in the middle of the feature block: header still parses,
  // only the trailing checksum catches it.
  full[full.size() / 2] = static_cast<char>(full[full.size() / 2] ^ 0x01);
  std::stringstream corrupted(full);
  EXPECT_THROW(read_dataset_qds(corrupted), std::runtime_error);
}

TEST(DatasetQds, LegacyV1WriterStillRoundTrips) {
  // Version 1 stays writable (for downgrades) and readable forever.
  const Dataset ds = tiny_dataset();
  QdsWriteOptions opts;
  opts.version = 1;
  std::stringstream ss;
  write_dataset_qds(ss, ds, opts);
  const Dataset loaded = read_dataset_qds(ss);
  expect_equal_datasets(loaded, ds);
}

TEST(DatasetQds, CompressedRoundTripPreservesEveryValue) {
  Dataset ds(2, MetricSchema::kPerServerDim);
  sim::Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    double* f = ds.append_row(i, i % 3, 0.25 * i);
    // Half the columns constant so compression actually engages.
    for (std::size_t j = 0; j < ds.width(); ++j) {
      f[j] = (j % 2 == 0) ? 1.0 : rng.uniform(-10.0, 10.0);
    }
  }
  QdsWriteOptions opts;
  opts.codec = QdsCodec::kQlz;
  std::stringstream plain;
  std::stringstream packed;
  write_dataset_qds(plain, ds);
  write_dataset_qds(packed, ds, opts);
  EXPECT_LT(packed.str().size(), plain.str().size());
  const Dataset loaded = read_dataset_qds(packed);
  expect_equal_datasets(loaded, ds);
}

TEST(DatasetQds, InspectReportsZeroCopyOnlyForRawV2) {
  const Dataset ds = tiny_dataset();
  std::stringstream v2;
  write_dataset_qds(v2, ds);
  const std::string img = v2.str();
  EXPECT_TRUE(inspect_dataset_qds(img.data(), img.size()).zero_copy);

  QdsWriteOptions v1_opts;
  v1_opts.version = 1;
  std::stringstream v1;
  write_dataset_qds(v1, ds, v1_opts);
  const std::string img1 = v1.str();
  EXPECT_FALSE(inspect_dataset_qds(img1.data(), img1.size()).zero_copy);
}

TEST(DatasetAuto, EmptyAndShorterThanMagicStreamsNameTheProblem) {
  // Satellite pin: a zero-byte file must say "empty", and a sub-magic
  // prefix must say "truncated" — not a generic read failure.
  {
    std::stringstream empty;
    try {
      (void)read_dataset_auto(empty);
      FAIL() << "empty stream loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("empty dataset"), std::string::npos)
          << e.what();
    }
  }
  for (std::size_t n = 1; n < 8; ++n) {
    std::stringstream shorty(std::string(n, 'q'));
    try {
      (void)read_dataset_auto(shorty);
      FAIL() << "sub-magic stream of " << n << " bytes loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated dataset"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DatasetAuto, DispatchesOnLeadingBytes) {
  const Dataset ds = tiny_dataset();
  {
    std::stringstream ss;
    write_dataset_qds(ss, ds);
    EXPECT_TRUE(is_qds_magic(ss.str().data(), 8));
    const Dataset loaded = read_dataset_auto(ss);
    expect_equal_datasets(loaded, ds);
  }
  {
    std::stringstream ss;
    write_dataset_csv(ss, ds);
    EXPECT_FALSE(is_qds_magic(ss.str().data(), 8));
    const Dataset loaded = read_dataset_auto(ss);
    expect_equal_datasets(loaded, ds);
  }
}

}  // namespace
}  // namespace qif::monitor
