// Tests for the .qwp workload-program IR: round-trip fidelity, the strict
// line/column diagnostics the reader promises, and a corruption fuzz pass
// asserting the checksum turns every single-byte defect into a detected
// error (this test also runs under ASan in tier1 alongside test_qds_fuzz).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "qif/workloads/program_io.hpp"
#include "qif/workloads/registry.hpp"

namespace qif::workloads {
namespace {

WorkloadProgram build_program(const std::string& name, int n_ranks, double scale) {
  WorkloadProgram prog;
  prog.workload = name;
  for (int r = 0; r < n_ranks; ++r) {
    prog.ranks.push_back(build_named_program(name, r, n_ranks, /*job=*/0, /*seed=*/1, scale));
  }
  return prog;
}

std::string serialize(const WorkloadProgram& prog) {
  std::ostringstream os;
  write_qwp(os, prog);
  return os.str();
}

WorkloadProgram parse(const std::string& text) {
  std::istringstream is(text);
  return read_qwp(is);
}

std::string expect_parse_error(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "parse accepted:\n" << text;
  return {};
}

TEST(Qwp, RoundTripsBuiltProgramsExactly) {
  for (const char* name : {"mdt-hard-write", "enzo", "ior-easy-read"}) {
    const WorkloadProgram prog = build_program(name, 3, 0.02);
    const std::string text = serialize(prog);
    const WorkloadProgram back = parse(text);
    EXPECT_EQ(back, prog) << name;
    // Serialization is canonical: a second trip is byte-identical.
    EXPECT_EQ(serialize(back), text) << name;
  }
}

// The checksum line of every catalogue workload's export (2 ranks,
// scale 1), pinned: however programs are stored in memory, `qif workloads
// export` must keep writing these exact bytes.
TEST(Qwp, CatalogueExportChecksumsArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"ior-easy-read", "29f615bce8015857"},  {"ior-hard-read", "1f831ce1662cd81a"},
      {"mdt-hard-read", "350a67b7feffd54c"},  {"ior-easy-write", "0bc753d578bc8d0b"},
      {"ior-hard-write", "94c46d46dbde2955"}, {"mdt-easy-write", "1b5bc7bd42c51ad9"},
      {"mdt-hard-write", "8829ac603380a3b9"}, {"io500-suite", "7a64e20e065ccb1c"},
      {"dlio-unet3d", "b9d2dac87013363e"},    {"dlio-bert", "6bfdd09ec5bdc94b"},
      {"enzo", "f7378e8ea11c3fbf"},           {"amrex", "aba7e14769d1f84c"},
      {"openpmd", "20bc2911488d70f9"},
  };
  std::map<std::string, std::string> got;
  for (const std::string& name : known_workloads()) {
    const std::string text = serialize(build_program(name, 2, 1.0));
    const auto pos = text.rfind("checksum ");
    ASSERT_NE(pos, std::string::npos) << name;
    got[name] = text.substr(pos + 9, 16);
  }
  EXPECT_EQ(got, pinned);
}

TEST(Qwp, ChecksumWildcardSkipsVerification) {
  std::string text = serialize(build_program("mdt-easy-write", 1, 0.02));
  const auto pos = text.rfind("checksum ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, text.size() - pos, "checksum -\n");
  const WorkloadProgram back = parse(text);
  EXPECT_EQ(back.workload, "mdt-easy-write");
  ASSERT_EQ(back.ranks.size(), 1u);
  EXPECT_FALSE(back.ranks[0].body.empty());
}

TEST(Qwp, WriterRejectsUnserializablePrograms) {
  EXPECT_THROW(serialize(WorkloadProgram{}), std::invalid_argument);

  WorkloadProgram spacey;
  spacey.ranks.emplace_back();
  OpSpec stat;
  stat.kind = OpSpec::Kind::kStat;
  stat.path = "/has space";
  spacey.ranks[0].body.push_back(stat);
  EXPECT_THROW(serialize(spacey), std::invalid_argument);

  WorkloadProgram sloppy;
  sloppy.ranks.emplace_back();
  OpSpec close;
  close.kind = OpSpec::Kind::kClose;
  close.slot = 7;  // above max_slot = 0
  sloppy.ranks[0].body.push_back(close);
  EXPECT_THROW(serialize(sloppy), std::invalid_argument);
}

TEST(Qwp, DiagnosticsNameLineAndColumn) {
  EXPECT_EQ(expect_parse_error(""),
            "qwp: missing '# qwp qif <version>' header at line 1");
  EXPECT_EQ(expect_parse_error("ranks 1\n"),
            "qwp: missing '# qwp qif <version>' header at line 1");
  EXPECT_EQ(expect_parse_error("# qwp qif 2\n"),
            "qwp: unsupported version 2 at line 1 (reader supports 1)");
  EXPECT_EQ(expect_parse_error("# qwp qif 1\nbogus x\n"),
            "qwp: expected 'workload NAME' or 'ranks N', got 'bogus' at line 2");
  EXPECT_EQ(expect_parse_error("# qwp qif 1\nranks 0\n"),
            "qwp: bad rank count 0 at line 2");
  EXPECT_EQ(expect_parse_error("# qwp qif 1\nranks 2\nrank 1\n"),
            "qwp: rank sections out of order: got rank 1, expected rank 0 at line 3");
  EXPECT_EQ(expect_parse_error(
                "# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\nfrob 1\n"),
            "qwp: unknown op 'frob' at line 7, column 1");
  EXPECT_EQ(expect_parse_error(
                "# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\nclose 5\n"),
            "qwp: slot 5 out of range [0, 0] at line 7");
  EXPECT_EQ(expect_parse_error(
                "# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\nchecksum XYZ\n"),
            "malformed qwp checksum cell: 'XYZ' at line 7, column 2");
  EXPECT_EQ(expect_parse_error("# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\n"),
            "qwp: truncated program (missing checksum) at line 7");
  EXPECT_EQ(expect_parse_error(
                "# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\nchecksum -\nextra\n"),
            "qwp: trailing garbage after checksum at line 8");

  const std::string mismatch = expect_parse_error(
      "# qwp qif 1\nranks 1\nrank 0\nslots 0\nprologue\nbody\n"
      "checksum 0123456789abcdef\n");
  EXPECT_NE(mismatch.find("qwp: checksum mismatch: file says 0123456789abcdef"),
            std::string::npos)
      << mismatch;
  EXPECT_NE(mismatch.find("(use 'checksum -' after hand-editing)"), std::string::npos)
      << mismatch;
}

TEST(Qwp, EveryByteFlipIsADetectedError) {
  const std::string text = serialize(build_program("mdt-easy-write", 2, 0.02));
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string mutated = text;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      EXPECT_THROW((void)parse(mutated), std::runtime_error)
          << "flip of byte " << i << " with mask " << int(mask) << " went undetected";
    }
  }
}

TEST(Qwp, EveryTruncationIsADetectedError) {
  const std::string text = serialize(build_program("mdt-easy-write", 2, 0.02));
  // Every proper prefix must be rejected — except dropping only the final
  // newline, which getline cannot observe.
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    EXPECT_THROW((void)parse(text.substr(0, len)), std::runtime_error)
        << "prefix of length " << len << " went undetected";
  }
  EXPECT_EQ(parse(text.substr(0, text.size() - 1)), parse(text));
}

}  // namespace
}  // namespace qif::workloads
