#include "qif/trace/dxt.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "qif/pfs/types.hpp"
#include "qif/trace/text_cursor.hpp"

namespace qif::trace {
namespace {

pfs::OpType op_from_name(std::string_view name, std::int64_t line, std::int64_t column) {
  for (int i = 0; i < pfs::kNumOpTypes; ++i) {
    const auto t = static_cast<pfs::OpType>(i);
    if (name == pfs::op_name(t)) return t;
  }
  throw std::runtime_error("unknown op type in DXT dump: '" + std::string(name) +
                           "' at line " + std::to_string(line) + ", column " +
                           std::to_string(column));
}

// An empty path serializes as "-" so the column count stays fixed; a real
// path must be whitespace-free for the same reason, and may not be "-"
// itself, which would read back as empty.
constexpr std::string_view kEmptyPath = "-";

void check_path_writable(std::string_view path) {
  if (path == kEmptyPath) {
    throw std::invalid_argument("DXT path '-' is reserved for an empty path");
  }
  for (const char c : path) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      throw std::invalid_argument("DXT path contains whitespace: '" + std::string(path) + "'");
    }
  }
}

}  // namespace

void write_dxt(std::ostream& os, const TraceLog& log) {
  os << "# DXT qif " << kDxtVersion << "\n";
  os << "# job rank op_index type file offset bytes start_ns end_ns path stripes hint"
        " targets...\n";
  for (const OpRecord& r : log.records()) {
    const std::string_view path = r.replay.path();
    check_path_writable(path);
    os << r.job << ' ' << r.rank << ' ' << r.op_index << ' ' << pfs::op_name(r.type)
       << ' ' << r.file << ' ' << r.offset << ' ' << r.bytes << ' ' << r.start << ' '
       << r.end << ' ' << (path.empty() ? kEmptyPath : path) << ' ' << r.replay.stripes()
       << ' ' << r.replay.stripe_hint();
    for (const auto t : r.targets) os << ' ' << t;
    os << '\n';
  }
}

trace::TraceLog read_dxt(std::istream& is) {
  TraceLog log;
  std::string line;
  std::int64_t line_no = 0;
  int version = 1;  // headerless dumps predate the version header
  bool saw_line = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // The version header must precede every record to take effect; a
      // late or repeated one on already-parsed input is still just a
      // comment if it matches the current version, but a conflicting one
      // mid-file is a malformed dump.
      constexpr std::string_view kHeader = "# DXT qif ";
      if (std::string_view(line).substr(0, kHeader.size()) == kHeader) {
        const std::string_view ver = std::string_view(line).substr(kHeader.size());
        const int v = parse_int_cell<int>(ver, "DXT version", line_no, 4);
        if (v != 1 && v != 2) {
          throw std::runtime_error("unsupported DXT version " + std::to_string(v) +
                                   " at line " + std::to_string(line_no) +
                                   " (reader supports 1 and 2)");
        }
        if (saw_line && v != version) {
          throw std::runtime_error("conflicting DXT version header at line " +
                                   std::to_string(line_no));
        }
        version = v;
      }
      continue;
    }
    saw_line = true;
    FieldCursor fields{line, line_no};
    OpRecord r;
    r.job = fields.next_int<std::int32_t>("DXT job");
    r.rank = fields.next_int<pfs::Rank>("DXT rank");
    r.op_index = fields.next_int<std::int64_t>("DXT op_index");
    const std::string_view type = fields.next();
    if (type.empty()) {
      throw std::runtime_error("missing DXT op type field at line " +
                               std::to_string(line_no) + ", column " +
                               std::to_string(fields.column + 1));
    }
    r.type = op_from_name(type, line_no, fields.column);
    if (version >= 2) r.file = fields.next_int<pfs::FileId>("DXT file");
    r.offset = fields.next_int<std::int64_t>("DXT offset");
    r.bytes = fields.next_int<std::int64_t>("DXT bytes");
    r.start = fields.next_int<sim::SimTime>("DXT start");
    r.end = fields.next_int<sim::SimTime>("DXT end");
    if (version >= 2) {
      std::string_view path = fields.next_required("DXT path");
      if (path == kEmptyPath) path = {};
      const auto stripes = fields.next_int<std::int32_t>("DXT stripes");
      const auto stripe_hint = fields.next_int<std::int32_t>("DXT stripe_hint");
      r.replay = ReplayColumns(path, stripes, stripe_hint);
    }
    // Every remaining token is a target server id; "1 2 x" must throw with
    // the position of "x", not drop it.
    for (std::string_view tok = fields.next(); !tok.empty(); tok = fields.next()) {
      r.targets.push_back(
          parse_int_cell<std::int16_t>(tok, "DXT target", line_no, fields.column));
    }
    log.record(std::move(r));
  }
  return log;
}

trace::TraceLog read_dxt_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file " + path);
  return read_dxt(in);
}

}  // namespace qif::trace
