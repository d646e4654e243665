#include "qif/workloads/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "qif/sim/time.hpp"

namespace qif::workloads {
namespace {

constexpr const char* kArgShape = "ckpt:SIZE,BW,MTTI (e.g. ckpt:4g,2g,3600)";

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

int scaled(int base, double scale) {
  return std::max(1, static_cast<int>(std::lround(base * scale)));
}

/// Parses "<number><suffix>" where the suffixes scale by `k/m/g/t` binary
/// powers (unit = bytes) or `s/m/h` (unit = seconds).
double parse_suffixed(const std::string& tok, const char* what, bool time_units) {
  if (tok.empty()) fail(std::string("empty ") + what + " in " + kArgShape);
  char* end = nullptr;
  double value = std::strtod(tok.c_str(), &end);
  std::string suffix(end);
  if (!suffix.empty() && suffix.size() == 1) {
    const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(suffix[0])));
    if (time_units) {
      if (c == 's') value *= 1.0;
      else if (c == 'm') value *= 60.0;
      else if (c == 'h') value *= 3600.0;
      else end = nullptr;
    } else {
      if (c == 'k') value *= 1024.0;
      else if (c == 'm') value *= 1024.0 * 1024.0;
      else if (c == 'g') value *= 1024.0 * 1024.0 * 1024.0;
      else if (c == 't') value *= 1024.0 * 1024.0 * 1024.0 * 1024.0;
      else end = nullptr;
    }
    if (end != nullptr) suffix.clear();
  }
  if (end == tok.c_str() || !suffix.empty()) {
    fail(std::string("malformed ") + what + " '" + tok + "' in " + kArgShape);
  }
  if (!(value > 0.0)) {
    fail(std::string(what) + " must be positive: '" + tok + "' in " + kArgShape);
  }
  return value;
}

}  // namespace

double daly_optimal_interval_s(double delta_s, double mtti_s) {
  // Daly 2006, eq. (20): below the crossover the higher-order series;
  // at/above it the optimum saturates at the MTTI itself.
  if (delta_s >= 2.0 * mtti_s) return mtti_s;
  const double x = delta_s / (2.0 * mtti_s);
  return std::sqrt(2.0 * delta_s * mtti_s) * (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
         delta_s;
}

CheckpointConfig parse_checkpoint_arg(const std::string& arg) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= arg.size()) {
    const std::size_t comma = arg.find(',', begin);
    if (comma == std::string::npos) {
      parts.push_back(arg.substr(begin));
      break;
    }
    parts.push_back(arg.substr(begin, comma - begin));
    begin = comma + 1;
  }
  if (parts.size() != 3) {
    fail("checkpoint workload needs " + std::string(kArgShape) + ": got '" + arg + "'");
  }
  CheckpointConfig cfg;
  cfg.bytes = static_cast<std::int64_t>(
      std::llround(parse_suffixed(parts[0], "checkpoint size", /*time_units=*/false)));
  cfg.bandwidth_Bps = parse_suffixed(parts[1], "checkpoint bandwidth", /*time_units=*/false);
  cfg.mtti_s = parse_suffixed(parts[2], "checkpoint MTTI", /*time_units=*/true);
  if (cfg.bytes <= 0) fail("checkpoint size rounds to zero bytes: '" + parts[0] + "'");
  return cfg;
}

RankProgram build_checkpoint_program(const CheckpointConfig& config, pfs::Rank rank,
                                     std::int32_t job, double scale) {
  if (config.bytes <= 0 || !(config.bandwidth_Bps > 0.0) || !(config.mtti_s > 0.0) ||
      config.transfer <= 0) {
    fail("checkpoint config needs positive size, bandwidth, MTTI and transfer");
  }
  const double delta_s = static_cast<double>(config.bytes) / config.bandwidth_Bps;
  const sim::SimDuration tau =
      sim::from_seconds(daly_optimal_interval_s(delta_s, config.mtti_s));
  const std::string base =
      config.dir + "/job" + std::to_string(job) + ".rank" + std::to_string(rank);
  const int stripe_hint = static_cast<int>(job) * 131 + static_cast<int>(rank);

  RankProgram p;
  p.max_slot = 0;
  const auto transfers = [&](OpSeq& seq, OpSpec::Kind kind) {
    for (std::int64_t off = 0; off < config.bytes; off += config.transfer) {
      OpSpec io;
      io.kind = kind;
      io.slot = 0;
      io.offset = off;
      io.len = std::min<std::int64_t>(config.transfer, config.bytes - off);
      seq.push_back(std::move(io));
    }
  };
  const auto file_op = [&](OpSeq& seq, OpSpec::Kind kind,
                           const std::string& path) {
    OpSpec op;
    op.kind = kind;
    op.path = path;
    op.slot = 0;
    if (kind == OpSpec::Kind::kCreate) {
      op.stripes = 1;  // N-N defensive dumps stripe each rank file once
      op.stripe_hint = stripe_hint;
    }
    seq.push_back(std::move(op));
  };

  // Prologue: the job writes its initial restart dump, then reads it back —
  // the restart-load phase of a checkpoint/restart cycle.
  const std::string restart = base + ".restart";
  file_op(p.prologue, OpSpec::Kind::kCreate, restart);
  transfers(p.prologue, OpSpec::Kind::kWrite);
  file_op(p.prologue, OpSpec::Kind::kClose, "");
  file_op(p.prologue, OpSpec::Kind::kOpen, restart);
  transfers(p.prologue, OpSpec::Kind::kRead);
  file_op(p.prologue, OpSpec::Kind::kClose, "");

  // Body: compute for Daly's tau, dump, repeat.
  const int cycles = scaled(config.cycles, scale);
  for (int k = 0; k < cycles; ++k) {
    OpSpec think;
    think.kind = OpSpec::Kind::kThink;
    think.think = tau;
    p.body.push_back(std::move(think));
    file_op(p.body, OpSpec::Kind::kCreate, base + ".c" + std::to_string(k));
    transfers(p.body, OpSpec::Kind::kWrite);
    file_op(p.body, OpSpec::Kind::kClose, "");
  }
  return p;
}

RankProgram build_checkpoint_rank(const std::string& arg, const WorkloadContext& ctx) {
  return build_checkpoint_program(parse_checkpoint_arg(arg), ctx.rank, ctx.job, ctx.scale);
}

}  // namespace qif::workloads
