#include "qif/workloads/ior.hpp"

namespace qif::workloads {

RankProgram build_ior_program(const IorConfig& config, pfs::Rank rank, int n_ranks,
                              std::int32_t job) {
  RankProgram prog;
  // easy uses 4 MiB transfers (the common tuned IO500 setting; deep enough
  // to keep several RPCs in flight per stream), hard the mandated 47008 B.
  const std::int64_t xfer =
      config.transfer_bytes > 0 ? config.transfer_bytes : (config.hard ? 47008 : 1 << 20);
  const std::string file = config.hard
                               ? config.dir + "/job" + std::to_string(job) + "/shared"
                               : config.dir + "/job" + std::to_string(job) + "/rank" +
                                     std::to_string(rank);
  // easy: one stripe per file (IO500 sets stripe_count=1 for ior-easy);
  // hard: stripe the shared file across every OST.
  const int stripes = config.hard ? 0 : 1;

  auto emit_transfers = [&](OpSeq& seq, bool write) {
    for (int i = 0; i < config.n_transfers; ++i) {
      OpSpec op;
      op.kind = write ? OpSpec::Kind::kWrite : OpSpec::Kind::kRead;
      op.slot = 0;
      op.len = xfer;
      // easy: sequential within the rank's own file.
      // hard: segmented layout — segment i holds one transfer per rank.
      op.offset = config.hard
                      ? (static_cast<std::int64_t>(i) * n_ranks + rank) * xfer
                      : static_cast<std::int64_t>(i) * xfer;
      seq.push_back(std::move(op));
    }
  };

  // File-per-process runs pin the starting OST (lfs setstripe -i) so the
  // job's own files never bunch; the mix of job and rank also spreads
  // concurrent instances.
  const int hint = config.hard ? -1 : job * 131 + rank;

  if (config.write) {
    OpSpec create;
    create.kind = OpSpec::Kind::kCreate;
    create.path = file;
    create.slot = 0;
    create.stripes = stripes;
    create.stripe_hint = hint;
    prog.body.push_back(create);
    emit_transfers(prog.body, /*write=*/true);
    OpSpec close;
    close.kind = OpSpec::Kind::kClose;
    close.slot = 0;
    prog.body.push_back(close);
  } else {
    // Read phase: the file must exist with a layout before the first open,
    // so the prologue creates (and closes) it once.  The data itself never
    // needs to be written — reads are cold media accesses either way.
    OpSpec create;
    create.kind = OpSpec::Kind::kCreate;
    create.path = file;
    create.slot = 0;
    create.stripes = stripes;
    create.stripe_hint = hint;
    prog.prologue.push_back(create);
    OpSpec close;
    close.kind = OpSpec::Kind::kClose;
    close.slot = 0;
    prog.prologue.push_back(close);

    OpSpec open;
    open.kind = OpSpec::Kind::kOpen;
    open.path = file;
    open.slot = 0;
    prog.body.push_back(open);
    emit_transfers(prog.body, /*write=*/false);
    prog.body.push_back(close);
  }
  prog.max_slot = 0;
  return prog;
}

}  // namespace qif::workloads
