// Workload registry: builds any workload's rank program by name.
//
// The registry is a pluggable factory: every workload — built-in generator,
// replayed trace, checkpoint model, or serialized `.qwp` program — is a
// *builder* registered under a name, and `build_named_program` is nothing
// but a lookup plus a call.  Two kinds of entries exist:
//
//  * exact names ("enzo", "ior-easy-write", ...): the canonical catalogue,
//  * prefixes ("trace", "ckpt", "qwp"): parameterized families resolved
//    from "<prefix>:<arg>" — e.g. "trace:run.dxt@asap" or
//    "ckpt:4g,2g,3600".
//
// Canonical names (the IO500 seven use the paper's Table I labels):
//   ior-easy-read, ior-hard-read, mdt-hard-read, ior-easy-write,
//   ior-hard-write, mdt-easy-write, mdt-hard-write,
//   io500-suite (the 7 tasks chronologically, as one phased application),
//   dlio-unet3d, dlio-bert, enzo, amrex, openpmd
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "qif/pfs/types.hpp"
#include "qif/workloads/program.hpp"

namespace qif::workloads {

/// Everything a builder may condition on.  The determinism contract holds
/// here: builders draw all randomness from `seed` while constructing the
/// program, never at run time.
struct WorkloadContext {
  pfs::Rank rank = 0;
  int n_ranks = 1;
  std::int32_t job = 0;
  std::uint64_t seed = 0;
  double scale = 1.0;
};

/// Builds one rank's program.  `arg` is the text after the colon for
/// prefix entries ("trace:run.dxt" passes "run.dxt"); always empty for
/// exact-name entries.
using WorkloadBuilder =
    std::function<RankProgram(const std::string& arg, const WorkloadContext& ctx)>;

/// Registers (or replaces) an exact-name workload.  Thread-safe.
void register_workload(const std::string& name, WorkloadBuilder builder);

/// Registers (or replaces) a parameterized family matched as
/// "<prefix>:<arg>".  `arg_help` documents the argument shape in listings
/// and unknown-name errors (e.g. "FILE[@original|@asap|@scale=X]").
void register_workload_prefix(const std::string& prefix, const std::string& arg_help,
                              WorkloadBuilder builder);

/// All exact workload names in registration order — the canonical
/// catalogue first (IO500 tasks in Table I row order), then anything
/// registered afterwards.
[[nodiscard]] std::vector<std::string> known_workloads();

/// All registered prefixes as (prefix, arg_help) pairs.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> known_workload_prefixes();

/// The 7 IO500 task names of Table I, in the paper's row/column order.
[[nodiscard]] const std::vector<std::string>& io500_tasks();

/// Per-rank op-index ranges [begin, end) of each phase of the
/// "io500-suite" workload (the 7 tasks run chronologically, the paper's
/// §II scenario).  Phase p covers ops with op_index in ranges[p].
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> io500_suite_phase_ranges(
    int n_ranks, std::uint64_t seed, double scale);

/// True for an exact registered name, or "<prefix>:<arg>" with a
/// registered prefix (the arg itself is validated at build time).
[[nodiscard]] bool is_known_workload(const std::string& name);

/// The one-stop diagnostic for a name that failed lookup: names the
/// offender and lists every canonical name and parameterized form.
[[nodiscard]] std::string workload_name_error(const std::string& name);

/// Builds rank `rank`'s program for workload `name` in a job of `n_ranks`
/// ranks.  `scale` multiplies the per-iteration op counts (transfers,
/// files, steps), letting campaigns trade run length for coverage.
/// Throws std::invalid_argument for unknown names (workload_name_error)
/// and for a scale that is not a positive finite number; prefix builders
/// throw std::runtime_error for bad arguments.
[[nodiscard]] RankProgram build_named_program(const std::string& name, pfs::Rank rank,
                                              int n_ranks, std::int32_t job,
                                              std::uint64_t seed, double scale = 1.0);

}  // namespace qif::workloads
