#include "qif/ctrl/mitigator.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

namespace qif::ctrl {
namespace {

/// Self-rescheduling decision tick on the client's engine.  The tick event
/// is minted under the client's entity context (schedule_after_ctx), so in
/// lane mode its key — and the key of everything the decision causes — is
/// partition-independent.
void schedule_tick(sim::Simulation& s, std::uint32_t ctx, Controller* c,
                   sim::SimDuration epoch) {
  s.schedule_after_ctx(epoch, ctx, [&s, ctx, c, epoch] {
    c->on_epoch(s.now());
    schedule_tick(s, ctx, c, epoch);
  });
}

/// Nearest-rank p99; reorders `durations`.
double p99_ms(std::vector<sim::SimDuration>& durations) {
  if (durations.empty()) return 0.0;
  const auto p99 =
      durations.begin() + static_cast<std::ptrdiff_t>((durations.size() - 1) * 99 / 100);
  std::nth_element(durations.begin(), p99, durations.end());
  return sim::to_millis(*p99);
}

}  // namespace

Mitigator::Mitigator(pfs::Cluster& cluster, const MitigationConfig& config)
    : cluster_(cluster), config_(config) {
  if (config_.empty()) {
    throw std::invalid_argument("Mitigator: policy is off (gate on config.empty())");
  }
  cluster_.set_gate_factory([this](pfs::PfsClient& client) -> pfs::AdmissionGate* {
    if (config_.scope == Scope::kNoise && client.job() == 0) return nullptr;
    return attach(client);
  });
}

Mitigator::~Mitigator() { cluster_.set_gate_factory(nullptr); }

pfs::AdmissionGate* Mitigator::attach(pfs::PfsClient& client) {
  sim::Simulation& s = client.sim();
  // Per-client exploration stream, derived from stable ids — identical for
  // every --jobs / --lanes partition of the same scenario.
  const std::uint64_t seed = sim::Rng::derive_seed(
      cluster_.config().seed, "ctrl/n" + std::to_string(client.node()) + "/r" +
                                  std::to_string(client.rank()) + "/j" +
                                  std::to_string(client.job()));
  Slot slot;
  slot.controller = make_controller(config_, cluster_.config().n_oss, s.now(), seed);
  slot.node = client.node();
  slot.job = client.job();
  if (board_active_) slot.controller->set_flag_board(&board_);
  Controller* c = slot.controller.get();
  slots_.push_back(std::move(slot));
  const std::uint32_t ctx = cluster_.ctx_of_node(client.node());
  // Setup-time scheduling: the first tick's key must be minted under the
  // client's entity counter (schedule_after_ctx only sets the *execution*
  // context; the mint uses the engine's current one — the JobInstance
  // kickoff pattern).  Later ticks reschedule from inside the tick event,
  // where the executing context is already the client's.
  if (cluster_.lane_mode()) s.set_context(ctx);
  schedule_tick(s, ctx, c, config_.epoch);
  return c;
}

void Mitigator::set_external_flags(std::vector<std::uint8_t> per_port_flags) {
  if (cluster_.lane_mode()) {
    throw std::logic_error(
        "Mitigator::set_external_flags: the shared flag board is classic-mode "
        "only (lane partitions would race on it); lane runs use the per-client "
        "self-signal");
  }
  board_.flags = std::move(per_port_flags);
  if (!board_active_) {
    board_active_ = true;
    for (Slot& slot : slots_) slot.controller->set_flag_board(&board_);
  }
}

MitigationReport Mitigator::report(const trace::TraceLog& trace,
                                   sim::SimDuration window) const {
  MitigationReport r;
  r.policy = to_spec(config_);
  r.controllers = static_cast<int>(slots_.size());

  std::map<std::int64_t, WindowCtrl> windows;
  std::int64_t level_sum = 0;
  std::int64_t level_rows = 0;
  std::map<std::int64_t, std::int64_t> window_level_sum;
  std::map<std::int64_t, std::int64_t> window_level_rows;
  for (const Slot& slot : slots_) {
    for (const EpochRow& row : slot.controller->epochs()) {
      // Epoch i closes at (i + 1) * epoch; assign it to the monitor window
      // containing its last instant (identity when epoch == window).
      const std::int64_t w = ((row.epoch + 1) * config_.epoch - 1) / window;
      WindowCtrl& cell = windows[w];
      cell.window_index = w;
      cell.throttle_waits += row.throttle_waits;
      cell.throttled_bytes += row.throttled_bytes;
      cell.throttle_delay_s += sim::to_seconds(row.throttle_delay);
      if (row.flagged) ++cell.flagged_controllers;
      window_level_sum[w] += row.admission_level;
      ++window_level_rows[w];
      r.throttle_waits += row.throttle_waits;
      r.throttled_bytes += row.throttled_bytes;
      r.throttle_delay_s += sim::to_seconds(row.throttle_delay);
      level_sum += row.admission_level;
      ++level_rows;
    }
  }
  r.mean_admission_level =
      level_rows > 0 ? static_cast<double>(level_sum) / static_cast<double>(level_rows)
                     : 0.0;

  // Victim latency: the monitored job's op durations, whole-run and per
  // window (grouped by completion time).
  std::vector<sim::SimDuration> all;
  std::map<std::int64_t, std::vector<sim::SimDuration>> per_window;
  for (const trace::OpRecord& rec : trace.records()) {
    if (rec.job != 0) continue;
    all.push_back(rec.duration());
    per_window[rec.end / window].push_back(rec.duration());
  }
  r.victim_p99_ms = p99_ms(all);
  for (auto& [w, durations] : per_window) {
    WindowCtrl& cell = windows[w];  // may create a victim-only row
    cell.window_index = w;
    cell.victim_p99_ms = p99_ms(durations);
  }
  for (auto& [w, cell] : windows) {
    const std::int64_t rows = window_level_rows[w];
    cell.mean_admission_level =
        rows > 0 ? static_cast<double>(window_level_sum[w]) / static_cast<double>(rows)
                 : 0.0;
    r.windows.push_back(cell);
  }
  return r;
}

double Mitigator::victim_p99_ms(const trace::TraceLog& trace, std::int32_t job) {
  std::vector<sim::SimDuration> durations;
  for (const trace::OpRecord& rec : trace.records()) {
    if (rec.job == job) durations.push_back(rec.duration());
  }
  return p99_ms(durations);
}

}  // namespace qif::ctrl
