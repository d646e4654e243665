// In-memory span recorder for the traced run.
//
// A span is a named interval at a layer boundary: the benchmark opens one
// around each public call it makes into a qif module, so the recorder sees
// the program from outside.  Spans nest through an open-span stack (the
// parent of a new span is the innermost open one), are kept in memory, and
// are written once at exit as Chrome trace-event JSON.  When recording is
// off a scope still measures its own duration (the driver needs stage times
// in untraced runs too) but stores nothing.
//
// Spans are opened and closed on the driver thread only: every call the
// benchmark wraps — including the per-campaign runner hook, which the
// dataset builders invoke on their caller's thread — runs there.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qif_bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// steady_clock nanoseconds since its epoch — the clock qif::serve stamps
/// request completions with.
[[nodiscard]] inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
    std::uint64_t parent = 0;  ///< enclosing span, 0 at the top level
    std::string name;
    std::string layer;         ///< qif module the call belongs to
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t tag = -1;     ///< case index or request id, -1 when none
    bool recorded = false;     ///< made by record(): drawn on its own track
  };

  /// Times one interval.  Adds its seconds to `*accumulate` (when given)
  /// and, if the recorder is on, stores a span when it closes.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name, std::string_view layer,
          double* accumulate, std::int64_t tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanRecorder& recorder_;
    double* accumulate_;
    std::int64_t start_ns_;
    std::size_t index_ = 0;  ///< slot in recorder_.spans_ (recording only)
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Turns recording on or off; only while no scope is open.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a scope; see Scope.
  [[nodiscard]] Scope scope(std::string_view name, std::string_view layer,
                            double* accumulate = nullptr, std::int64_t tag = -1) {
    return Scope(*this, name, layer, accumulate, tag);
  }

  /// Stores an interval measured elsewhere (a request from its due time to
  /// its completion stamp) as a child of the innermost open span.
  void record(std::string_view name, std::string_view layer, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t tag);

  /// Id of the most recently opened span named `name`, 0 if none.
  [[nodiscard]] std::uint64_t last_id(std::string_view name) const;

  /// Share of span `root`'s duration spent inside the innermost scopes
  /// below it — the public calls the benchmark wraps.  What is left is time
  /// no layer span accounts for.
  [[nodiscard]] double coverage(std::uint64_t root) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span).
  void write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] bool below(const Span& span, std::uint64_t root) const;
  /// Duration of span `id` in seconds.
  [[nodiscard]] double seconds(std::uint64_t id) const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;  ///< ids of open spans, innermost last
};

}  // namespace qif_bench
