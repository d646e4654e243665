#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "json.hpp"

namespace qif_bench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string_view name,
                           std::string_view layer, double* accumulate, std::int64_t tag)
    : recorder_(recorder), accumulate_(accumulate), start_ns_(steady_ns()) {
  if (!recorder_.enabled_) return;
  Span span;
  span.id = recorder_.spans_.size() + 1;
  span.parent = recorder_.open_.empty() ? 0 : recorder_.open_.back();
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns_;
  span.tag = tag;
  index_ = recorder_.spans_.size();
  recorder_.spans_.push_back(std::move(span));
  recorder_.open_.push_back(recorder_.spans_.back().id);
}

SpanRecorder::Scope::~Scope() {
  const std::int64_t end = steady_ns();
  if (accumulate_ != nullptr) *accumulate_ += static_cast<double>(end - start_ns_) * 1e-9;
  if (!recorder_.enabled_) return;
  recorder_.spans_[index_].end_ns = end;
  recorder_.open_.pop_back();
}

void SpanRecorder::record(std::string_view name, std::string_view layer,
                          std::int64_t start_ns, std::int64_t end_ns, std::int64_t tag) {
  if (!enabled_) return;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.tag = tag;
  span.recorded = true;
  spans_.push_back(std::move(span));
}

std::uint64_t SpanRecorder::last_id(std::string_view name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return it->id;
  }
  return 0;
}

bool SpanRecorder::below(const Span& span, std::uint64_t root) const {
  for (std::uint64_t p = span.parent; p != 0; p = spans_[p - 1].parent) {
    if (p == root) return true;
  }
  return false;
}

double SpanRecorder::seconds(std::uint64_t id) const {
  if (id == 0 || id > spans_.size()) throw std::out_of_range("no such span");
  const Span& s = spans_[id - 1];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double SpanRecorder::coverage(std::uint64_t root) const {
  const double wall = seconds(root);
  if (wall <= 0.0) return 0.0;
  // Innermost scopes below the root: no other scope opened inside them.
  // Scopes on the driver thread nest and never overlap, so their durations
  // add up without double counting.  Recorded spans (measured elsewhere,
  // and overlapping each other) are not scopes.
  std::vector<char> has_child(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (!s.recorded) has_child[s.parent] = 1;
  }
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (!s.recorded && has_child[s.id] == 0 && below(s, root)) {
      covered += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return covered / wall;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.layer) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << (s.recorded ? 2 : 1)
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"tag\":" << s.tag
        << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace qif_bench
