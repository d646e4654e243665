#include "cli_options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <system_error>
#include <type_traits>

namespace qif::cli {

namespace {

/// The whole of `v` as a T, or nothing: `--jobs two` is an error, not 0.
template <class T>
std::optional<T> to_number(std::string_view v) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return out;
}

/// Refuses a value an int or real option cannot take.
void check_value(const Option& o, const std::string& v) {
  double x = NAN;
  if (o.kind == Kind::kInt) {
    if (const auto i = to_number<int>(v)) x = *i;
  } else {
    x = to_number<double>(v).value_or(NAN);
  }
  const std::string what = "bad --" + std::string(o.name) + " value '" + v + "'";
  if (!std::isfinite(x)) throw UsageError(what + ": not a number");
  if (o.min && o.above_min && x <= *o.min) {
    throw UsageError(what + ": not above " + std::to_string(*o.min));
  }
  if (o.min && x < *o.min) {
    throw UsageError(what + ": below the minimum " + std::to_string(*o.min));
  }
}

/// `text` (a default, or a value parse() checked) as a T.  Any option reads
/// as text, an int option as int or double, a real option as double.
template <class T>
T convert(const Option& o, std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(text);
  } else {
    const bool fits = o.kind == Kind::kInt || (std::is_same_v<T, double> && o.kind == Kind::kReal);
    const auto v = fits ? to_number<T>(text) : std::nullopt;
    if (!v) throw std::logic_error("--" + std::string(o.name) + " has no numeric value");
    return *v;
  }
}

}  // namespace

const Option& Args::option(std::string_view name) const {
  for (const Option& o : cmd_->options) {
    if (o.name == name) return o;
  }
  throw std::logic_error(std::string(cmd_->name) + " declares no option --" + std::string(name));
}

bool Args::has(std::string_view name) const { return !all(name).empty(); }

template <class T>
T Args::get(std::string_view name) const {
  const std::vector<std::string> given = all(name);
  return convert<T>(option(name), given.empty() ? option(name).dflt : given.back());
}

template <class T>
std::vector<T> Args::all(std::string_view name) const {
  const Option& o = option(name);
  std::vector<T> out;
  for (const auto& [n, v] : values_) {
    if (n == name) out.push_back(convert<T>(o, v));
  }
  return out;
}

template std::string Args::get<std::string>(std::string_view) const;
template int Args::get<int>(std::string_view) const;
template double Args::get<double>(std::string_view) const;
template std::vector<std::string> Args::all<std::string>(std::string_view) const;
template std::vector<double> Args::all<double>(std::string_view) const;

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

Args parse(const Command& cmd, const std::vector<std::string>& words) {
  Args args;
  args.cmd_ = &cmd;
  const auto& accepted = cmd.options;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& w = words[i];
    if (w.rfind("--", 0) != 0) {
      args.positional.push_back(w);
      continue;
    }
    // An accepted name is its own nearest match.
    const std::string_view name = std::string_view(w).substr(2);
    const auto spec = std::min_element(
        accepted.begin(), accepted.end(), [&](const Option& x, const Option& y) {
          return edit_distance(name, x.name) < edit_distance(name, y.name);
        });
    if (spec == accepted.end() || spec->name != name) {
      throw UsageError("unknown option " + w + " for `" + std::string(cmd.name) + "` (" +
                       (spec == accepted.end()
                            ? std::string("it takes no options")
                            : "did you mean --" + std::string(spec->name) + "?") +
                       ")");
    }
    if (spec->kind == Kind::kFlag) {
      args.values_.emplace_back(spec->name, "1");
      continue;
    }
    if (i + 1 == words.size() || words[i + 1].rfind("--", 0) == 0) {
      throw UsageError("option " + w + " needs a value");
    }
    if (spec->kind != Kind::kText) check_value(*spec, words[i + 1]);
    args.values_.emplace_back(spec->name, words[++i]);
  }
  for (const Option& o : accepted) {
    if (o.required && !args.has(o.name)) {
      throw UsageError("missing required option --" + std::string(o.name));
    }
  }
  if (args.positional.size() != static_cast<std::size_t>(cmd.positionals)) {
    throw UsageError("`" + std::string(cmd.name) + "` takes " +
                     (cmd.positionals == 0 ? "no arguments" : std::string(cmd.synopsis)) +
                     ", got " + std::to_string(args.positional.size()) + " argument(s)");
  }
  return args;
}

Args parse_or_exit(const Command& cmd, int argc, char** argv, int first) {
  try {
    return parse(cmd, std::vector<std::string>(argv + std::min(first, argc), argv + argc));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr, cmd);
    std::exit(2);
  }
}

void print_usage(std::FILE* out, const Command& cmd) {
  std::string synopsis(cmd.name);
  if (!cmd.synopsis.empty()) synopsis.append(" ").append(cmd.synopsis);
  for (const Option& o : cmd.options) {
    if (o.required) synopsis.append(" --").append(o.name).append(" ").append(o.metavar);
  }
  const bool optional = std::any_of(cmd.options.begin(), cmd.options.end(),
                                    [](const Option& o) { return !o.required; });
  std::fprintf(out, "usage: %s%s\n  %s\n", synopsis.c_str(), optional ? " [options]" : "",
               std::string(cmd.summary).c_str());
  for (const Option& o : cmd.options) {
    std::string left = "--" + std::string(o.name);
    if (o.kind != Kind::kFlag) left.append(" ").append(o.metavar);
    std::string notes;
    if (!o.dflt.empty()) notes += ", default " + o.dflt;
    if (o.min) notes += (o.above_min ? ", above " : ", at least ") + std::to_string(*o.min);
    if (o.required) notes += ", required";
    if (!notes.empty()) notes = " (" + notes.substr(2) + ")";
    std::fprintf(out, "    %-22s %s%s\n", left.c_str(), std::string(o.help).c_str(),
                 notes.c_str());
  }
}

}  // namespace qif::cli
