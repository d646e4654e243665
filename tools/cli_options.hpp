// One declaration per command line: a Command lists its positionals and
// its options (kind, metavar, default, minimum, required, help), and
// parse() checks a command line against it, the getters read defaults
// from it, and print_usage() prints it.  Shared by the qif CLI and the
// programs under bench/.
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qif::cli {

enum class Kind { kFlag, kInt, kReal, kText };

/// One option a command accepts.  A flag takes no value; every other kind
/// takes the next word, which an int or real option parses in full.
struct Option {
  Option(std::string_view name_, Kind kind_, std::string_view metavar_, std::string_view help_,
         std::string dflt_ = "", std::optional<int> min_ = {}, bool required_ = false,
         bool above_min_ = false)
      : name(name_), kind(kind_), metavar(metavar_), help(help_), dflt(std::move(dflt_)),
        min(min_), required(required_), above_min(above_min_) {}

  std::string_view name;  // without the leading "--"
  Kind kind;
  std::string_view metavar;
  std::string_view help;
  std::string dflt;           // the value when the option is absent ("" = none)
  std::optional<int> min;     // smallest accepted value of an int or real option
  bool required;
  bool above_min;             // refuse `min` itself too: values must exceed it
};

class Args;

/// One command line: `name` is what is typed before the arguments ("qif
/// run", "data_plane"), followed by exactly `positionals` positional words.
struct Command {
  std::string_view name;
  std::string_view synopsis;  // the positionals, e.g. "<in> <out>"
  int positionals = 0;
  std::string_view summary;
  std::vector<Option> options;
  int (*run)(const Args&) = nullptr;
};

/// A command line refused before any work: an unknown or valueless option,
/// a malformed or too-small number, a missing required option, or the
/// wrong number of positionals.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A parsed command line.  It refers to its Command, which must outlive it.
class Args {
 public:
  std::vector<std::string> positional;

  /// Whether the option was given (for a flag: whether it is set).
  [[nodiscard]] bool has(std::string_view name) const;
  /// The option's last value, or its declared default.  T is std::string
  /// (any kind), int (an int option) or double (an int or real option).
  template <class T = std::string>
  [[nodiscard]] T get(std::string_view name) const;
  /// Every value given for the option, in command-line order.
  template <class T = std::string>
  [[nodiscard]] std::vector<T> all(std::string_view name) const;

 private:
  friend Args parse(const Command& cmd, const std::vector<std::string>& words);
  [[nodiscard]] const Option& option(std::string_view name) const;

  const Command* cmd_ = nullptr;
  std::vector<std::pair<std::string_view, std::string>> values_;
};

/// Levenshtein distance, to suggest the accepted option nearest a typo.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// Checks `words` (the arguments after the command's name) against `cmd`;
/// throws UsageError naming the first fault.
Args parse(const Command& cmd, const std::vector<std::string>& words);

/// parse() over argv[first..]; on a UsageError prints it and the command's
/// usage to stderr and exits 2.
Args parse_or_exit(const Command& cmd, int argc, char** argv, int first = 1);

/// Prints the command's synopsis, summary and one line per option.
void print_usage(std::FILE* out, const Command& cmd);

}  // namespace qif::cli
