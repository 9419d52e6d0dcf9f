// Tiny command-line parser used by the examples and bench binaries.
//
// Accepts "--name=value" and "--flag" tokens only; anything else is an
// error so typos surface immediately.  Typed getters record the options
// they saw so --help can list every option a binary understands.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hinet {

class CliArgs {
 public:
  /// Parses argv; throws std::invalid_argument on a malformed token.
  CliArgs(int argc, const char* const* argv);

  /// True if "--help" or "-h" was given.
  bool help_requested() const { return help_; }

  /// Typed getters.  Each call registers (name, default, description) for
  /// the usage text.  Throws std::invalid_argument when the supplied value
  /// does not parse.
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& description);
  /// get_int for counts, sizes, seeds and budgets: a negative value is a
  /// std::invalid_argument naming the flag, never a wrapped huge unsigned.
  std::uint64_t get_uint(const std::string& name, std::uint64_t def,
                         const std::string& description);
  /// get_int for a value stored in an int, such as a cluster radius: one
  /// an int cannot hold is a std::invalid_argument naming the flag, never
  /// a truncated one.
  int get_int32(const std::string& name, int def,
                const std::string& description);
  double get_double(const std::string& name, double def,
                    const std::string& description);
  bool get_bool(const std::string& name, bool def,
                const std::string& description);
  std::string get_string(const std::string& name, const std::string& def,
                         const std::string& description);

  /// Registers the conventional "--jobs" option (worker threads for
  /// repetition batches) and returns its value with 0/default resolved to
  /// the hardware concurrency.  Always >= 1; a negative value is a
  /// std::invalid_argument naming the flag.
  std::size_t get_jobs();

  /// Usage text built from every getter called so far.
  std::string usage(const std::string& program_summary) const;

  /// Options that were supplied but never consumed by a getter; examples
  /// call this after all getters to reject unknown flags.
  std::vector<std::string> unknown_options() const;

 private:
  struct Registered {
    std::string name;
    std::string default_value;
    std::string description;
  };

  std::optional<std::string> raw(const std::string& name);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<Registered> registered_;
  bool help_ = false;
};

}  // namespace hinet
