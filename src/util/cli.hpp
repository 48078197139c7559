#pragma once
// Minimal CLI flag parser shared by examples and bench binaries.
// Supports --key=value, --key value, and bare --flag forms.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tl::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Binary name (argv[0]).
  const std::string& program() const noexcept { return program_; }

  /// Exits with status 2, naming the flag on stderr, if argv carried a flag
  /// outside `known`. Each binary calls it once with every flag it reads,
  /// so a misspelt option fails instead of silently running the defaults.
  void reject_unknown(const std::vector<std::string_view>& known) const;

  bool has(const std::string& flag) const;
  std::optional<std::string> get(const std::string& flag) const;
  std::string get_or(const std::string& flag, const std::string& fallback) const;
  long get_long_or(const std::string& flag, long fallback) const;
  double get_double_or(const std::string& flag, double fallback) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tl::util
