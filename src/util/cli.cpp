#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/string_util.hpp"

namespace tl::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[to_lower(body.substr(0, eq))] = body.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags_[to_lower(body)] = argv[++i];
    } else {
      flags_[to_lower(body)] = "true";
    }
  }
}

void Cli::reject_unknown(const std::vector<std::string_view>& known) const {
  for (const auto& [flag, value] : flags_) {
    if (std::find(known.begin(), known.end(), flag) == known.end()) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(),
                   flag.c_str());
      std::exit(2);
    }
  }
}

bool Cli::has(const std::string& flag) const {
  return flags_.count(to_lower(flag)) != 0;
}

std::optional<std::string> Cli::get(const std::string& flag) const {
  const auto it = flags_.find(to_lower(flag));
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& flag, const std::string& fallback) const {
  return get(flag).value_or(fallback);
}

long Cli::get_long_or(const std::string& flag, long fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  const auto n = parse_long(*v);
  if (!n) throw std::runtime_error("--" + flag + " expects an integer");
  return *n;
}

double Cli::get_double_or(const std::string& flag, double fallback) const {
  const auto v = get(flag);
  if (!v) return fallback;
  const auto d = parse_double(*v);
  if (!d) throw std::runtime_error("--" + flag + " expects a number");
  return *d;
}

}  // namespace tl::util
