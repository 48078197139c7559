#pragma once
// Diagnostics to stderr, one plain line each: "[WARN] message" or
// "[ERROR] message". Benches and examples print their primary output with
// tables/CSV; the log only reports what went wrong.

namespace tl::util {

[[gnu::format(printf, 1, 2)]] void log_warn(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void log_error(const char* fmt, ...);

}  // namespace tl::util
