#include "util/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <string>

namespace tl::util {

namespace {

std::mutex g_mutex;

/// Formats the message first, then writes the whole line in one call under
/// the mutex, so lines stay whole under threads.
void vlog(const char* tag, const char* fmt, va_list args) {
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  std::string message;
  if (needed > 0) {
    message.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(message.data(), message.size() + 1, fmt, args2);
  }
  va_end(args2);
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[%s] %s\n", tag, message.c_str());
}

}  // namespace

void log_warn(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog("WARN", fmt, args);
  va_end(args);
}

void log_error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog("ERROR", fmt, args);
  va_end(args);
}

}  // namespace tl::util
