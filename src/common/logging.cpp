#include "common/logging.hpp"

#include <chrono>

namespace cops {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::log(LogLevel level, const std::string& message) {
  static const char* kNames[] = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR", "OFF"};
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  std::lock_guard lock(mutex_);
  std::fprintf(stderr, "[%lld.%06lld] %-5s %s\n",
               static_cast<long long>(us / 1000000),
               static_cast<long long>(us % 1000000),
               kNames[static_cast<int>(level)], message.c_str());
  std::fflush(stderr);
}

namespace detail {
void log_line(LogLevel level, const char* file, int line,
              const std::string& message) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::string full = message + " (" + base + ":" + std::to_string(line) + ")";
  Logger::instance().log(level, full);
}
}  // namespace detail

}  // namespace cops
