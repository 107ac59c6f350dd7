// Minimal leveled logger (option O12) and the N-Server debug event trace
// (option O10, debug mode).
//
// The paper generates logging and debug-trace code only when the matching
// options are on.  In this library the hot-path call sites are guarded by a
// cheap atomic level check; the generated scaffolds (see src/gdp) set the
// level constant so the compiler removes disabled call sites entirely.
#pragma once

#include <atomic>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>

namespace cops {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_.store(static_cast<int>(level)); }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  // Writes one line to stderr.
  void log(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  std::atomic<int> level_{static_cast<int>(LogLevel::kWarn)};
  std::mutex mutex_;
};

namespace detail {
void log_line(LogLevel level, const char* file, int line,
              const std::string& message);
}

#define COPS_LOG(level, msg_expr)                                      \
  do {                                                                 \
    if (::cops::Logger::instance().enabled(level)) {                   \
      std::ostringstream cops_log_oss_;                                \
      cops_log_oss_ << msg_expr;                                       \
      ::cops::detail::log_line(level, __FILE__, __LINE__,              \
                               cops_log_oss_.str());                   \
    }                                                                  \
  } while (0)

#define COPS_TRACE(msg) COPS_LOG(::cops::LogLevel::kTrace, msg)
#define COPS_DEBUG(msg) COPS_LOG(::cops::LogLevel::kDebug, msg)
#define COPS_INFO(msg) COPS_LOG(::cops::LogLevel::kInfo, msg)
#define COPS_WARN(msg) COPS_LOG(::cops::LogLevel::kWarn, msg)
#define COPS_ERROR(msg) COPS_LOG(::cops::LogLevel::kError, msg)

}  // namespace cops
