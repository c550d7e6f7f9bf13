// Leveled logging with a fixed threshold.
//
// The simulator and solvers emit trace/debug logs that stay off: only
// warnings and errors print.  Logging is deliberately synchronous and
// unbuffered (stderr) — these are research tools, not a datapath.
#pragma once

#include <sstream>
#include <string>

namespace edb {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Threshold; messages below it are dropped.  kWarn keeps tests and
// benches quiet.
LogLevel log_level();
const char* log_level_name(LogLevel level);

namespace internal {
void log_emit(LogLevel level, const char* file, int line,
              const std::string& message);
}

#define EDB_LOG(level, expr)                                              \
  do {                                                                    \
    if (static_cast<int>(level) >= static_cast<int>(::edb::log_level())) { \
      std::ostringstream edb_log_oss;                                     \
      edb_log_oss << expr;                                                \
      ::edb::internal::log_emit(level, __FILE__, __LINE__,                \
                                edb_log_oss.str());                      \
    }                                                                     \
  } while (0)

#define EDB_TRACE(expr) EDB_LOG(::edb::LogLevel::kTrace, expr)
#define EDB_DEBUG(expr) EDB_LOG(::edb::LogLevel::kDebug, expr)
#define EDB_INFO(expr) EDB_LOG(::edb::LogLevel::kInfo, expr)
#define EDB_WARN(expr) EDB_LOG(::edb::LogLevel::kWarn, expr)
#define EDB_ERROR(expr) EDB_LOG(::edb::LogLevel::kError, expr)

}  // namespace edb
