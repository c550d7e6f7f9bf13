#include "util/log.h"

#include <cstdio>

namespace edb {

LogLevel log_level() { return LogLevel::kWarn; }

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

namespace internal {

void log_emit(LogLevel level, const char* file, int line,
              const std::string& message) {
  // Strip directories from __FILE__ for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::fprintf(stderr, "[%s] %s:%d: %s\n", log_level_name(level), base, line,
               message.c_str());
}

}  // namespace internal
}  // namespace edb
