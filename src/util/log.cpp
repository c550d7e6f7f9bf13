#include "util/log.h"

#include <cstdio>

namespace edb::internal {

void log_warn(const char* file, int line, const std::string& message) {
  // Strip directories from __FILE__ for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  std::fprintf(stderr, "[WARN] %s:%d: %s\n", base, line, message.c_str());
}

}  // namespace edb::internal
