// Warnings on stderr.
//
// The library prints only warnings: EDB_WARN writes one
// "[WARN] file:line: message" line.  Logging is deliberately synchronous
// and unbuffered (stderr) — these are research tools, not a datapath.
#pragma once

#include <sstream>
#include <string>

namespace edb {

namespace internal {
void log_warn(const char* file, int line, const std::string& message);
}

#define EDB_WARN(expr)                                                 \
  do {                                                                 \
    std::ostringstream edb_log_oss;                                    \
    edb_log_oss << expr;                                               \
    ::edb::internal::log_warn(__FILE__, __LINE__, edb_log_oss.str());  \
  } while (0)

}  // namespace edb
