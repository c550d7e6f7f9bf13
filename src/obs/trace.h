// Span tracer: RAII scopes collected into per-thread ring buffers and
// exported as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// The contract mirrors the metrics registry (obs/metrics.h):
//
//   cheap        — an enabled span is two steady_clock reads and one
//                  append to a thread-local ring; a disabled span is one
//                  relaxed atomic load.  No allocation after a thread's
//                  first span (the ring is pre-sized), no locks on the
//                  record path (the per-thread mutex only guards against
//                  a concurrent collect(), which is rare and short).
//   bounded      — each thread keeps the most recent kRingCapacity spans;
//                  older ones are overwritten.  Tracing a long run bounds
//                  memory instead of growing it.
//   non-perturbing — span names are string literals (`const char*` stored
//                  by pointer), timestamps come from steady_clock, and
//                  nothing feeds back into the instrumented computation;
//                  instrumented runs stay bit-identical to uninstrumented
//                  ones (tests/obs_determinism_test.cpp).
//
// Spans nest lexically (RAII), and the exporter emits complete events
// ("ph":"X") whose nesting Perfetto reconstructs from timestamps, so no
// begin/end pairing state is kept.
//
// Every build compiles its EDB_SPAN sites in; the runtime flag below is
// the only switch, so one binary can compare traced and untraced runs
// (the determinism tests) and traces only accumulate when someone wants
// them (EDB_TRACE_OUT in the benches).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace edb::obs {

// Most recent spans kept per thread (power of two; ~2 MB/thread at 32 B
// per event).
inline constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct TraceEvent {
  const char* name = nullptr;  // string literal at the instrumentation site
  std::uint64_t start_ns = 0;  // steady_clock since process trace epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // small dense id assigned per recording thread
};

class Tracer {
 public:
  // Process-wide switch.  Spans constructed while disabled record
  // nothing (their destructor is a no-op, not a short event).
  static bool enabled() noexcept;
  static void set_enabled(bool on) noexcept;

  // Drops every buffered event (all threads).
  static void clear();

  // All buffered events across threads (including exited ones), sorted by
  // (start, tid) for deterministic output order.
  static std::vector<TraceEvent> collect();

  // Chrome trace-event JSON: {"traceEvents": [...]}.  Timestamps in µs
  // with ns precision (fractional µs), complete events, pid 1.
  static std::string chrome_json();

  // Writes chrome_json() to `path`; false on I/O failure.
  static bool write_chrome_json(const std::string& path);
};

// RAII span.  Construct at scope entry with a string *literal* (the
// pointer is stored, not the bytes); destructor records the event.
// Usually spelled via EDB_SPAN("name") from obs/obs.h.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_;  // 0 = tracer was disabled at entry
};

// Env-driven capture for benches and tools: begin_env_trace() enables the
// tracer iff EDB_TRACE_OUT is set (to the output path) and clears old
// events; end_env_trace() writes the trace there and disables again.
// No-ops without the env var, so instrumented benches stay silent by
// default.  Returns the path written, or "" if none.
void begin_env_trace();
std::string end_env_trace();

}  // namespace edb::obs
