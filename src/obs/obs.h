// Hot-path instrumentation macros.
//
// Instrumented code includes this header and writes
//
//   EDB_SPAN("solver.dual_solve");          // RAII scope span
//   EDB_COUNT("solver.oracle.evals", n);    // counter += n
//   EDB_GAUGE_ADD("engine.fan.pending", -1); // gauge += delta
//
// Metrics are always recorded: the registry lookup happens once per call
// site via a function-local static reference, so the steady-state cost is
// one striped relaxed fetch_add (counter) or one atomic op (gauge).
// Spans are gated at runtime: an EDB_SPAN records only while
// obs::Tracer::enabled(), and otherwise costs one relaxed atomic load.  Sites sit on per-solve,
// per-batch and per-job boundaries, never per oracle evaluation.
//
// The instrumented computation is untouched (DESIGN.md §8,
// tests/obs_determinism_test.cpp).  Name arguments must be string
// literals; value arguments are evaluated exactly once.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

#define EDB_SPAN_CONCAT_INNER(a, b) a##b
#define EDB_SPAN_CONCAT(a, b) EDB_SPAN_CONCAT_INNER(a, b)

#define EDB_SPAN(name) \
  ::edb::obs::Span EDB_SPAN_CONCAT(edb_obs_span_, __LINE__) { name }

#define EDB_COUNT(name, n)                                             \
  do {                                                                 \
    static ::edb::obs::Counter& edb_obs_metric =                       \
        ::edb::obs::Registry::global().counter(name);                  \
    edb_obs_metric.add(static_cast<std::uint64_t>(n));                 \
  } while (0)

#define EDB_GAUGE_ADD(name, delta)                                     \
  do {                                                                 \
    static ::edb::obs::Gauge& edb_obs_metric =                         \
        ::edb::obs::Registry::global().gauge(name);                    \
    edb_obs_metric.add(static_cast<std::int64_t>(delta));              \
  } while (0)
