// Traced run of the serving benchmark (--trace 1): per-layer metrics of
// one workload, measured from outside the program.
//
// The run first repeats a shortened end-to-end load (same tier, same
// checks) for the cache counters, the serve-queue depth and the per-query
// CPU cost.  It then walks a sample of the workload's queries through
// each layer's public calls — wire codec, key building, cache, ServiceCore,
// TuningService dispatch, scenario engine, bargaining game, MAC model
// kernels — timing every call site inside an obs::Span written here.
// Finally it replays the sample through the serving pipeline rebuilt
// from those public calls (decode, key, cache, planner, engine, encode),
// once with the tracer off and once on: the traced replay's spans give a
// per-layer self-time table (printed, and written with a Chrome trace
// under the output directory), and the two wall times give the tracing
// overhead.  residual_us is the end-to-end CPU per query minus the sum of
// the layers' self times: what the sockets, threads and client cost.
#pragma once

#include "e2e.h"

namespace servebench {

void run_traced(const Args& args, Report* report);

}  // namespace servebench
