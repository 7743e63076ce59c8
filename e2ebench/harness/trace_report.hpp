// Per-layer self time from the global tracer's events.
//
// The tracer's parent links assume one thread, so nesting is rebuilt here
// per thread from the intervals themselves: an event's children are the
// events of the same thread that lie inside it, and its self time is its
// duration minus its direct children's.  Layers are the repository's
// modules: the benchmark's own spans are named "<layer>.<call>", the
// framework's phase spans "pipeline.<phase>" map to the module that does
// the phase's work, a parallel region's own time (dispatch and join) counts
// as util while its chunks count for the module that opened the region, and
// serving flushes count as serve.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace e2ebench {

/// Layer -> self time in seconds, summed over every thread.
std::map<std::string, double> layer_self_seconds(
    const std::vector<drlhmd::obs::TraceEvent>& events);

}  // namespace e2ebench
