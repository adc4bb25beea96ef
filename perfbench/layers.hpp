#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

/// \file layers.hpp
/// Span names of the layer calls and the per-layer report of a traced
/// run.  Every workload emits the whole per-layer list; a layer the
/// workload does not reach reads 0.

namespace perfbench {

namespace layer {
// The spans the benchmark opens around its own calls, one per layer
// entry point, named after the metric family they feed.
inline constexpr const char* kMpiRun = "mpi.run";
inline constexpr const char* kRecord = "replay.record";
inline constexpr const char* kWrite = "trace.write";
inline constexpr const char* kOpen = "trace.open";
inline constexpr const char* kSweep = "analysis.sweep";
inline constexpr const char* kMatch = "analysis.match";
inline constexpr const char* kRankIndex = "analysis.rank_index";
inline constexpr const char* kTraffic = "analysis.traffic";
inline constexpr const char* kCausalOrder = "causality.causal_order";
inline constexpr const char* kRaces = "analysis.races";
inline constexpr const char* kCommGraph = "graph.comm_graph";
inline constexpr const char* kCommDot = "graph.comm_dot";
inline constexpr const char* kCriticalPath = "analysis.critical_path";
inline constexpr const char* kActionGraph = "graph.action_graph";
inline constexpr const char* kTraceGraph = "graph.trace_graph";
inline constexpr const char* kCallGraph = "graph.call_graph";
inline constexpr const char* kClientCall = "server.call";
}  // namespace layer

/// The obs counters read before and after each traced operation.
class LayerCounters {
 public:
  /// Current totals, in a fixed order.
  [[nodiscard]] std::vector<double> read() const;
  /// Change since `before`.
  [[nodiscard]] std::vector<double> since(
      const std::vector<double>& before) const;
  /// Per-counter median over `deltas`, by counter name.
  [[nodiscard]] std::map<std::string, double> medians(
      const std::vector<std::vector<double>>& deltas) const;
};

/// Emits every per-layer metric into `result` and writes the spans
/// with the counter values to `<workdir>/spans-<workload>.json`.
/// `values` holds what spans cannot give: counter deltas, server
/// latencies and queue peak, `trace.file_bytes` and
/// `tracing.overhead_ms`.
void emit_layers(const Args& args, const Tracer& tracer,
                 std::map<std::string, double> values, Result& result);

}  // namespace perfbench
