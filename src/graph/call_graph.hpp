#pragma once

#include <map>
#include <optional>
#include <vector>

#include "graph/export.hpp"
#include "graph/trace_graph.hpp"

/// \file call_graph.hpp
/// The dynamic call graph (paper §3.2, Fig. 9): the projection of the
/// trace graph onto one process — function nodes and caller → callee
/// arcs with multiplicities.  "Multiple arcs show multiple function
/// calls.  The number of calls per arc is adjustable" (Fig. 9): the
/// `calls_per_arc` knob groups that many calls into one displayed arc.

namespace tdbg::graph {

/// One caller → callee relation with its call count.
struct CallEdge {
  trace::ConstructId caller = trace::kNoConstruct;  ///< kNoConstruct = rank root
  trace::ConstructId callee = trace::kNoConstruct;
  std::uint64_t calls = 0;
};

/// A per-rank (or merged) dynamic call graph.
class CallGraph {
 public:
  CallGraph() = default;

  /// Projects the trace graph onto `rank`; pass nullopt to merge every
  /// rank into one graph (Fig. 9 shows the merged Strassen graph).
  static CallGraph project(const TraceGraph& graph,
                           std::optional<mpi::Rank> rank);

  /// The edges, sorted by (caller, callee).
  [[nodiscard]] const std::vector<CallEdge>& edges() const { return edges_; }

  /// Total calls of `callee` from anywhere.
  [[nodiscard]] std::uint64_t call_count(trace::ConstructId callee) const;

  /// Number of distinct functions appearing in the graph.
  [[nodiscard]] std::size_t function_count() const;

  /// Exportable view; each displayed arc stands for `calls_per_arc`
  /// calls (the Fig. 9 knob) — an edge with 12 calls and
  /// calls_per_arc=5 renders 3 parallel arcs (5+5+2).
  [[nodiscard]] ExportGraph to_export(
      const trace::ConstructRegistry& constructs,
      std::uint64_t calls_per_arc = 0) const;

 private:
  std::vector<CallEdge> edges_;
};

}  // namespace tdbg::graph
