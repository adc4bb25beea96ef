#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/export.hpp"
#include "trace/trace.hpp"

/// \file trace_graph.hpp
/// The *trace graph* — the paper's graph abstraction of execution
/// history (§3.2, §4.3).
///
/// Vertices: one node per (function, process) plus one node per
/// communication channel (one channel per ordered pair of processes).
/// Arcs: one per function call (caller → callee) and one per message
/// operation (sending function → channel; channel → receiving
/// function).
///
/// Size control — the paper's *dissemination technique*: "if the
/// number of arcs incident to a node exceeds a limit, we merge every
/// other arc with the previous one".  Parallel arcs (same endpoints)
/// carry a multiplicity and a marker interval; when their number
/// between one pair of endpoints exceeds the limit, adjacent pairs are
/// merged (halving the count), trading resolution for space.  Zooming
/// back in rescans the relevant part of the trace
/// (`expand_arcs`) to reconstruct the merged individual arcs — the
/// number of arcs stored is thereby independent of execution length.

namespace tdbg::graph {

/// Node identity within a trace graph.
struct NodeId {
  enum class Kind : std::uint8_t { kFunction, kChannel } kind = Kind::kFunction;
  // Function node: rank + construct.  Channel node: rank = src, peer = dst.
  mpi::Rank rank = 0;
  trace::ConstructId construct = trace::kNoConstruct;  ///< function nodes
  mpi::Rank peer = -1;                                 ///< channel nodes

  friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

/// What an arc represents.
enum class ArcKind : std::uint8_t {
  kCall,  ///< function call (caller → callee, same rank)
  kSend,  ///< sending function → channel
  kRecv,  ///< channel → receiving function
};

/// A (possibly merged) arc: `count` underlying operations whose
/// execution markers lie in [marker_lo, marker_hi] on `marker_rank`.
struct Arc {
  NodeId from;
  NodeId to;
  ArcKind kind = ArcKind::kCall;
  std::uint64_t count = 1;
  mpi::Rank marker_rank = 0;
  std::uint64_t marker_lo = 0;
  std::uint64_t marker_hi = 0;
};

/// The trace graph.  Built online (event by event) so the debugger can
/// maintain it as execution progresses (§4.3: "a trace graph which is
/// built as the execution is running").
class TraceGraph {
 public:
  /// \param num_ranks  world size
  /// \param merge_limit max parallel arcs kept per (from, to, kind)
  ///        triple before dissemination merges adjacent pairs
  explicit TraceGraph(int num_ranks, std::size_t merge_limit = 16);

  /// Feeds one event.  Call in per-rank program order (any interleaving
  /// across ranks is fine).
  void add_event(const trace::Event& event);

  /// Builds the graph of a complete trace by feeding every rank's
  /// events, in program order, from the session's rank index and event
  /// columns (`analysis::Session::trace_graph()` is the public entry
  /// point).
  static TraceGraph build(const trace::RankIndex& index,
                          const trace::EventColumns& columns,
                          std::size_t merge_limit = 16);

  /// Number of distinct nodes materialized so far.
  [[nodiscard]] std::size_t node_count() const;

  /// Number of stored (post-merge) arcs.
  [[nodiscard]] std::size_t arc_count() const;

  /// Total operations represented (sum of arc counts) — unaffected by
  /// dissemination.
  [[nodiscard]] std::uint64_t operation_count() const;

  /// All stored arcs between `from` and `to` of the given kind, in
  /// marker order.
  [[nodiscard]] std::vector<Arc> arcs_between(const NodeId& from,
                                              const NodeId& to,
                                              ArcKind kind) const;

  /// All stored arcs.
  [[nodiscard]] const std::map<std::tuple<NodeId, NodeId, ArcKind>,
                               std::vector<Arc>>&
  arc_groups() const {
    return arcs_;
  }

  /// Zoom: reconstructs the individual operations a merged arc stands
  /// for by rescanning the trace for events of `arc.marker_rank` with
  /// markers in the arc's interval that contribute to (from, to, kind).
  /// Returns trace event indices.
  [[nodiscard]] std::vector<std::size_t> expand_arc(
      const trace::Trace& trace, const Arc& arc) const;

  /// Exportable view (function nodes grouped per rank).
  [[nodiscard]] ExportGraph to_export(const trace::ConstructRegistry& constructs) const;

  [[nodiscard]] int num_ranks() const { return num_ranks_; }
  [[nodiscard]] std::size_t merge_limit() const { return merge_limit_; }

 private:
  void add_arc(const NodeId& from, const NodeId& to, ArcKind kind,
               mpi::Rank marker_rank, std::uint64_t marker);

  int num_ranks_;
  std::size_t merge_limit_;
  std::vector<std::vector<trace::ConstructId>> stacks_;  ///< per-rank call stack
  std::map<std::tuple<NodeId, NodeId, ArcKind>, std::vector<Arc>> arcs_;
};

/// Human-readable node label ("rank3:MatrSend", "ch 0->7").
std::string node_label(const NodeId& id,
                       const trace::ConstructRegistry& constructs);

}  // namespace tdbg::graph
