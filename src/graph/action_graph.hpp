#pragma once

#include <string>
#include <vector>

#include "graph/export.hpp"
#include "trace/trace.hpp"

/// \file action_graph.hpp
/// The action graph (paper §4.4): "For every function, the calls made
/// while the function is active are classified into actions and the
/// call graph is transformed into an actions graph.  The action graph
/// represents history with less resolution than the time-space diagram
/// and makes it more understandable."
///
/// An *action* summarizes a maximal run of consecutive same-construct
/// operations performed directly inside one function activation — e.g.
/// the master's distribution loop collapses to "MatrSend ×14" instead
/// of fourteen separate events.

namespace tdbg::graph {

/// One action: `count` consecutive operations of `construct` inside an
/// activation of `parent` on `rank`.
struct Action {
  mpi::Rank rank = 0;
  trace::ConstructId parent = trace::kNoConstruct;
  trace::ConstructId construct = trace::kNoConstruct;
  trace::EventKind kind = trace::EventKind::kEnter;
  std::uint64_t count = 0;
  std::uint64_t marker_lo = 0;  ///< markers covered (for zoom-back)
  std::uint64_t marker_hi = 0;
};

/// The per-rank action sequences of a trace.
class ActionGraph {
 public:
  /// Builds every rank's actions from the session's rank index and
  /// event columns (`analysis::Session::action_graph()` is the public
  /// entry point).
  static ActionGraph build(const trace::RankIndex& index,
                           const trace::EventColumns& columns);

  /// Actions of one rank, in execution order.
  [[nodiscard]] const std::vector<Action>& actions(mpi::Rank rank) const;

  /// Total actions across ranks.
  [[nodiscard]] std::size_t total_actions() const;

  /// Total operations summarized (sum of counts).
  [[nodiscard]] std::uint64_t total_operations() const;

  /// Exportable view: per rank, a chain of action nodes in order.
  [[nodiscard]] ExportGraph to_export(
      const trace::ConstructRegistry& constructs) const;

 private:
  std::vector<std::vector<Action>> per_rank_;
};

}  // namespace tdbg::graph
