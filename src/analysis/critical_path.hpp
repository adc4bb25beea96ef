#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

/// \file critical_path.hpp
/// Critical-path analysis of the execution history — the classic
/// trace-graph query (§6: the graph abstraction "provides a good basis
/// for execution analysis"): the longest chain of causally-ordered
/// work through the run.  Everything off the critical path had slack;
/// speeding it up cannot shorten the run.
///
/// The DAG is the session's `trace::MessageDag` (per-rank program
/// order plus send→receive edges); node weight is the event's own
/// duration.  One forward pass over the DAG's topological order
/// computes every event's longest incoming chain.  The analysis
/// reports the chain, its length, and how the chain's time divides
/// across ranks — which rank the run was "waiting on".

namespace tdbg::analysis {

/// The critical path of one trace.
struct CriticalPath {
  std::vector<std::size_t> events;  ///< event indices, causally ordered

  /// Effective (overlap- and wait-clipped) duration of each path
  /// event, aligned with `events`.
  std::vector<support::TimeNs> durations;

  support::TimeNs total = 0;  ///< summed effective durations

  /// Time the path spends on each rank (indexed by rank).
  std::vector<support::TimeNs> per_rank;

  /// Times the path hops between ranks (message edges taken).
  std::size_t rank_switches = 0;

  /// Human-readable rendering (top contributions).
  [[nodiscard]] std::string to_string(const trace::Trace& trace,
                                      std::size_t max_rows = 12) const;
};

/// Computes the critical path.  O(events + messages).  `index`,
/// `columns` and `dag` come from the owning `analysis::Session`
/// (`Session::critical_path()` is the public entry point); the trace
/// itself is not read.
CriticalPath critical_path(const trace::RankIndex& index,
                           const trace::EventColumns& columns,
                           const trace::MessageDag& dag);

}  // namespace tdbg::analysis
