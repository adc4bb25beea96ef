#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/intertwined.hpp"
#include "analysis/pass.hpp"
#include "analysis/patterns.hpp"
#include "analysis/races.hpp"
#include "analysis/traffic.hpp"
#include "causality/causal_order.hpp"
#include "graph/action_graph.hpp"
#include "graph/call_graph.hpp"
#include "graph/comm_graph.hpp"
#include "graph/trace_graph.hpp"
#include "trace/trace.hpp"

/// \file session.hpp
/// `analysis::Session` — the shared-artifact pass manager every
/// analysis consumer goes through (the DeWiz / MAD idea: one event-
/// graph substrate, many composable analysis modules).
///
/// A session owns one immutable `trace::Trace` and a cache of lazily
/// computed, memoized **artifacts** over it — the fused sweep, the
/// match report, the per-rank index, the message DAG, the event
/// columns, vector clocks, traffic, races, the graphs.  Each artifact
/// is built at most once, on first use, and then handed out by
/// reference for the session's lifetime: the trace never changes, so
/// nothing is ever invalidated.  A different trace gets a new session.
/// The debugger holds one session per recorded run; the CLI tools, the
/// server and the HTML view construct one and pull what they need.
///
/// Getters are thread-safe (one recursive mutex; passes call their
/// dependency passes re-entrantly).

namespace tdbg::analysis {

/// State of one pass in the artifact cache (the `passes` command).
struct PassInfo {
  std::string name;
  std::string deps;             ///< declared dependencies (display only)
  bool cached = false;          ///< artifact materialized
  std::uint64_t computes = 0;   ///< times built
  std::uint64_t reuses = 0;     ///< cache hits
  support::TimeNs last_ns = 0;  ///< duration of the last build
};

/// Shared-artifact analysis pipeline over one trace.
class Session {
 public:
  explicit Session(trace::Trace trace);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The trace this session analyzes.
  [[nodiscard]] const trace::Trace& trace() const { return trace_; }

  // --- Artifacts (computed on first use, then cached) -----------------

  /// The fused single-sweep artifact feeding matching, traffic,
  /// supervision, races, and the comm graph.
  const SweepData& sweep();

  /// Send/receive matching + unmatched remainder (paper §4.4).
  const trace::MatchReport& match_report();

  /// The shared per-rank program-order index.
  const trace::RankIndex& rank_index();

  /// Shared handle to the rank index (what `CausalOrder` retains).
  std::shared_ptr<const trace::RankIndex> rank_index_ptr();

  /// Matched endpoints and one topological order of the message DAG
  /// (program order + send → receive edges).
  const trace::MessageDag& message_dag();

  /// The flat per-event fields the critical path, the action and trace
  /// graphs and the time stopline read.
  const trace::EventColumns& event_columns();

  /// Happens-before / vector clocks.
  const causality::CausalOrder& causal_order();

  /// Message-traffic statistics and irregularities.
  const TrafficReport& traffic();

  /// Wildcard-receive races.
  const RaceReport& races();

  /// The communication graph (§3.2 / Fig. 4).
  const graph::CommGraph& comm_graph();

  /// The per-rank action abstraction (§4.4).
  const graph::ActionGraph& action_graph();

  /// The merged trace graph (§4.3); memoized per merge limit.
  const graph::TraceGraph& trace_graph(std::size_t merge_limit = 16);

  /// Call-graph projection (§3.2 / Fig. 9); memoized per rank key.
  const graph::CallGraph& call_graph(
      std::optional<mpi::Rank> rank = std::nullopt);

  /// Critical path through the run.
  const CriticalPath& critical_path();

  /// Intertwined message pairs (§4.4).
  const std::vector<IntertwinedPair>& intertwined();

  /// Checks a behavioral model against every rank (not memoized — the
  /// pattern varies; rides on the cached action graph).
  std::vector<ModelResult> check_model(const std::string& pattern);

  // --- Observability ---------------------------------------------------

  /// Cache state of every pass, in pipeline order.
  [[nodiscard]] std::vector<PassInfo> pass_states() const;

  /// Human-readable cache-state table (the `passes` command).
  [[nodiscard]] std::string describe() const;

 private:
  template <typename T>
  struct Artifact {
    std::optional<T> value;
    std::uint64_t computes = 0;
    std::uint64_t reuses = 0;
    support::TimeNs last_ns = 0;
  };

  /// Memoization core: returns the cached value or runs `build` under
  /// a telemetry span, bumping the session.artifacts.* counters.  One
  /// clock pair times the build, for the `passes` table and the
  /// `<span_name>_ns` histogram.
  template <typename T, typename Build>
  const T& materialize(Artifact<T>& slot, const char* span_name,
                       Build&& build);

  mutable std::recursive_mutex mu_;
  const trace::Trace trace_;

  Artifact<SweepData> sweep_;
  Artifact<trace::MatchReport> match_;
  Artifact<std::shared_ptr<const trace::RankIndex>> rank_index_;
  Artifact<trace::MessageDag> dag_;
  Artifact<trace::EventColumns> columns_;
  Artifact<causality::CausalOrder> order_;
  Artifact<TrafficReport> traffic_;
  Artifact<RaceReport> races_;
  Artifact<graph::CommGraph> comm_graph_;
  Artifact<graph::ActionGraph> action_graph_;
  Artifact<CriticalPath> critical_path_;
  Artifact<std::vector<IntertwinedPair>> intertwined_;
  std::map<std::size_t, Artifact<graph::TraceGraph>> trace_graphs_;
  std::map<int, Artifact<graph::CallGraph>> call_graphs_;
};

}  // namespace tdbg::analysis
