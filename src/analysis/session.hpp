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
/// A session owns one `trace::Trace` and a cache of lazily-computed,
/// memoized **artifacts** over it — the fused sweep, the match report,
/// the per-rank index, the message DAG, the event columns, vector
/// clocks, traffic, races, the graphs — each computed at most once per
/// trace state and handed out by reference.  The debugger holds one
/// session per trace; the CLI tools and the HTML view construct one and
/// pull what they need.
///
/// **Invalidation / incremental contract.**  `update(trace)` moves the
/// session to a new trace state.  When the new trace is a prefix-
/// stable extension of the old one (same events up to the old
/// watermark — verified by a size check plus event fingerprints at the
/// prefix edges), the monoid-shaped artifacts recompute incrementally:
/// the fused sweep extends over the delta segments only, and matching,
/// traffic, the rank index, and the comm graph rebuild from the
/// sweep's records without rescanning the trace.  Otherwise every
/// artifact is dropped and rebuilt from scratch on next use.  Either
/// way, results are byte-identical to a from-scratch session — the
/// incremental path is a pure optimization.
///
/// References returned by the getters stay valid until the next
/// `update()`.  Getters are thread-safe (one recursive mutex; passes
/// call their dependency passes re-entrantly).

namespace tdbg::analysis {

/// State of one pass in the artifact cache (the `passes` command).
struct PassInfo {
  std::string name;
  std::string deps;        ///< declared dependencies (display only)
  bool incremental = false;  ///< monoid-shaped: recomputes from deltas
  bool cached = false;       ///< artifact currently materialized
  std::uint64_t computes = 0;  ///< times built (from scratch or delta)
  std::uint64_t reuses = 0;    ///< cache hits
  support::TimeNs last_ns = 0;  ///< duration of the last build
  std::size_t watermark = 0;    ///< events covered by the cached value
};

/// Shared-artifact analysis pipeline over one trace.
class Session {
 public:
  explicit Session(trace::Trace trace);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The trace this session analyzes.
  [[nodiscard]] const trace::Trace& trace() const { return trace_; }

  /// Moves the session to a new trace state (live recording growth,
  /// merge, or an unrelated trace).  Prefix-stable extensions take the
  /// incremental path; anything else invalidates every artifact.
  void update(trace::Trace trace);

  /// Events covered by the current artifacts (== trace().size()).
  [[nodiscard]] std::size_t watermark() const;

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
    std::size_t watermark = 0;
  };

  /// Memoization core: returns the cached value or runs `build` under
  /// a telemetry span, bumping the session.artifacts.* counters.
  template <typename T, typename Build>
  const T& materialize(Artifact<T>& slot, const char* span_name,
                       Build&& build);

  /// Records a build of `slot` that started at `t0`: its duration goes
  /// to the `passes` table and to the `<span_name>_ns` histogram.
  template <typename T>
  void finish_build(Artifact<T>& slot, const char* span_name,
                    support::TimeNs t0);

  /// Drops an artifact (if materialized), counting the invalidation.
  template <typename T>
  void invalidate(Artifact<T>& slot);

  /// A compact identity of `trace_`'s event at `i`, used to verify
  /// prefix stability across `update()`.
  struct Fingerprint {
    mpi::Rank rank = -1;
    std::uint64_t marker = 0;
    support::TimeNs t_start = 0;
    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  };
  [[nodiscard]] Fingerprint fingerprint(const trace::Trace& t,
                                        std::size_t i) const;

  void fill_info(std::vector<PassInfo>& out, const char* name,
                 const char* deps, bool incremental, std::uint64_t computes,
                 std::uint64_t reuses, support::TimeNs last_ns,
                 std::size_t watermark, bool cached) const;

  mutable std::recursive_mutex mu_;
  trace::Trace trace_;

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
