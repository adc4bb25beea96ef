#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/construct_registry.hpp"
#include "trace/event.hpp"
#include "trace/store.hpp"

namespace tdbg::trace {

/// A send record paired with the receive that consumed it.
struct MessageMatch {
  std::size_t send_index = 0;  ///< global display index
  std::size_t recv_index = 0;
};

/// The unique send/receive matching plus the leftovers the debugger's
/// communication supervision shows the user (paper §4.4: "the debugger
/// maintains a list of unmatched sends and receives").  Computed by
/// `analysis::Session::match_report()` — the trace layer only defines
/// the data type so lower layers (causality, graph, replay) can accept
/// it as a parameter without linking the analysis library.
struct MatchReport {
  std::vector<MessageMatch> matches;
  std::vector<std::size_t> unmatched_sends;  ///< sent but never received
  std::vector<std::size_t> unmatched_recvs;  ///< received with no send record
};

/// Per-rank program-order index over the whole trace, the shared
/// artifact that replaces the three hand-rolled builders causality,
/// races, and the action graph used to carry.  Built (and kept fresh
/// incrementally) by `analysis::Session::rank_index()`; defined here so
/// the causality and graph layers can consume it by reference.
struct RankIndex {
  /// `seq[r][k]` = global display index of rank r's k-th event in
  /// program order (marker order, per the store contract).
  std::vector<std::vector<std::size_t>> seq;
  /// `position[i]` = program-order position of display index i within
  /// its own rank (the inverse of `seq`).
  std::vector<std::size_t> position;
  /// `rank[i]` = the rank display index i belongs to.
  std::vector<mpi::Rank> rank;
};

/// The message DAG whose paths are happens-before: per-rank program
/// order plus one send → receive edge per matched message.  Built once
/// per trace state by `analysis::Session::message_dag()` from the
/// matching and the rank index; causal order, the critical path and
/// race detection all read it instead of rebuilding it.
struct MessageDag {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// `partner[i]` = the matched endpoint of display index i (a send's
  /// receive, a receive's send), or `kNone`.
  std::vector<std::size_t> partner;
  /// Every event once, each after its rank predecessor and, if it is a
  /// matched receive, after its send.
  std::vector<std::size_t> order;

  /// Visits every event in `order` as `visit(e, send)`, where `send` is
  /// the matched send when `e` is a matched receive and `kNone`
  /// otherwise.  A receive's send comes before it in the order and a
  /// send's receive after it, which is what tells the two apart.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    std::vector<bool> seen(partner.size(), false);
    for (const std::size_t e : order) {
      const std::size_t p = partner[e];
      visit(e, p != kNone && seen[p] ? p : kNone);
      seen[e] = true;
    }
  }
};

/// The event fields the history views read, as one flat array per
/// field indexed by display index (33 bytes/event): the critical
/// path's durations, the action and trace graphs' runs and arcs, and
/// the time stopline's cut.  Built once per trace state by
/// `analysis::Session::event_columns()` in one column-pruned pass over
/// the segments, so those passes walk `RankIndex::seq` over memory
/// instead of sending every rank through storage.
struct EventColumns {
  std::vector<EventKind> kind;
  std::vector<ConstructId> construct;
  std::vector<std::uint64_t> marker;
  std::vector<mpi::Rank> peer;
  std::vector<support::TimeNs> t_start;
  std::vector<support::TimeNs> t_end;

  [[nodiscard]] std::size_t size() const { return kind.size(); }
};

/// An immutable execution history: the merged event stream of one run.
///
/// `Trace` is a query facade over a `TraceStore` backend — either the
/// eager in-memory vector (collector output, v1 files) or the lazy
/// segmented store (v2/v3 files opened by footer).  Events are addressed
/// by global display order (start time, ties by rank then marker);
/// each rank's program order is exposed through `rank_event` /
/// `for_each_rank_event`.  All correctness-critical queries (markers,
/// matching) use per-rank order and sequence numbers, never wall time.
///
/// Every query is a cursor or range query (`for_each_event`,
/// `for_each_rank_event`, `for_each_in_window`, `events_in_window`,
/// `find_marker`, `last_event_at_or_before`), so none forces full
/// materialization on a lazy backend.  Whole-trace indexes, such as
/// each rank's program order, are `analysis::Session` artifacts.
class Trace {
 public:
  Trace() = default;

  /// Builds an in-memory trace from raw events.  `constructs` may be
  /// shared with a live registry; it is only read.
  Trace(int num_ranks, std::vector<Event> events,
        std::shared_ptr<const ConstructRegistry> constructs);

  /// Wraps an existing store (e.g. a `SegmentedTraceStore`).
  explicit Trace(std::shared_ptr<const TraceStore> store);

  [[nodiscard]] int num_ranks() const {
    return store_ ? store_->num_ranks() : 0;
  }
  [[nodiscard]] std::size_t size() const { return store_ ? store_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// The event at global display index `i`, by value: a segmented
  /// backend may evict the backing segment as soon as this returns, so
  /// no reference into storage can be handed out.
  [[nodiscard]] Event event(std::size_t i) const;

  /// True when the backend loads segments lazily instead of holding
  /// every event in memory.
  [[nodiscard]] bool is_lazy() const {
    return store_ &&
           dynamic_cast<const InMemoryTraceStore*>(store_.get()) == nullptr;
  }

  /// The storage backend (null for a default-constructed trace).
  [[nodiscard]] const std::shared_ptr<const TraceStore>& store() const {
    return store_;
  }

  /// The construct table (never null after construction).
  [[nodiscard]] const ConstructRegistry& constructs() const;

  /// Shared handle to the construct table.
  [[nodiscard]] std::shared_ptr<const ConstructRegistry> constructs_ptr() const;

  /// Number of events recorded by `rank`.
  [[nodiscard]] std::size_t rank_size(mpi::Rank rank) const;

  /// Global display index of `rank`'s `pos`-th event in program order.
  [[nodiscard]] std::size_t rank_event(mpi::Rank rank, std::size_t pos) const;

  /// Visits every event in display order with its global index.
  void for_each_event(const EventVisitor& visit) const;

  /// Visits one rank's events in program order.
  void for_each_rank_event(mpi::Rank rank, const EventVisitor& visit) const;

  /// Visits the events whose [t_start, t_end] intersects [t0, t1], in
  /// display order.  On a segmented backend only the segments the
  /// window touches are loaded.
  void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                          const EventVisitor& visit) const;

  /// First event of `rank` whose marker equals `marker`, if any.
  /// Binary search over the rank's program-order index.
  [[nodiscard]] std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const;

  /// Last event of `rank` whose start time is <= `t`, if any.  This is
  /// the hit-test a vertical stopline uses to turn a mouse position
  /// into per-rank execution markers (paper §3.1).
  [[nodiscard]] std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const;

  /// Earliest start time in the trace (0 when empty).
  [[nodiscard]] support::TimeNs t_min() const {
    return store_ ? store_->t_min() : 0;
  }

  /// Latest end time in the trace (0 when empty).
  [[nodiscard]] support::TimeNs t_max() const {
    return store_ ? store_->t_max() : 0;
  }

  /// Indices of events whose [t_start, t_end] intersects [t0, t1], in
  /// display order.  Used by the visualizer's zoom window and by the
  /// trace graph's rescan-on-zoom.
  [[nodiscard]] std::vector<std::size_t> events_in_window(
      support::TimeNs t0, support::TimeNs t1) const;

  // --- Segment view (the unit of analysis parallelism) ----------------
  //
  // The store exposes the stream as display-order segments (the v2/v3
  // directory's segments, or fixed chunks in memory); segment
  // boundaries depend only on the history, never on thread count.  A
  // pass that builds one partial per segment on the analysis pool and
  // folds them **in segment-index order** — completion order is
  // irrelevant — is bit-identical at 1, 2, or 64 threads.

  /// Number of display-order segments (0 when empty).
  [[nodiscard]] std::size_t segment_count() const {
    return store_ ? store_->segment_count() : 0;
  }

  /// Global display-index range [begin, end) of segment `seg`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const;

  /// Visits segment `seg`'s events in display order.  Thread-safe.
  void for_each_in_segment(std::size_t seg, const EventVisitor& visit) const;

  /// Like `for_each_in_segment`, but the caller promises to read only
  /// the fields selected by `cols` (store.hpp's `kCol*` bits).  A
  /// columnar backend decodes just those columns and leaves the other
  /// fields value-initialized; other backends deliver full events.
  void for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                const EventVisitor& visit) const;

  /// Zone summary of segment `seg` (kind/rank presence, time span)
  /// when the backend's directory has one — lets analysis passes skip
  /// segments, or request fewer columns, without touching event data.
  [[nodiscard]] std::optional<SegmentZones> segment_zones(
      std::size_t seg) const;

  /// Runs `body(seg)` for every segment on the analysis pool.  `site`
  /// tags the telemetry spans and `exec.tasks.<site>` counter.
  void parallel_for_each_segment(
      std::string_view site,
      const std::function<void(std::size_t seg)>& body) const;

 private:
  std::shared_ptr<const TraceStore> store_;
};

}  // namespace tdbg::trace
