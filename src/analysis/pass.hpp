#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/traffic.hpp"
#include "graph/comm_graph.hpp"
#include "trace/trace.hpp"

/// \file pass.hpp
/// The raw pass builders behind `analysis::Session` (DeWiz-style: the
/// analyses are composable modules over one shared event-graph
/// substrate, not independent full-scan subsystems).
///
/// The foundation is the **fused sweep**: one segment-parallel pass
/// over the trace that simultaneously feeds
///
///   * message matching (per-channel send/receive records),
///   * communication supervision (the unmatched remainder),
///   * traffic accounting (every field the aggregator needs is
///     captured in the records, so no per-match `event()` lookups),
///   * race-candidate gathering (the send pool and wildcard receives),
///   * comm-graph node/edge extraction, and
///   * the per-rank program-order index,
///
/// where the pre-refactor code ran one full scan per consumer.
/// Per-segment partials concatenate in segment order, so results are
/// bit-identical at any thread count.
///
/// Only this file and `session.cpp` may compute matching or vector
/// clocks; `scripts/verify.sh` greps the rest of the source tree
/// clean.

namespace tdbg::analysis {

/// A send captured by the fused sweep — every field any downstream
/// pass (matching, traffic, races, comm graph) reads.
struct SweepSend {
  std::size_t index = 0;  ///< global display index
  std::uint64_t marker = 0;
  support::TimeNs t_start = 0;
  mpi::Rank rank = 0;  ///< source
  mpi::Rank peer = 0;  ///< destination
  mpi::Tag tag = 0;
  std::uint64_t bytes = 0;
};

/// A receive captured by the fused sweep.
struct SweepRecv {
  std::size_t index = 0;  ///< global display index
  mpi::ChannelSeq seq = 0;
  support::TimeNs t_end = 0;
  mpi::Rank rank = 0;  ///< receiver
  mpi::Rank peer = 0;  ///< actual source
  mpi::Tag tag = 0;
  std::uint64_t bytes = 0;
  bool wildcard = false;
};

/// One (source, dest) channel's records.  Sends are in FIFO order, the
/// sender's program order by (marker, t_start), so the receive with
/// channel sequence number k pairs with `sends[k]`; receives are in
/// display order.
struct SweepChannel {
  std::vector<SweepSend> sends;
  std::vector<SweepRecv> recvs;
};

/// The fused-sweep artifact: everything one pass over the segments can
/// extract.
struct SweepData {
  using ChannelKey = std::pair<mpi::Rank, mpi::Rank>;  ///< (src, dst)

  std::map<ChannelKey, SweepChannel> channels;

  /// Per rank: (marker, display index) for every event, sorted by
  /// marker — the store's program-order contract — ready to be turned
  /// into the shared `trace::RankIndex`.
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> rank_order;

  /// Events swept: the trace's size.
  std::size_t num_events = 0;
};

/// The race detector's candidate pools, in display order (derived from
/// the sweep's channels, no trace rescan).
struct MessagePools {
  std::vector<SweepSend> sends;
  std::vector<SweepRecv> wildcard_recvs;
};

/// One fused pass over every segment of `trace`.
SweepData compute_sweep(const trace::Trace& trace);

/// Per-channel FIFO pairing over the sweep's channels (the
/// non-overtaking rule), identical in every byte to the pre-refactor
/// `Trace::match_report`.
trace::MatchReport compute_match_report(const SweepData& sweep);

/// The shared per-rank program-order index.
std::shared_ptr<const trace::RankIndex> compute_rank_index(
    const SweepData& sweep);

/// The message DAG: each event's matched endpoint, and one topological
/// order of all events.  The only place the program-order + send →
/// receive schedule is computed; throws `tdbg::Error` when the message
/// edges form a cycle with program order.
trace::MessageDag compute_message_dag(const trace::MatchReport& report,
                                      const trace::RankIndex& index);

/// The history views' event columns, gathered by one segment-parallel
/// pass that decodes only those six columns.  Kept out of the fused
/// sweep: the sweep is on the open → match path, and most sessions
/// never ask for the views.
trace::EventColumns compute_event_columns(const trace::Trace& trace);

/// Traffic accounting folded per channel from the sweep records, with
/// the same pairing as `compute_match_report` — no `event()` lookups.
/// Byte-identical to the pre-refactor `analyze_traffic` text output.
TrafficReport compute_traffic(const SweepData& sweep, int num_ranks);

/// The race detector's candidate pools (sorted back into display
/// order from the per-channel lists).
MessagePools compute_message_pools(const SweepData& sweep);

/// Communication-graph construction from the sweep + matching + rank
/// index over a flat per-event node array (node layout and arc list
/// byte-identical to the pre-refactor `CommGraph::from_trace`).
graph::CommGraph compute_comm_graph(const SweepData& sweep,
                                    const trace::MatchReport& report,
                                    const trace::RankIndex& index);

}  // namespace tdbg::analysis
