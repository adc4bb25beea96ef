#pragma once

#include <limits>
#include <utility>
#include <vector>

#include "graph/export.hpp"
#include "trace/trace.hpp"

/// \file comm_graph.hpp
/// The communication graph (paper §3.2/Fig. 4, §4.4): "Each node
/// corresponds to one or two messages.  The arcs describe causality of
/// messages."
///
/// A node is a matched (send, receive) pair — added "when a send or
/// receive is matched" (§4.4) — or a lone unmatched send/receive,
/// which is exactly what the debugger's communication supervision
/// surfaces to the user.  Arcs are the per-process covering relation
/// of message causality: consecutive message endpoints on the same
/// rank connect their messages.

namespace tdbg::graph {

/// Sentinel event index for the missing half of an unmatched message.
inline constexpr std::size_t kNoEvent = std::numeric_limits<std::size_t>::max();

/// One message (or half of one, when unmatched).
struct MessageNode {
  std::size_t send_event = kNoEvent;  ///< trace index of the send record
  std::size_t recv_event = kNoEvent;  ///< trace index of the receive record
  mpi::Rank src = -1;
  mpi::Rank dst = -1;
  mpi::Tag tag = mpi::kAnyTag;

  [[nodiscard]] bool matched() const {
    return send_event != kNoEvent && recv_event != kNoEvent;
  }
};

/// The communication graph of one trace.
///
/// Constructed from prebuilt parts by the fused-sweep pass behind
/// `analysis::Session::comm_graph()`; the graph layer itself never
/// scans the trace or matches messages.
class CommGraph {
 public:
  CommGraph() = default;
  CommGraph(std::vector<MessageNode> nodes,
            std::vector<std::pair<std::size_t, std::size_t>> arcs)
      : nodes_(std::move(nodes)), arcs_(std::move(arcs)) {}

  [[nodiscard]] const std::vector<MessageNode>& nodes() const { return nodes_; }

  /// Causality arcs as (from, to) node indices.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>& arcs()
      const {
    return arcs_;
  }

  /// Node indices of unmatched sends (sent, never received) — the list
  /// §4.4 keeps for the user.
  [[nodiscard]] std::vector<std::size_t> unmatched_sends() const;

  /// Node indices of receives with no recorded send.
  [[nodiscard]] std::vector<std::size_t> unmatched_recvs() const;

  /// Exportable view (Fig. 4).
  [[nodiscard]] ExportGraph to_export() const;

 private:
  std::vector<MessageNode> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> arcs_;
};

}  // namespace tdbg::graph
