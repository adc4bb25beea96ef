#include "graph/comm_graph.hpp"

#include "support/strings.hpp"

namespace tdbg::graph {

std::vector<std::size_t> CommGraph::unmatched_sends() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].send_event != kNoEvent && nodes_[i].recv_event == kNoEvent) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<std::size_t> CommGraph::unmatched_recvs() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].send_event == kNoEvent && nodes_[i].recv_event != kNoEvent) {
      out.push_back(i);
    }
  }
  return out;
}

ExportGraph CommGraph::to_export() const {
  ExportGraph out;
  out.title = "communication graph";
  out.nodes.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    std::string id;
    support::append(id, "m", i);
    std::string label;
    support::append(label, id, ": ", n.src, "->", n.dst, " tag ", n.tag);
    if (!n.matched()) {
      label += n.send_event != kNoEvent ? " (never received)"
                                        : " (no send record)";
    }
    out.nodes.push_back(ExportNode{std::move(id), std::move(label), {}});
  }
  out.edges.reserve(arcs_.size());
  for (const auto& [from, to] : arcs_) {
    out.edges.push_back(ExportEdge{from, to, {}});
  }
  return out;
}

}  // namespace tdbg::graph
