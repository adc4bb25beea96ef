#include "graph/trace_graph.hpp"

#include <algorithm>
#include <set>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tdbg::graph {

std::string node_label(const NodeId& id,
                       const trace::ConstructRegistry& constructs) {
  std::string out;
  if (id.kind == NodeId::Kind::kChannel) {
    support::append(out, "ch ", id.rank, "->", id.peer);
  } else {
    support::append(out, "r", id.rank, ":",
                    id.construct == trace::kNoConstruct
                        ? std::string("<main>")
                        : constructs.info(id.construct).name);
  }
  return out;
}

TraceGraph::TraceGraph(int num_ranks, std::size_t merge_limit)
    : num_ranks_(num_ranks), merge_limit_(std::max<std::size_t>(2, merge_limit)),
      stacks_(static_cast<std::size_t>(num_ranks)) {
  TDBG_CHECK(num_ranks > 0, "trace graph needs at least one rank");
}

void TraceGraph::add_arc(const NodeId& from, const NodeId& to, ArcKind kind,
                         mpi::Rank marker_rank, std::uint64_t marker) {
  auto& group = arcs_[{from, to, kind}];
  group.push_back(Arc{from, to, kind, 1, marker_rank, marker, marker});
  if (group.size() > merge_limit_) {
    // Dissemination: merge every other arc with the previous one,
    // halving the stored count while preserving totals and marker
    // coverage.
    std::vector<Arc> merged;
    merged.reserve(group.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < group.size(); i += 2) {
      Arc a = group[i];
      const Arc& b = group[i + 1];
      a.count += b.count;
      a.marker_lo = std::min(a.marker_lo, b.marker_lo);
      a.marker_hi = std::max(a.marker_hi, b.marker_hi);
      merged.push_back(a);
    }
    if (group.size() % 2 == 1) merged.push_back(group.back());
    group = std::move(merged);
  }
}

void TraceGraph::add_event(const trace::Event& event) {
  auto& stack = stacks_.at(static_cast<std::size_t>(event.rank));
  const auto current_function = [&]() -> trace::ConstructId {
    return stack.empty() ? event.construct : stack.back();
  };
  switch (event.kind) {
    case trace::EventKind::kEnter: {
      const NodeId callee{NodeId::Kind::kFunction, event.rank, event.construct,
                          -1};
      const NodeId caller{NodeId::Kind::kFunction, event.rank,
                          stack.empty() ? trace::kNoConstruct : stack.back(),
                          -1};
      add_arc(caller, callee, ArcKind::kCall, event.rank, event.marker);
      stack.push_back(event.construct);
      break;
    }
    case trace::EventKind::kExit: {
      if (!stack.empty()) stack.pop_back();
      break;
    }
    case trace::EventKind::kSend: {
      const NodeId fn{NodeId::Kind::kFunction, event.rank, current_function(),
                      -1};
      const NodeId ch{NodeId::Kind::kChannel, event.rank,
                      trace::kNoConstruct, event.peer};
      add_arc(fn, ch, ArcKind::kSend, event.rank, event.marker);
      break;
    }
    case trace::EventKind::kRecv: {
      const NodeId ch{NodeId::Kind::kChannel, event.peer,
                      trace::kNoConstruct, event.rank};
      const NodeId fn{NodeId::Kind::kFunction, event.rank, current_function(),
                      -1};
      add_arc(ch, fn, ArcKind::kRecv, event.rank, event.marker);
      break;
    }
    case trace::EventKind::kCollective:
    case trace::EventKind::kCompute:
    case trace::EventKind::kMark:
    case trace::EventKind::kFaultInjected:
      break;  // not part of the trace-graph abstraction
  }
}

TraceGraph TraceGraph::build(const trace::RankIndex& index,
                             const trace::EventColumns& columns,
                             std::size_t merge_limit) {
  TDBG_CHECK(columns.size() == index.position.size(),
             "event columns and rank index cover different traces");
  TraceGraph g(static_cast<int>(index.seq.size()), merge_limit);
  for (std::size_t r = 0; r < index.seq.size(); ++r) {
    trace::Event e;
    e.rank = static_cast<mpi::Rank>(r);
    for (const std::size_t i : index.seq[r]) {
      e.kind = columns.kind[i];
      e.construct = columns.construct[i];
      e.marker = columns.marker[i];
      e.peer = columns.peer[i];
      g.add_event(e);
    }
  }
  return g;
}

std::size_t TraceGraph::node_count() const {
  std::set<NodeId> nodes;
  for (const auto& [key, group] : arcs_) {
    nodes.insert(std::get<0>(key));
    nodes.insert(std::get<1>(key));
  }
  return nodes.size();
}

std::size_t TraceGraph::arc_count() const {
  std::size_t n = 0;
  for (const auto& [key, group] : arcs_) n += group.size();
  return n;
}

std::uint64_t TraceGraph::operation_count() const {
  std::uint64_t n = 0;
  for (const auto& [key, group] : arcs_) {
    for (const auto& arc : group) n += arc.count;
  }
  return n;
}

std::vector<Arc> TraceGraph::arcs_between(const NodeId& from, const NodeId& to,
                                          ArcKind kind) const {
  const auto it = arcs_.find({from, to, kind});
  return it == arcs_.end() ? std::vector<Arc>{} : it->second;
}

std::vector<std::size_t> TraceGraph::expand_arc(const trace::Trace& trace,
                                                const Arc& arc) const {
  std::vector<std::size_t> hits;
  // Rescan this rank's events, replaying the call stack so that the
  // "function performing" each operation is known, and collect the
  // operations the merged arc summarizes.
  std::vector<trace::ConstructId> stack;
  trace.for_each_rank_event(
      arc.marker_rank, [&](std::size_t i, const trace::Event& e) {
        const auto current = [&]() -> trace::ConstructId {
          return stack.empty() ? e.construct : stack.back();
        };
        const bool in_range =
            e.marker >= arc.marker_lo && e.marker <= arc.marker_hi;
        switch (e.kind) {
          case trace::EventKind::kEnter:
            if (in_range && arc.kind == ArcKind::kCall &&
                e.construct == arc.to.construct &&
                (stack.empty() ? trace::kNoConstruct : stack.back()) ==
                    arc.from.construct) {
              hits.push_back(i);
            }
            stack.push_back(e.construct);
            break;
          case trace::EventKind::kExit:
            if (!stack.empty()) stack.pop_back();
            break;
          case trace::EventKind::kSend:
            if (in_range && arc.kind == ArcKind::kSend &&
                e.peer == arc.to.peer && current() == arc.from.construct) {
              hits.push_back(i);
            }
            break;
          case trace::EventKind::kRecv:
            if (in_range && arc.kind == ArcKind::kRecv &&
                e.peer == arc.from.rank && current() == arc.to.construct) {
              hits.push_back(i);
            }
            break;
          default:
            break;
        }
      });
  return hits;
}

ExportGraph TraceGraph::to_export(
    const trace::ConstructRegistry& constructs) const {
  ExportGraph out;
  out.title = "trace graph";
  std::map<NodeId, std::size_t> node_index;
  for (const auto& [key, group] : arcs_) {
    node_index.emplace(std::get<0>(key), 0);
    node_index.emplace(std::get<1>(key), 0);
  }
  for (auto& [id, index] : node_index) {
    index = out.nodes.size();
    ExportNode n;
    n.id = node_label(id, constructs);
    n.label = n.id;
    if (id.kind == NodeId::Kind::kFunction) {
      n.group = "rank " + std::to_string(id.rank);
    }
    out.nodes.push_back(std::move(n));
  }
  for (const auto& [key, group] : arcs_) {
    for (const auto& arc : group) {
      ExportEdge e;
      e.from = node_index.at(arc.from);
      e.to = node_index.at(arc.to);
      if (arc.count > 1) e.label = "x" + std::to_string(arc.count);
      out.edges.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace tdbg::graph
