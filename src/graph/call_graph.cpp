#include "graph/call_graph.hpp"

#include <map>
#include <set>

namespace tdbg::graph {

CallGraph CallGraph::project(const TraceGraph& graph,
                             std::optional<mpi::Rank> rank) {
  std::map<std::pair<trace::ConstructId, trace::ConstructId>, std::uint64_t>
      counts;
  for (const auto& [key, group] : graph.arc_groups()) {
    const auto& [from, to, kind] = key;
    if (kind != ArcKind::kCall) continue;
    if (rank && from.rank != *rank) continue;
    for (const auto& arc : group) {
      counts[{from.construct, to.construct}] += arc.count;
    }
  }
  CallGraph cg;
  cg.edges_.reserve(counts.size());
  for (const auto& [pair, calls] : counts) {
    cg.edges_.push_back(CallEdge{pair.first, pair.second, calls});
  }
  return cg;
}

std::uint64_t CallGraph::call_count(trace::ConstructId callee) const {
  std::uint64_t n = 0;
  for (const auto& e : edges_) {
    if (e.callee == callee) n += e.calls;
  }
  return n;
}

std::size_t CallGraph::function_count() const {
  std::set<trace::ConstructId> fns;
  for (const auto& e : edges_) {
    if (e.caller != trace::kNoConstruct) fns.insert(e.caller);
    fns.insert(e.callee);
  }
  return fns.size();
}

ExportGraph CallGraph::to_export(const trace::ConstructRegistry& constructs,
                                 std::uint64_t calls_per_arc) const {
  ExportGraph out;
  out.title = "dynamic call graph";
  const auto name = [&](trace::ConstructId id) {
    return id == trace::kNoConstruct ? std::string("<root>")
                                     : constructs.info(id).name;
  };
  // Constructs that share a name share a node.
  std::map<std::string, std::size_t> node_of;
  const auto add_node = [&](trace::ConstructId id) {
    const auto label = name(id);
    const auto [it, added] = node_of.emplace(label, out.nodes.size());
    if (added) out.nodes.push_back(ExportNode{label, label, {}});
    return it->second;
  };
  for (const auto& e : edges_) {
    const std::size_t caller = add_node(e.caller);
    const std::size_t callee = add_node(e.callee);
    if (calls_per_arc == 0) {
      out.edges.push_back(
          ExportEdge{caller, callee, "x" + std::to_string(e.calls)});
      continue;
    }
    // Fig. 9's "number of calls per arc" display: split the count into
    // parallel arcs of at most `calls_per_arc` calls each.
    std::uint64_t remaining = e.calls;
    while (remaining > 0) {
      const auto chunk = std::min(remaining, calls_per_arc);
      out.edges.push_back(
          ExportEdge{caller, callee, "x" + std::to_string(chunk)});
      remaining -= chunk;
    }
  }
  return out;
}

}  // namespace tdbg::graph
