#include "graph/export.hpp"

#include <map>

#include "support/strings.hpp"

namespace tdbg::graph {

using support::append;
using support::Escaped;

std::string to_dot(const ExportGraph& graph) {
  std::string out;
  out.reserve(40 * (graph.nodes.size() + graph.edges.size()) + 64);
  append(out, "digraph \"", Escaped{graph.title},
         "\" {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
  const auto node_line = [&out](const ExportNode& n, std::string_view indent) {
    append(out, indent, "\"", Escaped{n.id}, "\" [label=\"", Escaped{n.label},
           "\"];\n");
  };
  // Ungrouped nodes first, then one DOT cluster per group in the
  // groups' lexicographic order ("rank 10" before "rank 2").
  std::map<std::string_view, std::vector<const ExportNode*>> groups;
  for (const auto& n : graph.nodes) {
    if (n.group.empty()) {
      node_line(n, "  ");
    } else {
      groups[n.group].push_back(&n);
    }
  }
  int cluster = 0;
  for (const auto& [group, nodes] : groups) {
    append(out, "  subgraph cluster_", cluster++, " {\n    label=\"",
           Escaped{group}, "\";\n");
    for (const auto* n : nodes) node_line(*n, "    ");
    out += "  }\n";
  }
  for (const auto& e : graph.edges) {
    append(out, "  \"", Escaped{graph.nodes[e.from].id}, "\" -> \"",
           Escaped{graph.nodes[e.to].id}, "\"");
    if (!e.label.empty()) append(out, " [label=\"", Escaped{e.label}, "\"]");
    out += ";\n";
  }
  out += "}\n";
  return out;
}

std::string to_vcg(const ExportGraph& graph) {
  std::string out;
  out.reserve(64 * (graph.nodes.size() + graph.edges.size()) + 128);
  append(out, "graph: {\n  title: \"", Escaped{graph.title},
         "\"\n  layoutalgorithm: minbackward\n  display_edge_labels: yes\n");
  for (const auto& n : graph.nodes) {
    append(out, "  node: { title: \"", Escaped{n.id}, "\" label: \"",
           Escaped{n.label}, "\" }\n");
  }
  for (const auto& e : graph.edges) {
    append(out, "  edge: { sourcename: \"", Escaped{graph.nodes[e.from].id},
           "\" targetname: \"", Escaped{graph.nodes[e.to].id}, "\"");
    if (!e.label.empty()) append(out, " label: \"", Escaped{e.label}, "\"");
    out += " }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace tdbg::graph
