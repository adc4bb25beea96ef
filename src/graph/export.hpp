#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// \file export.hpp
/// Generic graph description plus DOT and VCG writers.
///
/// The paper displays its graphs with `xvcg` ("The graph was converted
/// to VCG format displayed with the xvcg graph layout tool", Fig. 9);
/// the VCG writer here emits that format.  DOT is provided for modern
/// tooling.

namespace tdbg::graph {

/// A node of an exportable graph.
struct ExportNode {
  std::string id;     ///< unique identifier
  std::string label;  ///< display label
  std::string group;  ///< optional cluster (e.g. "rank 3"), may be empty
};

/// A directed edge of an exportable graph, between two of its nodes.
struct ExportEdge {
  std::size_t from = 0;  ///< index into `ExportGraph::nodes`
  std::size_t to = 0;    ///< index into `ExportGraph::nodes`
  std::string label;     ///< optional edge label (e.g. call count)
};

/// A displayable graph, produced by the specific graph types'
/// `to_export()` methods.
struct ExportGraph {
  std::string title;
  std::vector<ExportNode> nodes;
  std::vector<ExportEdge> edges;
};

/// Renders the graph in Graphviz DOT format.
std::string to_dot(const ExportGraph& graph);

/// Renders the graph in VCG format (the paper's xvcg tool).
std::string to_vcg(const ExportGraph& graph);

}  // namespace tdbg::graph
