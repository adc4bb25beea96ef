#include "graph/action_graph.hpp"

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/strings.hpp"

namespace tdbg::graph {

ActionGraph ActionGraph::build(const trace::RankIndex& index,
                               const trace::EventColumns& columns) {
  TDBG_CHECK(columns.size() == index.position.size(),
             "event columns and rank index cover different traces");
  ActionGraph g;
  g.per_rank_.resize(index.seq.size());
  // Run-collapsing is a per-rank fold over that rank's program order;
  // each task owns its `per_rank_` slot, so ranks build concurrently
  // with no shared state and a scheduling-independent result.
  exec::Executor::global().parallel_for(
      g.per_rank_.size(), "graph.actions", [&](std::size_t ri) {
        const auto r = static_cast<mpi::Rank>(ri);
        auto& actions = g.per_rank_[ri];
        std::vector<trace::ConstructId> stack;
        for (const std::size_t i : index.seq[ri]) {
          const auto kind = columns.kind[i];
          const auto construct = columns.construct[i];
          const auto marker = columns.marker[i];
          if (kind == trace::EventKind::kExit) {
            if (!stack.empty()) stack.pop_back();
            continue;
          }
          const auto parent = stack.empty() ? trace::kNoConstruct : stack.back();
          if (kind == trace::EventKind::kEnter) stack.push_back(construct);
          // Extend the previous action when this operation continues
          // the same run (same parent activation, same construct,
          // same kind).
          if (!actions.empty()) {
            auto& last = actions.back();
            if (last.parent == parent && last.construct == construct &&
                last.kind == kind) {
              ++last.count;
              last.marker_hi = marker;
              continue;
            }
          }
          actions.push_back(
              Action{r, parent, construct, kind, 1, marker, marker});
        }
      });
  return g;
}

const std::vector<Action>& ActionGraph::actions(mpi::Rank rank) const {
  return per_rank_.at(static_cast<std::size_t>(rank));
}

std::size_t ActionGraph::total_actions() const {
  std::size_t n = 0;
  for (const auto& v : per_rank_) n += v.size();
  return n;
}

std::uint64_t ActionGraph::total_operations() const {
  std::uint64_t n = 0;
  for (const auto& v : per_rank_) {
    for (const auto& a : v) n += a.count;
  }
  return n;
}

ExportGraph ActionGraph::to_export(
    const trace::ConstructRegistry& constructs) const {
  ExportGraph out;
  out.title = "action graph";
  out.nodes.reserve(total_actions());
  out.edges.reserve(total_actions());
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    const auto& actions = per_rank_[r];
    const std::string group = "rank " + std::to_string(r);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      const auto& a = actions[i];
      std::string id;
      support::append(id, "r", r, "a", i);
      std::string label;
      support::append(label, trace::event_kind_name(a.kind), " ",
                      a.construct == trace::kNoConstruct
                          ? std::string("?")
                          : constructs.info(a.construct).name);
      if (a.count > 1) support::append(label, " x", a.count);
      const std::size_t node = out.nodes.size();
      if (i > 0) out.edges.push_back(ExportEdge{node - 1, node, {}});
      out.nodes.push_back(ExportNode{std::move(id), std::move(label), group});
    }
  }
  return out;
}

}  // namespace tdbg::graph
