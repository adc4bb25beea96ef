#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "graph/action_graph.hpp"
#include "graph/call_graph.hpp"
#include "graph/comm_graph.hpp"
#include "graph/export.hpp"
#include "graph/trace_graph.hpp"
#include "instrument/session.hpp"
#include "replay/record.hpp"

namespace tdbg::graph {
namespace {

using trace::Event;
using trace::EventKind;

Event ev(EventKind kind, mpi::Rank rank, std::uint64_t marker,
         trace::ConstructId construct, mpi::Rank peer = mpi::kAnySource,
         mpi::ChannelSeq seq = 0) {
  Event e;
  e.kind = kind;
  e.rank = rank;
  e.marker = marker;
  e.construct = construct;
  e.t_start = static_cast<support::TimeNs>(marker * 10);
  e.t_end = e.t_start + 5;
  e.peer = peer;
  e.tag = 0;
  e.channel_seq = seq;
  return e;
}

/// main(0) calls f twice; f sends to rank 1, which receives in g.
trace::Trace small_trace() {
  constexpr trace::ConstructId kMain = 0, kF = 1, kG = 2;
  std::vector<Event> events;
  events.push_back(ev(EventKind::kEnter, 0, 1, kMain));
  events.push_back(ev(EventKind::kEnter, 0, 2, kF));
  events.push_back(ev(EventKind::kSend, 0, 3, kF, 1, 0));
  events.push_back(ev(EventKind::kExit, 0, 3, kF));
  events.push_back(ev(EventKind::kEnter, 0, 4, kF));
  events.push_back(ev(EventKind::kSend, 0, 5, kF, 1, 1));
  events.push_back(ev(EventKind::kExit, 0, 5, kF));
  events.push_back(ev(EventKind::kExit, 0, 5, kMain));
  events.push_back(ev(EventKind::kEnter, 1, 1, kG));
  events.push_back(ev(EventKind::kRecv, 1, 2, kG, 0, 0));
  events.push_back(ev(EventKind::kRecv, 1, 3, kG, 0, 1));
  events.push_back(ev(EventKind::kExit, 1, 3, kG));
  return trace::Trace(2, std::move(events), nullptr);
}

TEST(TraceGraphTest, BuildsCallAndMessageArcs) {
  analysis::Session session(small_trace());
  const auto& g = session.trace_graph();
  // Nodes: r0:main, r0:f, r0:<root>, r1:g, r1:<root>, channel 0->1.
  EXPECT_EQ(g.node_count(), 6u);
  // Arcs: root->main, main->f (x2 stored separately), root->g,
  // f->ch (x2), ch->g (x2): 8 operations total.
  EXPECT_EQ(g.operation_count(), 8u);

  const NodeId main_node{NodeId::Kind::kFunction, 0, 0, -1};
  const NodeId f_node{NodeId::Kind::kFunction, 0, 1, -1};
  const auto calls = g.arcs_between(main_node, f_node, ArcKind::kCall);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].count, 1u);

  const NodeId ch{NodeId::Kind::kChannel, 0, trace::kNoConstruct, 1};
  EXPECT_EQ(g.arcs_between(f_node, ch, ArcKind::kSend).size(), 2u);
  const NodeId g_node{NodeId::Kind::kFunction, 1, 2, -1};
  EXPECT_EQ(g.arcs_between(ch, g_node, ArcKind::kRecv).size(), 2u);
}

TEST(TraceGraphTest, DisseminationBoundsArcCount) {
  constexpr std::size_t kLimit = 8;
  TraceGraph g(1, kLimit);
  // 1000 parallel calls main->f.
  Event enter_main = ev(EventKind::kEnter, 0, 1, 0);
  g.add_event(enter_main);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    g.add_event(ev(EventKind::kEnter, 0, 2 + 2 * i, 1));
    g.add_event(ev(EventKind::kExit, 0, 3 + 2 * i, 1));
  }
  // Stored arcs bounded by the merge limit...
  EXPECT_LE(g.arc_count(), kLimit + 2);
  // ...but the operation count is preserved exactly.
  EXPECT_EQ(g.operation_count(), 1001u);
}

TEST(TraceGraphTest, ExpandArcRecoversMergedOperations) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 4;
  const auto rec = replay::record(
      2, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& g = session.trace_graph(/*merge_limit=*/2);

  // For every merged arc group, expanding all arcs must recover
  // exactly `count` trace events each.
  std::size_t checked = 0;
  for (const auto& [key, group] : g.arc_groups()) {
    for (const auto& arc : group) {
      if (arc.count <= 1) continue;
      const auto events = g.expand_arc(rec.trace, arc);
      EXPECT_EQ(events.size(), arc.count);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u) << "expected at least one merged arc to verify";
}

TEST(TraceGraphTest, NodeCountBoundHolds) {
  // Paper: nodes <= functions * P + P^2.
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 4;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& g = session.trace_graph();
  const auto functions = rec.trace.constructs().size() + 1;  // + <root>
  EXPECT_LE(g.node_count(), functions * 4 + 4 * 4);
}

TEST(CallGraphTest, ProjectsPerRank) {
  analysis::Session session(small_trace());
  const auto& tg = session.trace_graph();
  const auto cg0 = CallGraph::project(tg, 0);
  // Edges on rank 0: root->main, main->f.
  ASSERT_EQ(cg0.edges().size(), 2u);
  EXPECT_EQ(cg0.call_count(1), 2u);  // f called twice
  const auto cg1 = CallGraph::project(tg, 1);
  ASSERT_EQ(cg1.edges().size(), 1u);
  EXPECT_EQ(cg1.call_count(2), 1u);

  const auto merged = CallGraph::project(tg, std::nullopt);
  EXPECT_EQ(merged.edges().size(), 3u);
}

TEST(CallGraphTest, CallsPerArcSplitsEdges) {
  analysis::Session session(small_trace());
  const auto& cg = session.call_graph(0);
  trace::ConstructRegistry reg;
  reg.intern("main");
  reg.intern("f");
  reg.intern("g");
  const auto one_arc = cg.to_export(reg, 0);
  const auto split = cg.to_export(reg, 1);
  // f is called twice: with calls_per_arc=1 the main->f edge doubles.
  EXPECT_EQ(split.edges.size(), one_arc.edges.size() + 1);
}

TEST(CommGraphTest, MatchedPairsBecomeNodes) {
  const auto trace = small_trace();
  analysis::Session session(trace);
  const auto& cg = session.comm_graph();
  ASSERT_EQ(cg.nodes().size(), 2u);
  EXPECT_TRUE(cg.nodes()[0].matched());
  EXPECT_TRUE(cg.unmatched_sends().empty());
  // Both messages 0->1; consecutive on both endpoints: one causal arc.
  ASSERT_EQ(cg.arcs().size(), 1u);
  EXPECT_EQ(cg.arcs()[0].first, 0u);
  EXPECT_EQ(cg.arcs()[0].second, 1u);
}

TEST(CommGraphTest, BuggyStrassenShowsMissedMessage) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.deadlocked);
  analysis::Session session(rec.trace);
  const auto& cg = session.comm_graph();
  const auto missed = cg.unmatched_sends();
  // Exactly one missed message: the second operand that went to rank 0
  // instead of rank 7 (the paper's Fig. 6).
  ASSERT_EQ(missed.size(), 1u);
  const auto& node = cg.nodes()[missed[0]];
  EXPECT_EQ(node.src, 0);
  EXPECT_EQ(node.dst, 0);  // self-send: the misdirected operand
  EXPECT_EQ(node.tag, apps::strassen::kTagOperandB);
}

TEST(ActionGraphTest, CompressesRuns) {
  std::vector<Event> events;
  // Ten consecutive sends inside one function: one action.
  events.push_back(ev(EventKind::kEnter, 0, 1, 0));
  for (std::uint64_t i = 0; i < 10; ++i) {
    events.push_back(ev(EventKind::kSend, 0, 2 + i, 5, 1, i));
  }
  events.push_back(ev(EventKind::kExit, 0, 12, 0));
  analysis::Session session(trace::Trace(2, std::move(events), nullptr));
  const auto& ag = session.action_graph();
  const auto& actions = ag.actions(0);
  ASSERT_EQ(actions.size(), 2u);  // enter main, send x10
  EXPECT_EQ(actions[1].count, 10u);
  EXPECT_EQ(actions[1].kind, EventKind::kSend);
  EXPECT_EQ(ag.total_operations(), 11u);
}

TEST(ExportTest, DotAndVcgAreWellFormed) {
  analysis::Session session(small_trace());
  trace::ConstructRegistry reg;
  reg.intern("main");
  reg.intern("f");
  reg.intern("g");
  const auto& tg = session.trace_graph();
  const auto exported = tg.to_export(reg);

  const auto dot = to_dot(exported);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));

  const auto vcg = to_vcg(exported);
  EXPECT_NE(vcg.find("graph: {"), std::string::npos);
  EXPECT_NE(vcg.find("node: {"), std::string::npos);
  EXPECT_NE(vcg.find("edge: {"), std::string::npos);
  EXPECT_EQ(std::count(vcg.begin(), vcg.end(), '{'),
            std::count(vcg.begin(), vcg.end(), '}'));
}

TEST(ExportTest, LabelsAreEscaped) {
  ExportGraph g;
  g.title = "has \"quotes\" and <angles>";
  g.nodes.push_back(ExportNode{"n\"1", "label \"x\"", ""});
  const auto dot = to_dot(g);
  EXPECT_EQ(dot.find("\"has \"quotes\""), std::string::npos);
  const auto vcg = to_vcg(g);
  EXPECT_NE(vcg.find("\\\""), std::string::npos);
}

}  // namespace
}  // namespace tdbg::graph
