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

// --- golden bytes ------------------------------------------------------------

/// A message record with explicit times, for the golden trace.
Event msg(EventKind kind, mpi::Rank rank, std::uint64_t marker,
          support::TimeNs t_start, support::TimeNs t_end, mpi::Rank peer,
          mpi::Tag tag, mpi::ChannelSeq seq, std::uint64_t bytes) {
  Event e;
  e.kind = kind;
  e.rank = rank;
  e.marker = marker;
  e.construct = 1;
  e.t_start = t_start;
  e.t_end = t_end;
  e.peer = peer;
  e.tag = tag;
  e.channel_seq = seq;
  e.bytes = bytes;
  return e;
}

/// Eleven ranks whose messages hit every corner of matching, traffic
/// and the comm graph: two sends on channel 0->1 whose markers run
/// against display order (only the FIFO sort pairs them right), an
/// unmatched send, an orphan receive, a duplicate channel seq, a
/// self-send, out-of-range peers -3, -1 and 12, and a construct name
/// that needs every escape.
trace::Trace golden_trace() {
  auto reg = std::make_shared<trace::ConstructRegistry>();
  reg->intern("main");
  reg->intern("say \"hi\" \\ <a> & b\nnext");
  constexpr auto kSend = EventKind::kSend;
  constexpr auto kRecv = EventKind::kRecv;
  std::vector<Event> events;
  for (mpi::Rank r = 0; r < 11; ++r) {
    Event enter = ev(EventKind::kEnter, r, 1, 0);
    enter.t_start = r;
    enter.t_end = 500;
    events.push_back(enter);
    Event exit = ev(EventKind::kExit, r, 40, 0);
    exit.t_start = 400 + r;
    exit.t_end = 401 + r;
    events.push_back(exit);
  }
  // Rank 0: marker 3 starts before marker 2.
  events.push_back(msg(kSend, 0, 2, 20, 22, 1, 7, 0, 100));
  events.push_back(msg(kSend, 0, 3, 10, 12, 1, 8, 0, 50));
  events.push_back(msg(kSend, 0, 4, 30, 31, 2, 7, 0, 10));    // never received
  events.push_back(msg(kSend, 0, 5, 40, 41, 0, 9, 0, 4));     // self-send
  events.push_back(msg(kRecv, 0, 6, 45, 47, 0, 9, 0, 4));
  events.push_back(msg(kSend, 0, 7, 50, 51, -3, 1, 0, 8));    // peer -3
  events.push_back(msg(kSend, 0, 8, 55, 56, 5, 2, 0, 16));
  events.push_back(msg(kSend, 0, 9, 58, 60, 5, 2, 0, 16));
  events.push_back(msg(kSend, 0, 10, 61, 62, 12, 2, 0, 3));   // peer 12
  // Rank 1: seq 1 twice (the second is an orphan), then peer -1.
  events.push_back(msg(kRecv, 1, 2, 25, 35, 0, 7, 0, 100));
  events.push_back(msg(kRecv, 1, 3, 28, 40, 0, 8, 1, 50));
  events.push_back(msg(kRecv, 1, 4, 60, 63, 0, 8, 1, 50));
  Event wild = msg(kRecv, 1, 5, 65, 66, -1, 0, 0, 1);
  wild.wildcard = true;
  events.push_back(wild);
  events.push_back(msg(kSend, 1, 6, 70, 71, 5, 4, 0, 32));
  // Rank 5: both messages from 0, one from 1, and one from 3 that
  // rank 3 never sent.
  events.push_back(msg(kRecv, 5, 2, 57, 59, 0, 2, 0, 16));
  events.push_back(msg(kRecv, 5, 3, 64, 80, 0, 2, 1, 16));
  events.push_back(msg(kRecv, 5, 4, 72, 75, 1, 4, 0, 32));
  events.push_back(msg(kRecv, 5, 5, 76, 77, 3, 0, 0, 2));
  // Rank 10 sends one message to each of ranks 2..9 but 5.
  std::uint64_t marker = 2;
  for (mpi::Rank r = 2; r < 10; ++r) {
    if (r == 5) continue;
    events.push_back(msg(kSend, 10, marker++, 100 + r, 101 + r, r, 5, 0, 64));
    events.push_back(msg(kRecv, r, 2, 120 + r, 130 + 2 * r, 10, 5, 0, 64));
  }
  return trace::Trace(11, std::move(events), std::move(reg));
}

// The outputs of `golden_trace()`, fixed byte for byte.
constexpr const char* kGoldenCommDot = R"golden(digraph "communication graph" {
  rankdir=LR;
  node [shape=box, fontsize=10];
  "m0" [label="m0: 0-&gt;1 tag 7"];
  "m1" [label="m1: 0-&gt;1 tag 8"];
  "m2" [label="m2: 0-&gt;0 tag 9"];
  "m3" [label="m3: 0-&gt;5 tag 2"];
  "m4" [label="m4: 0-&gt;5 tag 2"];
  "m5" [label="m5: 1-&gt;5 tag 4"];
  "m6" [label="m6: 10-&gt;2 tag 5"];
  "m7" [label="m7: 10-&gt;3 tag 5"];
  "m8" [label="m8: 10-&gt;4 tag 5"];
  "m9" [label="m9: 10-&gt;6 tag 5"];
  "m10" [label="m10: 10-&gt;7 tag 5"];
  "m11" [label="m11: 10-&gt;8 tag 5"];
  "m12" [label="m12: 10-&gt;9 tag 5"];
  "m13" [label="m13: 0-&gt;2 tag 7 (never received)"];
  "m14" [label="m14: 0-&gt;-3 tag 1 (never received)"];
  "m15" [label="m15: 0-&gt;12 tag 2 (never received)"];
  "m16" [label="m16: 0-&gt;1 tag 8 (no send record)"];
  "m17" [label="m17: -1-&gt;1 tag 0 (no send record)"];
  "m18" [label="m18: 3-&gt;5 tag 0 (no send record)"];
  "m0" -> "m1";
  "m1" -> "m13";
  "m1" -> "m16";
  "m2" -> "m14";
  "m3" -> "m4";
  "m4" -> "m5";
  "m4" -> "m15";
  "m5" -> "m18";
  "m6" -> "m7";
  "m7" -> "m8";
  "m8" -> "m9";
  "m9" -> "m10";
  "m10" -> "m11";
  "m11" -> "m12";
  "m13" -> "m2";
  "m14" -> "m3";
  "m16" -> "m17";
  "m17" -> "m5";
}
)golden";

constexpr const char* kGoldenCommVcg = R"golden(graph: {
  title: "communication graph"
  layoutalgorithm: minbackward
  display_edge_labels: yes
  node: { title: "m0" label: "m0: 0-&gt;1 tag 7" }
  node: { title: "m1" label: "m1: 0-&gt;1 tag 8" }
  node: { title: "m2" label: "m2: 0-&gt;0 tag 9" }
  node: { title: "m3" label: "m3: 0-&gt;5 tag 2" }
  node: { title: "m4" label: "m4: 0-&gt;5 tag 2" }
  node: { title: "m5" label: "m5: 1-&gt;5 tag 4" }
  node: { title: "m6" label: "m6: 10-&gt;2 tag 5" }
  node: { title: "m7" label: "m7: 10-&gt;3 tag 5" }
  node: { title: "m8" label: "m8: 10-&gt;4 tag 5" }
  node: { title: "m9" label: "m9: 10-&gt;6 tag 5" }
  node: { title: "m10" label: "m10: 10-&gt;7 tag 5" }
  node: { title: "m11" label: "m11: 10-&gt;8 tag 5" }
  node: { title: "m12" label: "m12: 10-&gt;9 tag 5" }
  node: { title: "m13" label: "m13: 0-&gt;2 tag 7 (never received)" }
  node: { title: "m14" label: "m14: 0-&gt;-3 tag 1 (never received)" }
  node: { title: "m15" label: "m15: 0-&gt;12 tag 2 (never received)" }
  node: { title: "m16" label: "m16: 0-&gt;1 tag 8 (no send record)" }
  node: { title: "m17" label: "m17: -1-&gt;1 tag 0 (no send record)" }
  node: { title: "m18" label: "m18: 3-&gt;5 tag 0 (no send record)" }
  edge: { sourcename: "m0" targetname: "m1" }
  edge: { sourcename: "m1" targetname: "m13" }
  edge: { sourcename: "m1" targetname: "m16" }
  edge: { sourcename: "m2" targetname: "m14" }
  edge: { sourcename: "m3" targetname: "m4" }
  edge: { sourcename: "m4" targetname: "m5" }
  edge: { sourcename: "m4" targetname: "m15" }
  edge: { sourcename: "m5" targetname: "m18" }
  edge: { sourcename: "m6" targetname: "m7" }
  edge: { sourcename: "m7" targetname: "m8" }
  edge: { sourcename: "m8" targetname: "m9" }
  edge: { sourcename: "m9" targetname: "m10" }
  edge: { sourcename: "m10" targetname: "m11" }
  edge: { sourcename: "m11" targetname: "m12" }
  edge: { sourcename: "m13" targetname: "m2" }
  edge: { sourcename: "m14" targetname: "m3" }
  edge: { sourcename: "m16" targetname: "m17" }
  edge: { sourcename: "m17" targetname: "m5" }
}
)golden";

constexpr const char* kGoldenActionDot = R"golden(digraph "action graph" {
  rankdir=LR;
  node [shape=box, fontsize=10];
  subgraph cluster_0 {
    label="rank 0";
    "r0a0" [label="enter main"];
    "r0a1" [label="send say \"hi\" \\ &lt;a&gt; &amp; b\nnext x4"];
    "r0a2" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
    "r0a3" [label="send say \"hi\" \\ &lt;a&gt; &amp; b\nnext x4"];
  }
  subgraph cluster_1 {
    label="rank 1";
    "r1a0" [label="enter main"];
    "r1a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext x4"];
    "r1a2" [label="send say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_2 {
    label="rank 10";
    "r10a0" [label="enter main"];
    "r10a1" [label="send say \"hi\" \\ &lt;a&gt; &amp; b\nnext x7"];
  }
  subgraph cluster_3 {
    label="rank 2";
    "r2a0" [label="enter main"];
    "r2a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_4 {
    label="rank 3";
    "r3a0" [label="enter main"];
    "r3a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_5 {
    label="rank 4";
    "r4a0" [label="enter main"];
    "r4a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_6 {
    label="rank 5";
    "r5a0" [label="enter main"];
    "r5a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext x4"];
  }
  subgraph cluster_7 {
    label="rank 6";
    "r6a0" [label="enter main"];
    "r6a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_8 {
    label="rank 7";
    "r7a0" [label="enter main"];
    "r7a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_9 {
    label="rank 8";
    "r8a0" [label="enter main"];
    "r8a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  subgraph cluster_10 {
    label="rank 9";
    "r9a0" [label="enter main"];
    "r9a1" [label="recv say \"hi\" \\ &lt;a&gt; &amp; b\nnext"];
  }
  "r0a0" -> "r0a1";
  "r0a1" -> "r0a2";
  "r0a2" -> "r0a3";
  "r1a0" -> "r1a1";
  "r1a1" -> "r1a2";
  "r2a0" -> "r2a1";
  "r3a0" -> "r3a1";
  "r4a0" -> "r4a1";
  "r5a0" -> "r5a1";
  "r6a0" -> "r6a1";
  "r7a0" -> "r7a1";
  "r8a0" -> "r8a1";
  "r9a0" -> "r9a1";
  "r10a0" -> "r10a1";
}
)golden";

constexpr const char* kGoldenTraffic = R"golden(traffic report: 11 channels
  0 -> 0: 1 msgs, 4 bytes, latency mean 7 ns
  0 -> 1: 2 msgs, 150 bytes, latency mean 22 ns
  0 -> 5: 2 msgs, 32 bytes, latency mean 13 ns
  1 -> 5: 1 msgs, 32 bytes, latency mean 5 ns
  10 -> 2: 1 msgs, 64 bytes, latency mean 32 ns
  10 -> 3: 1 msgs, 64 bytes, latency mean 33 ns
  10 -> 4: 1 msgs, 64 bytes, latency mean 34 ns
  10 -> 6: 1 msgs, 64 bytes, latency mean 36 ns
  10 -> 7: 1 msgs, 64 bytes, latency mean 37 ns
  10 -> 8: 1 msgs, 64 bytes, latency mean 38 ns
  10 -> 9: 1 msgs, 64 bytes, latency mean 39 ns
per-rank:
  rank 0: 5 sends / 1 recvs, 186 out / 4 in
  rank 1: 1 sends / 2 recvs, 32 out / 150 in
  rank 2: 0 sends / 1 recvs, 0 out / 64 in
  rank 3: 0 sends / 1 recvs, 0 out / 64 in
  rank 4: 0 sends / 1 recvs, 0 out / 64 in
  rank 5: 0 sends / 3 recvs, 0 out / 64 in
  rank 6: 0 sends / 1 recvs, 0 out / 64 in
  rank 7: 0 sends / 1 recvs, 0 out / 64 in
  rank 8: 0 sends / 1 recvs, 0 out / 64 in
  rank 9: 0 sends / 1 recvs, 0 out / 64 in
  rank 10: 7 sends / 0 recvs, 448 out / 0 in
irregularities:
  ! missed message: send 0->2 tag 7 was never received
  ! missed message: send 0->-3 tag 1 was never received
  ! missed message: send 0->12 tag 2 was never received
  ! orphan receive on rank 1 from 0 (no send record)
  ! orphan receive on rank 1 from -1 (no send record)
  ! orphan receive on rank 5 from 3 (no send record)
  ! rank 1 received 2 messages; its peers received 1
  ! rank 5 received 3 messages; its peers received 1
  ! rank 10 received 0 messages; its peers received 1
)golden";

TEST(GoldenBytesTest, CommActionAndTrafficTextMatchLiterals) {
  const auto trace = golden_trace();
  analysis::Session session(trace);
  const auto comm = session.comm_graph().to_export();
  const std::string comm_dot = to_dot(comm);
  const std::string comm_vcg = to_vcg(comm);
  const std::string action_dot =
      to_dot(session.action_graph().to_export(trace.constructs()));
  const std::string traffic = session.traffic().to_string();
  EXPECT_EQ(comm_dot, kGoldenCommDot);
  EXPECT_EQ(comm_vcg, kGoldenCommVcg);
  EXPECT_EQ(action_dot, kGoldenActionDot);
  EXPECT_EQ(traffic, kGoldenTraffic);
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
