#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "apps/lu.hpp"
#include "apps/strassen.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"
#include "support/error.hpp"

namespace tdbg::causality {
namespace {

using trace::Event;
using trace::EventKind;

Event ev(EventKind kind, mpi::Rank rank, std::uint64_t marker,
         support::TimeNs t0, support::TimeNs t1,
         mpi::Rank peer = mpi::kAnySource, mpi::Tag tag = 0,
         mpi::ChannelSeq seq = 0) {
  Event e;
  e.kind = kind;
  e.rank = rank;
  e.marker = marker;
  e.t_start = t0;
  e.t_end = t1;
  e.peer = peer;
  e.tag = tag;
  e.channel_seq = seq;
  return e;
}

/// Three ranks: 0 sends to 1, 1 sends to 2.  A transitive chain.
trace::Trace chain_trace() {
  std::vector<Event> events;
  events.push_back(ev(EventKind::kMark, 0, 1, 0, 1));          // a0
  events.push_back(ev(EventKind::kSend, 0, 2, 2, 3, 1));       // s01
  events.push_back(ev(EventKind::kMark, 0, 3, 4, 5));          // a1
  events.push_back(ev(EventKind::kRecv, 1, 1, 6, 7, 0, 0, 0)); // r01
  events.push_back(ev(EventKind::kSend, 1, 2, 8, 9, 2));       // s12
  events.push_back(ev(EventKind::kRecv, 2, 1, 10, 11, 1, 0, 0));  // r12
  events.push_back(ev(EventKind::kMark, 2, 2, 12, 13));        // b1
  return trace::Trace(3, std::move(events), nullptr);
}

/// Two ranks, each of which first receives the message the other rank
/// sends second: the message edges close a cycle with program order,
/// which no real execution can record.
trace::Trace cyclic_trace() {
  std::vector<Event> events;
  events.push_back(ev(EventKind::kRecv, 0, 1, 0, 1, 1, 0, 0));  // r10
  events.push_back(ev(EventKind::kRecv, 1, 1, 0, 1, 0, 0, 0));  // r01
  events.push_back(ev(EventKind::kSend, 0, 2, 2, 3, 1));        // s01
  events.push_back(ev(EventKind::kSend, 1, 2, 2, 3, 0));        // s10
  return trace::Trace(2, std::move(events), nullptr);
}

std::size_t index_of(const trace::Trace& t, mpi::Rank rank,
                     std::uint64_t marker) {
  const auto i = t.find_marker(rank, marker);
  EXPECT_TRUE(i.has_value());
  return *i;
}

TEST(CausalOrderTest, ProgramOrderIsHappensBefore) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto a0 = index_of(trace, 0, 1);
  const auto s01 = index_of(trace, 0, 2);
  EXPECT_TRUE(order.happens_before(a0, s01));
  EXPECT_FALSE(order.happens_before(s01, a0));
  EXPECT_FALSE(order.happens_before(a0, a0));
}

TEST(CausalOrderTest, MessageEdgeAndTransitivity) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto s01 = index_of(trace, 0, 2);
  const auto r01 = index_of(trace, 1, 1);
  const auto r12 = index_of(trace, 2, 1);
  const auto b1 = index_of(trace, 2, 2);
  EXPECT_TRUE(order.happens_before(s01, r01));
  EXPECT_TRUE(order.happens_before(s01, r12));  // transitive via rank 1
  EXPECT_TRUE(order.happens_before(s01, b1));
}

TEST(CausalOrderTest, ConcurrencyAcrossRanks) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto a0 = index_of(trace, 0, 1);
  const auto a1 = index_of(trace, 0, 3);
  const auto r12 = index_of(trace, 2, 1);
  // a1 (after the send on rank 0) is concurrent with rank 2's recv.
  EXPECT_TRUE(order.concurrent(a1, r12));
  // a0 precedes the send, so it happens before everything downstream.
  EXPECT_TRUE(order.happens_before(a0, r12));
}

TEST(CausalOrderTest, PastFrontierPicksLatestPredecessors) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto b1 = index_of(trace, 2, 2);
  const auto frontier = order.past_frontier(b1);
  ASSERT_EQ(frontier.size(), 3u);
  // Rank 0: the send (marker 2) is the last event affecting b1 —
  // marker 3 is concurrent.
  ASSERT_TRUE(frontier[0].has_value());
  EXPECT_EQ(trace.event(*frontier[0]).marker, 2u);
  // Rank 1: its send (marker 2).
  ASSERT_TRUE(frontier[1].has_value());
  EXPECT_EQ(trace.event(*frontier[1]).marker, 2u);
  // Own rank: predecessor.
  ASSERT_TRUE(frontier[2].has_value());
  EXPECT_EQ(trace.event(*frontier[2]).marker, 1u);
}

TEST(CausalOrderTest, FutureFrontierPicksEarliestSuccessors) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto s01 = index_of(trace, 0, 2);
  const auto frontier = order.future_frontier(s01);
  // Rank 1: the receive (marker 1) is the first affected event.
  ASSERT_TRUE(frontier[1].has_value());
  EXPECT_EQ(trace.event(*frontier[1]).marker, 1u);
  // Rank 2: its receive.
  ASSERT_TRUE(frontier[2].has_value());
  EXPECT_EQ(trace.event(*frontier[2]).marker, 1u);
  // Own rank: successor (marker 3).
  ASSERT_TRUE(frontier[0].has_value());
  EXPECT_EQ(trace.event(*frontier[0]).marker, 3u);
}

TEST(CausalOrderTest, PastAndFutureSetsPartitionWithConcurrency) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  for (std::size_t e = 0; e < trace.size(); ++e) {
    const auto past = order.causal_past(e);
    const auto future = order.causal_future(e);
    const auto region = order.concurrency_region(e);
    EXPECT_EQ(past.size() + future.size() + region.size() + 1, trace.size())
        << "event " << e;
    for (auto p : past) EXPECT_TRUE(order.happens_before(p, e));
    for (auto f : future) EXPECT_TRUE(order.happens_before(e, f));
    for (auto c : region) EXPECT_TRUE(order.concurrent(e, c));
  }
}

TEST(CausalOrderTest, FrontierCutsAreConsistent) {
  const auto trace = chain_trace();
  analysis::Session session(trace);
  const auto& order = session.causal_order();
  const auto& report = session.match_report();
  const auto& index = session.rank_index();
  for (std::size_t e = 0; e < trace.size(); ++e) {
    EXPECT_TRUE(is_consistent(report, index, order.past_frontier_cut(e)))
        << "past cut of " << e;
    EXPECT_TRUE(
        is_consistent(report, index, order.future_frontier_cut(e)))
        << "future cut of " << e;
  }
}

TEST(CausalOrderTest, InconsistentCutDetected) {
  const auto trace = chain_trace();
  // Include rank 1's receive but exclude rank 0's send.
  analysis::Session session(trace);
  const auto& report = session.match_report();
  const auto& index = session.rank_index();
  Cut cut;
  cut.prefix_len = {1, 1, 0};  // rank 0: only marker 1; rank 1: the recv
  EXPECT_FALSE(is_consistent(report, index, cut));
  auto fixed = cut;
  const auto dropped = restrict_to_consistent(report, index, fixed);
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(is_consistent(report, index, fixed));
}

TEST(CausalOrderTest, CyclicMessageDependencyThrows) {
  analysis::Session session(cyclic_trace());
  ASSERT_EQ(session.match_report().matches.size(), 2u);
  // Every pass over the message DAG refuses the trace, and keeps
  // refusing it: a failed build leaves nothing cached.
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)session.causal_order(), tdbg::Error);
    EXPECT_THROW((void)session.critical_path(), tdbg::Error);
    EXPECT_THROW((void)session.races(), tdbg::Error);
  }
}

// --- Property-style sweeps over real application traces -----------------

class FrontierPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FrontierPropertyTest, LuFrontiersAreSoundAndTight) {
  apps::lu::Options opts;
  opts.px = 4;
  opts.py = 2;
  opts.nx = 4;
  opts.ny = 4;
  opts.iterations = 2;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::lu::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();

  // Probe a pseudo-random selection of events determined by the param.
  const auto step = std::max<std::size_t>(1, rec.trace.size() / 13);
  for (std::size_t e = static_cast<std::size_t>(GetParam()); e < rec.trace.size();
       e += step) {
    const auto past = order.past_frontier(e);
    const auto future = order.future_frontier(e);
    for (mpi::Rank r = 0; r < 8; ++r) {
      const auto& seq = session.rank_index().seq[static_cast<std::size_t>(r)];
      const auto& pf = past[static_cast<std::size_t>(r)];
      const auto& ff = future[static_cast<std::size_t>(r)];
      // Soundness: frontier events are ordered with e.
      if (pf) {
        EXPECT_TRUE(order.happens_before(*pf, e) || *pf == e);
      }
      if (ff) {
        EXPECT_TRUE(order.happens_before(e, *ff));
      }
      // Tightness: the event after the past frontier is NOT in the
      // past; the event before the future frontier is NOT in the
      // future.
      if (pf && *pf != e) {
        const auto pos = order.position(*pf);
        if (pos + 1 < seq.size() && seq[pos + 1] != e) {
          EXPECT_FALSE(order.happens_before(seq[pos + 1], e));
        }
      }
      if (ff) {
        const auto pos = order.position(*ff);
        if (pos > 0 && seq[pos - 1] != e) {
          EXPECT_FALSE(order.happens_before(e, seq[pos - 1]));
        }
      }
    }
    // Frontier cuts of real traces are consistent.
    EXPECT_TRUE(is_consistent(session.match_report(),
                              session.rank_index(),
                              order.past_frontier_cut(e)));
    EXPECT_TRUE(is_consistent(session.match_report(),
                              session.rank_index(),
                              order.future_frontier_cut(e)));
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, FrontierPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7));

TEST(CausalOrderTest, StrassenEveryVerticalCutConsistentAfterRestriction) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.match_report();
  const auto& index = session.rank_index();
  const auto& columns = session.event_columns();
  for (int i = 0; i <= 50; ++i) {
    const auto t =
        rec.trace.t_min() + (rec.trace.t_max() - rec.trace.t_min()) * i / 50;
    auto cut = cut_at_time(index, columns, t);
    restrict_to_consistent(report, index, cut);
    EXPECT_TRUE(is_consistent(report, index, cut)) << "i=" << i;
  }
}

}  // namespace
}  // namespace tdbg::causality
