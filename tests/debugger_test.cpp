#include <gtest/gtest.h>

#include "apps/ring.hpp"
#include "apps/strassen.hpp"
#include "debugger/debugger.hpp"
#include "instrument/api.hpp"

namespace tdbg::dbg {
namespace {

apps::strassen::Options strassen_opts(bool buggy) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = buggy;
  return opts;
}

mpi::RankBody strassen_body(bool buggy) {
  return [opts = strassen_opts(buggy)](mpi::Comm& comm) {
    apps::strassen::rank_body(comm, opts);
  };
}

TEST(DebuggerTest, RecordsAndExposesHistory) {
  Debugger dbg(8, strassen_body(false));
  const auto& result = dbg.record();
  ASSERT_TRUE(result.completed) << result.abort_detail;
  EXPECT_GT(dbg.trace().size(), 0u);
  EXPECT_FALSE(dbg.deadlock_report().deadlocked);
  EXPECT_TRUE(dbg.traffic().irregularities.empty());
  EXPECT_FALSE(dbg.races().racy());

  // The communication picture of Fig. 3: 7 x 2 operand sends + 7
  // results = 21 matched messages.
  const auto cg = dbg.comm_graph();
  EXPECT_EQ(cg.nodes().size(), 21u);
  EXPECT_TRUE(cg.unmatched_sends().empty());
}

TEST(DebuggerTest, BuggyRunDiagnosis) {
  Debugger dbg(8, strassen_body(true));
  const auto& result = dbg.record();
  ASSERT_TRUE(result.deadlocked);

  const auto deadlock = dbg.deadlock_report();
  EXPECT_TRUE(deadlock.deadlocked);
  ASSERT_EQ(deadlock.cycle.size(), 2u);

  const auto traffic = dbg.traffic();
  EXPECT_FALSE(traffic.irregularities.empty());
}

TEST(DebuggerTest, ReplayToVerticalStoplineAndInspect) {
  Debugger dbg(8, strassen_body(false));
  ASSERT_TRUE(dbg.record().completed);

  const auto t_mid = (dbg.trace().t_min() + dbg.trace().t_max()) / 2;
  const auto line = dbg.stopline_at(t_mid);
  const auto stops = dbg.replay_to(line);
  EXPECT_FALSE(stops.empty());
  for (const auto& stop : stops) {
    const auto& expect = line.thresholds[static_cast<std::size_t>(stop.rank)];
    ASSERT_TRUE(expect.has_value());
    EXPECT_EQ(stop.marker, *expect);
  }
  const auto result = dbg.end_replay();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
}

TEST(DebuggerTest, Figure7WorkflowFindsWrongSendDestination) {
  // The paper's §4.1 walkthrough: the buggy Strassen deadlocks; the
  // user sets a stopline before the distribution loop, replays, and
  // steps rank 0 through the MatrSend calls until the incorrect
  // destination shows up.
  Debugger dbg(8, strassen_body(true));
  ASSERT_TRUE(dbg.record().deadlocked);

  // Find rank 0's first MatrSend activation and stop right at it
  // ("set a stopline somewhere before the first send in the group").
  const auto& trace = dbg.trace();
  std::optional<std::size_t> first_send;
  for (std::size_t i : dbg.session().rank_index().seq[0]) {
    const auto& e = trace.event(i);
    if (e.kind == trace::EventKind::kEnter &&
        trace.constructs().info(e.construct).name == "MatrSend") {
      first_send = i;
      break;
    }
  }
  ASSERT_TRUE(first_send.has_value());

  replay::Stopline line;
  line.thresholds.assign(8, std::nullopt);
  line.thresholds[0] = trace.event(*first_send).marker;
  const auto stops = dbg.replay_to(line);
  ASSERT_EQ(stops.size(), 1u);
  EXPECT_EQ(stops[0].rank, 0);

  // Step rank 0 through the distribution loop, watching the
  // UserMonitor records of MatrSend (TDBG_FUNCTION_ARGS logs the
  // destination as arg1).  With the bug, the tag-B operand of product
  // jres goes to rank jres instead of jres+1.
  std::vector<std::uint64_t> observed_dests;
  const auto observe = [&](const replay::StopInfo& stop) {
    if (stop.kind != trace::EventKind::kEnter) return;
    if (trace.constructs().info(stop.construct).name != "MatrSend") return;
    const auto* session = dbg.replay_session();
    ASSERT_NE(session, nullptr);
    observed_dests.push_back(session->last_record(0).arg1);
  };
  observe(stops[0]);  // the stopline stop is itself the first MatrSend
  for (int guard = 0; guard < 600 && observed_dests.size() < 14; ++guard) {
    const auto stop = dbg.step(0);
    if (!stop.has_value()) break;
    observe(*stop);
  }
  ASSERT_GE(observed_dests.size(), 4u);
  // Sends alternate operand A (correct dest jres+1) and operand B
  // (buggy dest jres): 1,0, 2,1, 3,2, ...
  EXPECT_EQ(observed_dests[0], 1u);
  EXPECT_EQ(observed_dests[1], 0u);  // the bug: should be 1
  EXPECT_EQ(observed_dests[2], 2u);
  EXPECT_EQ(observed_dests[3], 1u);  // should be 2

  const auto result = dbg.end_replay();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->deadlocked);  // replaying the bug deadlocks again
}

TEST(DebuggerTest, UndoReturnsToPreviousStop) {
  Debugger dbg(2, [](mpi::Comm& comm) {
    apps::ring::Options opts;
    opts.laps = 10;
    apps::ring::rank_body(comm, opts);
  });
  ASSERT_TRUE(dbg.record().completed);

  replay::Stopline first;
  first.thresholds = {std::uint64_t{3}, std::uint64_t{3}};
  auto stops = dbg.replay_to(first);
  ASSERT_EQ(stops.size(), 2u);

  replay::Stopline second;
  second.thresholds = {std::uint64_t{8}, std::uint64_t{8}};
  stops = dbg.replay_to(second);  // resumption: records markers for undo
  ASSERT_EQ(stops.size(), 2u);
  EXPECT_EQ(stops[0].marker, 8u);
  ASSERT_EQ(dbg.undo_depth(), 1u);

  // Undo: back to the state before the second resumption.
  const auto undone = dbg.undo();
  ASSERT_TRUE(undone.has_value());
  ASSERT_EQ(undone->size(), 2u);
  for (const auto& stop : *undone) {
    EXPECT_EQ(stop.marker, 3u) << "rank " << stop.rank;
  }
  EXPECT_EQ(dbg.undo_depth(), 0u);
  EXPECT_FALSE(dbg.undo().has_value());

  const auto result = dbg.end_replay();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
}

TEST(DebuggerTest, UndoAfterStepsRestoresMarker) {
  Debugger dbg(2, [](mpi::Comm& comm) {
    apps::ring::Options opts;
    opts.laps = 10;
    apps::ring::rank_body(comm, opts);
  });
  ASSERT_TRUE(dbg.record().completed);

  replay::Stopline line;
  line.thresholds = {std::uint64_t{5}, std::nullopt};
  auto stops = dbg.replay_to(line);
  ASSERT_EQ(stops.size(), 1u);
  EXPECT_EQ(stops[0].marker, 5u);

  // Step twice, then undo twice: back at marker 5... undo replays to
  // the recorded marker, which parks right where the rank stood.
  ASSERT_TRUE(dbg.step(0).has_value());   // marker 6
  ASSERT_TRUE(dbg.step(0).has_value());   // marker 7
  auto undone = dbg.undo();               // back to 6
  ASSERT_TRUE(undone.has_value());
  ASSERT_EQ(undone->size(), 1u);
  EXPECT_EQ((*undone)[0].marker, 6u);
  undone = dbg.undo();                    // back to 5
  ASSERT_TRUE(undone.has_value());
  EXPECT_EQ((*undone)[0].marker, 5u);

  dbg.end_replay();
}

TEST(DebuggerTest, StoplinesFromFrontiers) {
  Debugger dbg(8, strassen_body(false));
  ASSERT_TRUE(dbg.record().completed);
  // Pick a mid-trace receive on rank 0.
  const auto& trace = dbg.trace();
  std::optional<std::size_t> target;
  for (std::size_t i : dbg.session().rank_index().seq[0]) {
    if (trace.event(i).kind == trace::EventKind::kRecv) target = i;
  }
  ASSERT_TRUE(target.has_value());
  const auto past = dbg.stopline_past_frontier(*target);
  const auto future = dbg.stopline_future_frontier(*target);
  ASSERT_EQ(past.thresholds.size(), 8u);
  ASSERT_EQ(future.thresholds.size(), 8u);
  // Frontier stoplines are replayable.
  const auto stops = dbg.replay_to(past);
  EXPECT_FALSE(stops.empty());
  const auto result = dbg.end_replay();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
}

TEST(DebuggerTest, LiveLaunchStopsFirstExecution) {
  // p2d2's primary mode: breakpoints on the FIRST run, no prior
  // recording.
  Debugger dbg(2, [](mpi::Comm& comm) {
    apps::ring::Options opts;
    opts.laps = 6;
    apps::ring::rank_body(comm, opts);
  });
  replay::Stopline line;
  line.thresholds = {std::uint64_t{4}, std::uint64_t{4}};
  const auto stops = dbg.launch(line);
  EXPECT_TRUE(dbg.live());
  ASSERT_EQ(stops.size(), 2u);
  EXPECT_EQ(stops[0].marker, 4u);

  // Stepping works on the live run.
  const auto next = dbg.step(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->marker, 5u);

  // Undo on a live run: replay the partially-recorded log back to the
  // pre-step markers.
  const auto undone = dbg.undo();
  ASSERT_TRUE(undone.has_value());
  bool rank0_at_4 = false;
  for (const auto& s : *undone) {
    if (s.rank == 0) rank0_at_4 = s.marker == 4;
  }
  EXPECT_TRUE(rank0_at_4);

  // Ending the live run captures its history...
  const auto result = dbg.end_replay();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->completed);
  EXPECT_FALSE(dbg.live());
  EXPECT_GT(dbg.trace().size(), 0u);

  // ...which is then replayable like any recorded run.
  const auto again = dbg.replay_to(line);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].marker, 4u);
  dbg.end_replay();
}

TEST(DebuggerTest, LiveLaunchCapturesWildcardLogForExactReplay) {
  // A racy target launched live: after the live run ends, the captured
  // match log must drive an exact replay.
  const auto body = [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 6; ++i) {
        comm.recv_value<int>(mpi::kAnySource, 1);
      }
    } else {
      for (int i = 0; i < 3; ++i) comm.send_value<int>(i, 0, 1);
    }
  };
  Debugger dbg(3, body);
  replay::Stopline line;
  line.thresholds.assign(3, std::nullopt);
  line.thresholds[0] = std::uint64_t{2};
  dbg.launch(line);
  const auto result = dbg.end_replay();
  ASSERT_TRUE(result && result->completed);

  // Replay to the end and compare the wildcard match order via the
  // trace: the replayed receives must name the same sources in the
  // same order.
  std::vector<mpi::Rank> recorded_sources;
  for (std::size_t i : dbg.session().rank_index().seq[0]) {
    const auto& e = dbg.trace().event(i);
    if (e.kind == trace::EventKind::kRecv) recorded_sources.push_back(e.peer);
  }
  ASSERT_EQ(recorded_sources.size(), 6u);

  replay::Stopline open;
  open.thresholds.assign(3, std::nullopt);
  dbg.replay_to(open);
  const auto replay_result = dbg.end_replay();
  EXPECT_TRUE(replay_result && replay_result->completed);
}

TEST(DebuggerTest, RecordAfterLaunchRejected) {
  Debugger dbg(2, [](mpi::Comm&) {});
  replay::Stopline line;
  line.thresholds.assign(2, std::nullopt);
  dbg.launch(line);
  EXPECT_THROW(dbg.record(), Error);
  dbg.end_replay();
}

TEST(DebuggerTest, PostMortemSessionAnalyzesWithoutReplay) {
  // Record with one debugger, hand the trace to a post-mortem session
  // (the "trace file arrived from somewhere" workflow).
  Debugger live(8, strassen_body(false));
  ASSERT_TRUE(live.record().completed);

  auto post = Debugger::from_trace(live.trace());
  EXPECT_FALSE(post.can_replay());
  EXPECT_EQ(post.trace().size(), live.trace().size());
  EXPECT_EQ(post.comm_graph().nodes().size(), 21u);
  EXPECT_FALSE(post.races().racy());
  EXPECT_FALSE(post.diagram().to_svg().empty());
  // Frontier stoplines can still be *computed* (they are pure history
  // analysis); only re-execution is unavailable.
  const auto& seq = post.session().rank_index().seq[0];
  const auto line = post.stopline_past_frontier(seq[seq.size() / 2]);
  EXPECT_EQ(line.thresholds.size(), 8u);
  EXPECT_THROW(post.replay_to(line), Error);
}

TEST(DebuggerTest, ActionGraphCompressesDistributionLoop) {
  Debugger dbg(8, strassen_body(false));
  ASSERT_TRUE(dbg.record().completed);
  const auto ag = dbg.action_graph();
  // The action view is strictly coarser than the event stream.
  EXPECT_LT(ag.total_actions(), dbg.trace().size());
  EXPECT_GT(ag.total_actions(), 0u);
}

TEST(DebuggerTest, StepOverSkipsNestedCalls) {
  Debugger dbg(1, [](mpi::Comm&) {
    const auto leaf = [] { TDBG_FUNCTION(); };
    const auto mid = [&] {
      TDBG_FUNCTION();
      leaf();
      leaf();
    };
    TDBG_FUNCTION();
    mid();
    mid();
  });
  ASSERT_TRUE(dbg.record().completed);

  replay::Stopline line;
  line.thresholds = {std::uint64_t{2}};  // stopped entering first mid()
  auto stops = dbg.replay_to(line);
  ASSERT_EQ(stops.size(), 1u);
  const int depth = stops[0].depth;

  // step_over runs the nested leaf() calls without stopping in them.
  const auto next = dbg.step_over(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_LE(next->depth, depth);
  EXPECT_GT(next->marker, stops[0].marker + 1);
  dbg.end_replay();
}

}  // namespace
}  // namespace tdbg::dbg
