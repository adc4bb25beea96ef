#include <gtest/gtest.h>

#include <mutex>

#include "analysis/session.hpp"
#include "apps/ring.hpp"
#include "apps/strassen.hpp"
#include "apps/taskfarm.hpp"
#include "busy_threads.hpp"
#include "replay/checkpoint.hpp"
#include "replay/record.hpp"
#include "replay/replay.hpp"
#include "replay/stopline.hpp"

namespace tdbg::replay {
namespace {

/// A 3-rank program where rank 0 receives with ANY_SOURCE and the
/// winner is genuinely racy: both workers send immediately.
void racy_body(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    for (int i = 0; i < 8; ++i) {
      std::vector<std::byte> buf;
      comm.recv(buf, mpi::kAnySource, 1);
    }
  } else {
    for (int i = 0; i < 4; ++i) {
      comm.send_value<int>(i, 0, 1);
    }
  }
}

TEST(Record, CapturesTraceAndLog) {
  const auto rec = record(3, racy_body);
  ASSERT_TRUE(rec.result.completed);
  EXPECT_EQ(rec.log.per_rank.size(), 3u);
  EXPECT_EQ(rec.log.per_rank[0].size(), 8u);  // 8 wildcard receives
  EXPECT_TRUE(rec.log.per_rank[1].empty());
  EXPECT_GT(rec.trace.size(), 0u);

  // Trace message matching must pair every send with a receive.
  analysis::Session session(rec.trace);
  const auto& report = session.match_report();
  EXPECT_EQ(report.matches.size(), 8u);
  EXPECT_TRUE(report.unmatched_sends.empty());
  EXPECT_TRUE(report.unmatched_recvs.empty());
}

TEST(Replay, ReproducesWildcardMatchOrder) {
  const auto rec = record(3, racy_body);
  ASSERT_TRUE(rec.result.completed);

  // Replaying with the log forced must reproduce the exact match
  // sequence, every time.
  for (int trial = 0; trial < 5; ++trial) {
    const auto replayed = [&] {
      MatchRecorder second(3);
      ReplayController controller(rec.log);
      mpi::RunOptions options;
      options.hooks = &second;
      options.controller = &controller;
      const auto result = mpi::run(3, racy_body, options);
      EXPECT_TRUE(result.completed) << result.abort_detail;
      return second.take_log();
    }();
    EXPECT_EQ(replayed, rec.log) << "trial " << trial;
  }
}

TEST(Replay, TaskFarmReplayIsExact) {
  apps::taskfarm::Options opts;
  opts.num_tasks = 30;
  const auto body = [&](mpi::Comm& comm) { apps::taskfarm::rank_body(comm, opts); };
  const auto rec = record(5, body);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;

  MatchRecorder second(5);
  ReplayController controller(rec.log);
  mpi::RunOptions options;
  options.hooks = &second;
  options.controller = &controller;
  const auto result = mpi::run(5, body, options);
  ASSERT_TRUE(result.completed) << result.abort_detail;
  EXPECT_EQ(second.log(), rec.log);
}

TEST(Replay, StoplineParksEveryRankAtItsMarker) {
  apps::strassen::Options opts;
  opts.n = 32;
  opts.cutoff = 8;
  const auto body = [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); };
  const auto rec = record(8, body);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;

  // Vertical stopline through the middle of the trace.
  const auto t_mid = (rec.trace.t_min() + rec.trace.t_max()) / 2;
  analysis::Session analysis(rec.trace);
  const auto line =
      stopline_at_time(rec.trace, analysis.match_report(),
                       analysis.rank_index(), analysis.event_columns(), t_mid);

  ReplaySession session(8, body, rec.log);
  const auto stops = session.run_to(line);
  for (const auto& stop : stops) {
    const auto& expected =
        line.thresholds[static_cast<std::size_t>(stop.rank)];
    ASSERT_TRUE(expected.has_value()) << "rank " << stop.rank;
    EXPECT_EQ(stop.marker, *expected) << "rank " << stop.rank;
  }
  const auto result = session.finish();
  EXPECT_TRUE(result.completed) << result.abort_detail;
}

TEST(Replay, StepAdvancesOneMarker) {
  const auto body = [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 5; ++i) comm.send_value<int>(i, 1, 1);
    } else {
      for (int i = 0; i < 5; ++i) comm.recv_value<int>(0, 1);
    }
  };
  const auto rec = record(2, body);
  ASSERT_TRUE(rec.result.completed);

  ReplaySession session(2, body, rec.log);
  Stopline line;
  line.thresholds = {std::uint64_t{2}, std::nullopt};
  const auto stops = session.run_to(line);
  ASSERT_EQ(stops.size(), 1u);
  EXPECT_EQ(stops[0].rank, 0);
  EXPECT_EQ(stops[0].marker, 2u);

  const auto next = session.step(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->marker, 3u);
  const auto result = session.finish();
  EXPECT_TRUE(result.completed);
}

TEST(Replay, DivergentReplayIsDetected) {
  // Record one program, replay a DIFFERENT one that receives from the
  // wrong source: the forced match must trip a divergence error, not
  // silently proceed.
  const auto recorded_body = [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.recv_value<int>(1, 1);
    } else if (comm.rank() == 1) {
      comm.send_value<int>(7, 0, 1);
    } else {
      comm.send_value<int>(8, 0, 2);  // tag 2: never received
    }
  };
  const auto rec = record(3, recorded_body);
  ASSERT_TRUE(rec.result.completed);

  const auto divergent_body = [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.recv_value<int>(2, 2);  // recorded source was 1
    } else if (comm.rank() == 1) {
      comm.send_value<int>(7, 0, 1);
    } else {
      comm.send_value<int>(8, 0, 2);
    }
  };
  ReplayController controller(rec.log);
  mpi::RunOptions options;
  options.controller = &controller;
  const auto result = mpi::run(3, divergent_body, options);
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].what.find("divergence"), std::string::npos);
}

// Exact quiescence under load: busy threads keep woken ranks off the
// CPUs, which must delay a run or a replay stop but never change it.

TEST(Quiescence, LoadedTaskFarmIsNeverDeadlocked) {
  apps::taskfarm::Options opts;
  opts.num_tasks = 2000;
  const auto body = [&](mpi::Comm& comm) {
    apps::taskfarm::rank_body(comm, opts);
  };
  testing::BusyThreads busy(8);
  for (int i = 0; i < 60; ++i) {
    const auto result = mpi::run(16, body);
    ASSERT_TRUE(result.completed) << "run " << i << ": " << result.abort_detail;
  }
}

TEST(Quiescence, LoadedRingReplayStopsAreComplete) {
  apps::ring::Options opts;
  opts.laps = 20;
  const auto body = [&](mpi::Comm& comm) { apps::ring::rank_body(comm, opts); };
  const auto rec = record(4, body);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  Stopline line;
  line.thresholds.assign(4, std::uint64_t{6});

  testing::BusyThreads busy(8);
  for (int i = 0; i < 50; ++i) {
    ReplaySession session(4, body, rec.log);
    const auto stops = session.run_to(line);
    ASSERT_EQ(stops.size(), 4u) << "replay " << i;
    for (const auto& stop : stops) EXPECT_EQ(stop.marker, 6u);
    const auto next = session.step(0);
    ASSERT_TRUE(next.has_value()) << "replay " << i;
    EXPECT_EQ(next->marker, 7u);
    const auto result = session.finish();
    ASSERT_TRUE(result.completed) << "replay " << i << ": "
                                  << result.abort_detail;
  }
}

TEST(Quiescence, SteppingOverSsendsStopsEveryTime) {
  // Each step resumes rank 0 into an ssend that the free-running rank 1
  // matches; rank 0 then stops at its next event.  The matching
  // receiver must not end that stop, or the step would wait forever.
  constexpr int kMsgs = 20;
  const auto body = [](mpi::Comm& comm) {
    for (int i = 0; i < kMsgs; ++i) {
      if (comm.rank() == 0) {
        comm.ssend(std::as_bytes(std::span<const int>(&i, 1)), 1, 0);
      } else {
        EXPECT_EQ(comm.recv_value<int>(0, 0), i);
      }
    }
  };
  const auto rec = record(2, body);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  Stopline line;
  line.thresholds = {std::uint64_t{1}, std::nullopt};

  testing::BusyThreads busy(8);
  for (int i = 0; i < 20; ++i) {
    ReplaySession session(2, body, rec.log);
    ASSERT_EQ(session.run_to(line).size(), 1u) << "replay " << i;
    std::uint64_t marker = 1;
    while (const auto stop = session.step(0)) {
      EXPECT_EQ(stop->marker, ++marker) << "replay " << i;
    }
    EXPECT_GE(marker, std::uint64_t{kMsgs}) << "replay " << i;
    const auto result = session.finish();
    ASSERT_TRUE(result.completed) << "replay " << i << ": "
                                  << result.abort_detail;
  }
}

TEST(Stopline, VerticalCutsAreConsistent) {
  apps::strassen::Options opts;
  opts.n = 32;
  opts.cutoff = 8;
  const auto rec = record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);

  // Sweep candidate times across the whole trace; every vertical cut
  // must come out consistent.
  const auto t0 = rec.trace.t_min();
  const auto t1 = rec.trace.t_max();
  analysis::Session analysis(rec.trace);
  const auto& report = analysis.match_report();
  const auto& index = analysis.rank_index();
  const auto& columns = analysis.event_columns();
  for (int i = 0; i <= 20; ++i) {
    const auto t = t0 + (t1 - t0) * i / 20;
    auto cut = causality::cut_at_time(index, columns, t);
    causality::restrict_to_consistent(report, index, cut);
    EXPECT_TRUE(causality::is_consistent(report, index, cut))
        << "i=" << i;
  }
}

TEST(Checkpoint, KeepsLogarithmicBacklog) {
  CheckpointStore store(1, /*interval=*/8);
  for (std::uint64_t m = 0; m <= 4096; m += 8) {
    store.offer(0, m, std::vector<std::byte>(4));
  }
  // 513 offers; a logarithmic backlog must be dramatically smaller.
  EXPECT_LE(store.count(0), 16u);
  EXPECT_GE(store.count(0), 4u);

  // The newest checkpoint at-or-before a target must exist and the
  // replay distance must shrink as targets get more recent.
  const auto near_end = store.best_before(0, 4090);
  ASSERT_TRUE(near_end.has_value());
  EXPECT_LE(4090 - near_end->marker, 64u);

  const auto mid = store.best_before(0, 2000);
  ASSERT_TRUE(mid.has_value());
  EXPECT_LE(2000 - mid->marker, 2048u);
}

TEST(Checkpoint, BestBeforeRespectsTarget) {
  CheckpointStore store(2, 1);
  store.offer(1, 10, {});
  store.offer(1, 20, {});
  store.offer(1, 30, {});
  EXPECT_FALSE(store.best_before(1, 5).has_value());
  auto c = store.best_before(1, 25);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->marker, 20u);
  c = store.best_before(1, 30);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->marker, 30u);
}

TEST(Checkpoint, OffersBelowIntervalAreIgnored) {
  CheckpointStore store(1, 100);
  EXPECT_TRUE(store.offer(0, 0, {}));
  EXPECT_FALSE(store.offer(0, 50, {}));
  EXPECT_TRUE(store.offer(0, 100, {}));
  EXPECT_EQ(store.count(0), 2u);
}

}  // namespace
}  // namespace tdbg::replay
