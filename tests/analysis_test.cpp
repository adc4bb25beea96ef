#include <gtest/gtest.h>

#include "analysis/deadlock.hpp"
#include "analysis/races.hpp"
#include "analysis/session.hpp"
#include "analysis/supervision.hpp"
#include "analysis/traffic.hpp"
#include "apps/strassen.hpp"
#include "apps/taskfarm.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"

namespace tdbg::analysis {
namespace {

mpi::WaitInfo wait(mpi::Rank rank, mpi::WaitKind kind,
                   mpi::Rank peer = mpi::kAnySource,
                   mpi::Tag tag = mpi::kAnyTag) {
  return mpi::WaitInfo{rank, kind, peer, tag};
}

TEST(DeadlockTest, TwoRankCycle) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kRecv, 0),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  ASSERT_EQ(report.cycle.size(), 2u);
  EXPECT_NE(report.description.find("circular wait"), std::string::npos);
}

TEST(DeadlockTest, ThreeRankRing) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 2),
      wait(1, mpi::WaitKind::kRecv, 0),
      wait(2, mpi::WaitKind::kRecv, 1),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_EQ(report.cycle.size(), 3u);
}

TEST(DeadlockTest, StarvationOnFinishedRank) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kFinished),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_TRUE(report.cycle.empty());
  ASSERT_EQ(report.starved.size(), 1u);
  EXPECT_EQ(report.starved[0], 0);
}

TEST(DeadlockTest, NoDeadlockWhenSomeoneRuns) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kRecv, 1),
      wait(1, mpi::WaitKind::kNone),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_FALSE(report.deadlocked);
}

TEST(DeadlockTest, SsendCycleDetected) {
  const std::vector<mpi::WaitInfo> waits = {
      wait(0, mpi::WaitKind::kSsend, 1),
      wait(1, mpi::WaitKind::kSsend, 0),
  };
  const auto report = explain_deadlock(waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_EQ(report.cycle.size(), 2u);
}

TEST(DeadlockTest, BuggyStrassenExplained) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto result = mpi::run(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(result.deadlocked);
  const auto report = explain_deadlock(result.final_waits);
  EXPECT_TRUE(report.deadlocked);
  // The 0 <-> 7 circular wait of Figure 5.
  ASSERT_EQ(report.cycle.size(), 2u);
  const bool zero_seven =
      (report.cycle[0] == 0 && report.cycle[1] == 7) ||
      (report.cycle[0] == 7 && report.cycle[1] == 0);
  EXPECT_TRUE(zero_seven) << report.description;
}

TEST(DeadlockTest, RecvFromFinishedRankStarves) {
  // A real run: rank 1 returns at once, and rank 0 waits for a message
  // it never sends.  The runtime must call it a deadlock (not hang),
  // and the explanation must name rank 0 as starved.
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) comm.recv_value<int>(1, 0);
  });
  ASSERT_TRUE(result.deadlocked);
  ASSERT_EQ(result.final_waits.size(), 2u);
  EXPECT_EQ(result.final_waits[0].kind, mpi::WaitKind::kRecv);
  EXPECT_EQ(result.final_waits[1].kind, mpi::WaitKind::kFinished);
  const auto report = explain_deadlock(result.final_waits);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_EQ(report.starved, std::vector<mpi::Rank>{0});
}

TEST(SupervisionTest, TracksOutstandingSendsLive) {
  LiveSupervisor supervisor(2);
  mpi::RunOptions options;
  options.hooks = &supervisor;
  const auto result = mpi::run(2, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 1);  // will be received
      comm.send_value<int>(2, 1, 9);  // never received
      // While rank 1 sleeps, both sends are outstanding.
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      EXPECT_GE(supervisor.outstanding().size(), 1u);
      comm.recv_value<int>(0, 1);
    }
  }, options);
  ASSERT_TRUE(result.completed);
  const auto leftovers = supervisor.outstanding();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0].tag, 9);
  EXPECT_EQ(supervisor.total_sends(), 2u);
  EXPECT_EQ(supervisor.total_recvs(), 1u);
  EXPECT_EQ(supervisor.orphan_recvs(), 0u);
}

TEST(RaceTest, DeterministicProgramHasNoRaces) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  EXPECT_FALSE(report.racy());
}

TEST(RaceTest, ConcurrentSendersToWildcardAreRacy) {
  // Two senders race to one ANY_SOURCE receive.
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.recv_value<int>(mpi::kAnySource, 1);
      comm.recv_value<int>(mpi::kAnySource, 1);
    } else {
      comm.send_value<int>(comm.rank(), 0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  ASSERT_TRUE(report.racy());
  // Both receives race (each had the other sender as a candidate).
  EXPECT_GE(report.races.size(), 1u);
  for (const auto& race : report.races) {
    EXPECT_FALSE(race.candidates.empty());
  }
}

TEST(RaceTest, CausallyOrderedWildcardIsNotRacy) {
  // The second send only happens after the first is received and
  // acknowledged: no race despite ANY_SOURCE.
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      mpi::Status st;
      comm.recv_value<int>(mpi::kAnySource, 1, &st);
      comm.send_value<int>(0, 2, 2);  // ack triggers rank 2's send
      comm.recv_value<int>(mpi::kAnySource, 1);
    } else if (comm.rank() == 1) {
      comm.send_value<int>(1, 0, 1);
    } else {
      comm.recv_value<int>(0, 2);  // wait for ack
      comm.send_value<int>(2, 0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.races();
  EXPECT_FALSE(report.racy());
}

TEST(RaceTest, TaskFarmIsRacyWithManyWorkers) {
  apps::taskfarm::Options opts;
  opts.num_tasks = 12;
  const auto rec = replay::record(
      4, [&](mpi::Comm& comm) { apps::taskfarm::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  EXPECT_TRUE(session.races().racy());
}

TEST(TrafficTest, CountsChannelsAndBytes) {
  const auto rec = replay::record(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1.0, 1, 1);
      comm.send_value<double>(2.0, 2, 1);
      comm.send_value<double>(3.0, 2, 1);
    } else {
      const int n = comm.rank() == 1 ? 1 : 2;
      for (int i = 0; i < n; ++i) comm.recv_value<double>(0, 1);
    }
  });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();
  ASSERT_EQ(report.channels.size(), 2u);
  EXPECT_EQ(report.ranks[0].sends, 3u);
  EXPECT_EQ(report.ranks[0].bytes_out, 3 * sizeof(double));
  EXPECT_EQ(report.ranks[2].recvs, 2u);
  for (const auto& ch : report.channels) {
    EXPECT_GT(ch.mean_latency, 0.0);
    EXPECT_LE(ch.min_latency, ch.max_latency);
  }
}

TEST(TrafficTest, BuggyStrassenIrregularities) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.deadlocked);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();

  bool missed = false;
  bool outlier7 = false;
  for (const auto& irr : report.irregularities) {
    if (irr.kind == Irregularity::Kind::kUnmatchedSend) missed = true;
    if (irr.kind == Irregularity::Kind::kRecvCountOutlier && irr.rank == 7) {
      outlier7 = true;
    }
  }
  // Fig. 6's two observations: the missed message, and rank 7
  // receiving fewer messages than its peers.
  EXPECT_TRUE(missed);
  EXPECT_TRUE(outlier7);
  EXPECT_NE(report.to_string().find("missed message"), std::string::npos);
}

TEST(TrafficTest, CleanRunHasNoIrregularities) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& report = session.traffic();
  EXPECT_TRUE(report.irregularities.empty())
      << report.to_string();
}

}  // namespace
}  // namespace tdbg::analysis
