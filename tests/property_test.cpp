// Property-style sweeps over the core invariants, parameterized with
// TEST_P across workloads, rank counts, and seeds.

#include <gtest/gtest.h>

#include "analysis/races.hpp"
#include "analysis/session.hpp"
#include "apps/lu.hpp"
#include "apps/strassen.hpp"
#include "apps/taskfarm.hpp"
#include "causality/causal_order.hpp"
#include "replay/record.hpp"
#include "replay/replay.hpp"
#include "trace/trace_io.hpp"

namespace tdbg {
namespace {

// --- Replay determinism across workload scales --------------------------

struct FarmParam {
  int ranks;
  int tasks;
  std::uint64_t seed;
};

class ReplayDeterminism : public ::testing::TestWithParam<FarmParam> {};

TEST_P(ReplayDeterminism, TaskFarmMatchLogIsReproducedExactly) {
  const auto p = GetParam();
  apps::taskfarm::Options opts;
  opts.num_tasks = p.tasks;
  opts.seed = p.seed;
  const auto body = [opts](mpi::Comm& comm) {
    apps::taskfarm::rank_body(comm, opts);
  };
  const auto rec = replay::record(p.ranks, body);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;

  replay::MatchRecorder second(p.ranks);
  replay::ReplayController controller(rec.log);
  mpi::RunOptions options;
  options.hooks = &second;
  options.controller = &controller;
  ASSERT_TRUE(mpi::run(p.ranks, body, options).completed);
  EXPECT_EQ(second.log(), rec.log);
}

INSTANTIATE_TEST_SUITE_P(
    Farms, ReplayDeterminism,
    ::testing::Values(FarmParam{2, 10, 1}, FarmParam{3, 25, 2},
                      FarmParam{4, 40, 3}, FarmParam{6, 15, 4},
                      FarmParam{8, 50, 5}, FarmParam{5, 33, 6}));

// --- Stopline parking across positions ----------------------------------

class StoplineSweep : public ::testing::TestWithParam<int> {};

TEST_P(StoplineSweep, EveryVerticalStoplineParksAtItsThresholds) {
  apps::strassen::Options opts;
  opts.n = 32;
  opts.cutoff = 8;
  const auto body = [opts](mpi::Comm& comm) {
    apps::strassen::rank_body(comm, opts);
  };
  const auto rec = replay::record(4, body);
  ASSERT_TRUE(rec.result.completed);

  const auto pct = GetParam();
  const auto t = rec.trace.t_min() +
                 (rec.trace.t_max() - rec.trace.t_min()) * pct / 100;
  analysis::Session analysis(rec.trace);
  const auto line = replay::stopline_at_time(
      rec.trace, analysis.match_report(), analysis.rank_index(),
      analysis.event_columns(), t);

  replay::ReplaySession session(4, body, rec.log);
  const auto stops = session.run_to(line);
  for (const auto& stop : stops) {
    const auto& expect = line.thresholds[static_cast<std::size_t>(stop.rank)];
    ASSERT_TRUE(expect.has_value());
    EXPECT_EQ(stop.marker, *expect) << "rank " << stop.rank << " pct " << pct;
  }
  EXPECT_TRUE(session.finish().completed);
}

INSTANTIATE_TEST_SUITE_P(Positions, StoplineSweep,
                         ::testing::Values(5, 20, 35, 50, 65, 80, 95));

// --- Causality invariants on every workload ------------------------------

enum class Workload { kStrassen, kLu, kLuNonblocking, kFarm };

class CausalityInvariants : public ::testing::TestWithParam<Workload> {
 protected:
  replay::RecordedRun record_workload() {
    switch (GetParam()) {
      case Workload::kStrassen: {
        apps::strassen::Options opts;
        opts.n = 16;
        opts.cutoff = 8;
        return replay::record(4, [opts](mpi::Comm& comm) {
          apps::strassen::rank_body(comm, opts);
        });
      }
      case Workload::kLu:
      case Workload::kLuNonblocking: {
        apps::lu::Options opts;
        opts.px = 2;
        opts.py = 2;
        opts.nx = 4;
        opts.ny = 4;
        opts.iterations = 2;
        opts.nonblocking = GetParam() == Workload::kLuNonblocking;
        return replay::record(4, [opts](mpi::Comm& comm) {
          apps::lu::rank_body(comm, opts);
        });
      }
      case Workload::kFarm: {
        apps::taskfarm::Options opts;
        opts.num_tasks = 12;
        return replay::record(4, [opts](mpi::Comm& comm) {
          apps::taskfarm::rank_body(comm, opts);
        });
      }
    }
    return {};
  }
};

TEST_P(CausalityInvariants, HappensBeforeIsAStrictPartialOrder) {
  const auto rec = record_workload();
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();
  const auto n = rec.trace.size();
  // Subsample pairs for the O(n^2)/O(n^3) checks.
  const std::size_t stride = std::max<std::size_t>(1, n / 40);
  for (std::size_t a = 0; a < n; a += stride) {
    EXPECT_FALSE(order.happens_before(a, a));
    for (std::size_t b = 0; b < n; b += stride) {
      // Antisymmetry.
      if (order.happens_before(a, b)) {
        EXPECT_FALSE(order.happens_before(b, a));
      }
      // Transitivity through a third point.
      for (std::size_t c = 0; c < n; c += stride * 3) {
        if (order.happens_before(a, b) && order.happens_before(b, c)) {
          EXPECT_TRUE(order.happens_before(a, c));
        }
      }
    }
  }
}

TEST_P(CausalityInvariants, MessagesInduceHappensBefore) {
  const auto rec = record_workload();
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();
  const auto& report = session.match_report();
  for (const auto& m : report.matches) {
    EXPECT_TRUE(order.happens_before(m.send_index, m.recv_index));
  }
  EXPECT_TRUE(report.unmatched_sends.empty());
  EXPECT_TRUE(report.unmatched_recvs.empty());
}

TEST_P(CausalityInvariants, ProgramOrderIsRespected) {
  const auto rec = record_workload();
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  const auto& order = session.causal_order();
  for (mpi::Rank r = 0; r < rec.trace.num_ranks(); ++r) {
    const auto& seq = session.rank_index().seq[static_cast<std::size_t>(r)];
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_TRUE(order.happens_before(seq[i - 1], seq[i]));
    }
  }
}

TEST_P(CausalityInvariants, TraceRoundTripsThroughBothFormats) {
  const auto rec = record_workload();
  ASSERT_TRUE(rec.result.completed);
  for (const auto format :
       {trace::TraceFormat::kBinary, trace::TraceFormat::kBinaryV3,
        trace::TraceFormat::kText}) {
    const auto path =
        std::filesystem::temp_directory_path() /
        ("prop_roundtrip_" +
         std::to_string(static_cast<int>(GetParam())) +
         std::to_string(static_cast<int>(format)) + ".trc");
    trace::write_trace(path, rec.trace, format);
    const auto loaded = trace::read_trace(path);
    ASSERT_EQ(loaded.size(), rec.trace.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const auto& a = rec.trace.event(i);
      const auto& b = loaded.event(i);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.rank, b.rank);
      EXPECT_EQ(a.marker, b.marker);
      EXPECT_EQ(a.peer, b.peer);
      EXPECT_EQ(a.tag, b.tag);
      EXPECT_EQ(a.channel_seq, b.channel_seq);
      EXPECT_EQ(a.wildcard, b.wildcard);
    }
    // Matching is format-independent.
    analysis::Session loaded_session(loaded);
    analysis::Session original_session(rec.trace);
    EXPECT_EQ(loaded_session.match_report().matches.size(),
              original_session.match_report().matches.size());
    std::filesystem::remove(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CausalityInvariants,
                         ::testing::Values(Workload::kStrassen, Workload::kLu,
                                           Workload::kLuNonblocking,
                                           Workload::kFarm));

// --- Nonblocking LU equivalence ------------------------------------------

TEST(LuNonblocking, SameChecksumAsBlocking) {
  apps::lu::Options opts;
  opts.px = 4;
  opts.py = 2;
  opts.nx = 6;
  opts.ny = 6;
  opts.iterations = 2;
  double blocking = 0.0, nonblocking = 0.0;
  {
    auto o = opts;
    const auto result = mpi::run(8, [&, o](mpi::Comm& comm) {
      const double v = apps::lu::rank_body(comm, o);
      if (comm.rank() == 0) blocking = v;
    });
    ASSERT_TRUE(result.completed);
  }
  {
    auto o = opts;
    o.nonblocking = true;
    const auto result = mpi::run(8, [&, o](mpi::Comm& comm) {
      const double v = apps::lu::rank_body(comm, o);
      if (comm.rank() == 0) nonblocking = v;
    });
    ASSERT_TRUE(result.completed);
  }
  EXPECT_EQ(blocking, nonblocking);
}

}  // namespace
}  // namespace tdbg
