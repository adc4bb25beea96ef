// Randomized message storms: seeded pseudo-random communication
// schedules stress the matching, tracing, and replay machinery far
// from the hand-written patterns in the other suites.
//
// Each rank runs a deterministic (seeded) schedule of sends to random
// partners with random tags; receives are posted to consume exactly
// what was sent (the schedule is globally agreed up front, so every
// run completes).  Half the receives use ANY_SOURCE to exercise
// nondeterministic matching.

#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "causality/causal_order.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"
#include "support/rng.hpp"

namespace tdbg {
namespace {

struct Plan {
  // For each sender: list of (dest, tag, payload).
  std::vector<std::vector<std::array<int, 3>>> sends;
  // For each receiver: how many messages it gets in total, and which
  // of its receives are wildcard (by index).
  std::vector<int> recv_count;
};

Plan make_plan(int ranks, int msgs_per_rank, std::uint64_t seed) {
  Plan plan;
  plan.sends.resize(static_cast<std::size_t>(ranks));
  plan.recv_count.assign(static_cast<std::size_t>(ranks), 0);
  // One split RNG stream per sender: schedules stay identical when a
  // rank's message count changes, unlike the old shared-hash scheme.
  const support::SplitMix64 root(seed);
  for (int s = 0; s < ranks; ++s) {
    auto rng = root.split(static_cast<std::uint64_t>(s));
    for (int m = 0; m < msgs_per_rank; ++m) {
      const int dest =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
      const int tag = static_cast<int>(rng.next_below(5));
      const int payload = static_cast<int>(rng.next_below(100000));
      plan.sends[static_cast<std::size_t>(s)].push_back(
          {dest, tag, payload});
      ++plan.recv_count[static_cast<std::size_t>(dest)];
    }
  }
  return plan;
}

/// The storm body: everyone sends its schedule (eager, cannot block),
/// then receives its quota — alternating wildcard and fully-wild
/// receives so matching is heavily nondeterministic.
mpi::RankBody storm_body(const Plan& plan) {
  return [plan](mpi::Comm& comm) {
    const auto& mine = plan.sends[static_cast<std::size_t>(comm.rank())];
    for (const auto& [dest, tag, payload] : mine) {
      comm.send_value<int>(payload, dest, tag, "storm_send");
    }
    const int quota = plan.recv_count[static_cast<std::size_t>(comm.rank())];
    long long sum = 0;
    for (int i = 0; i < quota; ++i) {
      sum += comm.recv_value<int>(mpi::kAnySource, mpi::kAnyTag, nullptr,
                                  "storm_recv");
    }
    // Deterministic grand total regardless of match order.
    long long expected = 0;
    for (int s = 0; s < comm.size(); ++s) {
      for (const auto& [dest, tag, payload] :
           plan.sends[static_cast<std::size_t>(s)]) {
        if (dest == comm.rank()) expected += payload;
      }
    }
    TDBG_CHECK(sum == expected, "storm payload sum mismatch");
  };
}

struct StormParam {
  int ranks;
  int msgs;
  std::uint64_t seed;
};

class StormTest : public ::testing::TestWithParam<StormParam> {};

TEST_P(StormTest, CompletesAndMatchesFully) {
  const auto p = GetParam();
  const auto plan = make_plan(p.ranks, p.msgs, p.seed);
  const auto rec = replay::record(p.ranks, storm_body(plan));
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;

  analysis::Session session(rec.trace);
  const auto& report = session.match_report();
  EXPECT_EQ(report.matches.size(),
            static_cast<std::size_t>(p.ranks * p.msgs));
  EXPECT_TRUE(report.unmatched_sends.empty());
  EXPECT_TRUE(report.unmatched_recvs.empty());

  // Causality is well-formed even on dense wildcard traffic.
  const auto& order = session.causal_order();
  for (const auto& m : report.matches) {
    EXPECT_TRUE(order.happens_before(m.send_index, m.recv_index));
  }
}

TEST_P(StormTest, ReplayIsExact) {
  const auto p = GetParam();
  const auto plan = make_plan(p.ranks, p.msgs, p.seed);
  const auto body = storm_body(plan);
  const auto rec = replay::record(p.ranks, body);
  ASSERT_TRUE(rec.result.completed);

  replay::MatchRecorder second(p.ranks);
  replay::ReplayController controller(rec.log);
  mpi::RunOptions options;
  options.hooks = &second;
  options.controller = &controller;
  ASSERT_TRUE(mpi::run(p.ranks, body, options).completed);
  EXPECT_EQ(second.log(), rec.log);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StormTest,
    ::testing::Values(StormParam{2, 8, 11}, StormParam{3, 20, 22},
                      StormParam{5, 30, 33}, StormParam{8, 25, 44},
                      StormParam{8, 60, 55}, StormParam{12, 15, 66},
                      StormParam{4, 100, 77}));

/// A storm under an active delay plan: injected sender-side latency
/// perturbs arrival order everywhere, but nothing is lost — the run
/// must still complete with every message matched.
TEST(FaultStormTest, DelayPlanStormAtEightRanksMatchesFully) {
  constexpr int kRanks = 8;
  const auto plan = make_plan(kRanks, 20, /*seed=*/99);
  fault::FaultEngine engine(fault::FaultPlan::named("delay_storm", 7), kRanks);
  replay::RecordOptions options;
  options.fault_engine = &engine;
  const auto rec = replay::record(kRanks, storm_body(plan), options);
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  EXPECT_GE(engine.injection_count(fault::FaultKind::kDelay), 1u);

  analysis::Session session(rec.trace);
  const auto& report = session.match_report();
  EXPECT_EQ(report.matches.size(), static_cast<std::size_t>(kRanks * 20));
  EXPECT_TRUE(report.unmatched_sends.empty());
  EXPECT_TRUE(report.unmatched_recvs.empty());
}

}  // namespace
}  // namespace tdbg
