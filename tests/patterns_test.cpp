#include <gtest/gtest.h>

#include "analysis/patterns.hpp"
#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "replay/record.hpp"

namespace tdbg::analysis {
namespace {

TEST(PatternParseTest, TokensAndReps) {
  const auto p = parse_pattern("send:foo+ recv* any? enter");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].kind, trace::EventKind::kSend);
  EXPECT_EQ(p[0].construct, "foo");
  EXPECT_EQ(p[0].rep, PatternToken::Rep::kPlus);
  EXPECT_EQ(p[1].kind, trace::EventKind::kRecv);
  EXPECT_TRUE(p[1].construct.empty());
  EXPECT_EQ(p[1].rep, PatternToken::Rep::kStar);
  EXPECT_TRUE(p[2].any_kind);
  EXPECT_EQ(p[2].rep, PatternToken::Rep::kOpt);
  EXPECT_EQ(p[3].rep, PatternToken::Rep::kOnce);
}

TEST(PatternParseTest, RejectsBadKindAndEmpty) {
  EXPECT_THROW(parse_pattern("bogus"), Error);
  EXPECT_THROW(parse_pattern(""), Error);
  EXPECT_THROW(parse_pattern("   "), Error);
}

class ModelTest : public ::testing::Test {
 protected:
  ModelTest() {
    apps::strassen::Options opts;
    opts.n = 16;
    opts.cutoff = 8;
    opts.buggy = buggy_;
    rec_ = replay::record(8, [opts](mpi::Comm& comm) {
      apps::strassen::rank_body(comm, opts);
    });
  }

  bool buggy_ = false;
  replay::RecordedRun rec_;
};

TEST_F(ModelTest, WorkerModelMatchesAllWorkers) {
  ASSERT_TRUE(rec_.result.completed);
  // A worker: enter rank_body, enter worker, then receive/compute/send
  // in some shape.
  Session session(rec_.trace);
  const auto results = session.check_model("enter:rank_body enter:worker any*");
  for (const auto& r : results) {
    if (r.rank == 0) {
      EXPECT_FALSE(r.matched) << "the master is not a worker";
    } else {
      EXPECT_TRUE(r.matched) << "rank " << r.rank << ": " << r.detail;
    }
  }
}

TEST_F(ModelTest, PreciseWorkerSequence) {
  ASSERT_TRUE(rec_.result.completed);
  // Full worker body on 8 ranks: recv A, tick, recv B, compute
  // (strassen recursion collapses into `any*`), send result.
  Session session(rec_.trace);
  const auto results = session.check_model(
      "enter:rank_body enter:worker enter:MatrRecv recv:MatrRecv "
      "compute:prepare_operands enter:MatrRecv recv:MatrRecv any* "
      "enter:MatrSend send:MatrSend");
  int matched = 0;
  for (const auto& r : results) {
    if (r.matched) ++matched;
  }
  EXPECT_EQ(matched, 7);  // every worker, not the master
}

TEST(ModelBuggyTest, RankSevenDeviates) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  opts.buggy = true;
  const auto rec = replay::record(8, [opts](mpi::Comm& comm) {
    apps::strassen::rank_body(comm, opts);
  });
  ASSERT_TRUE(rec.result.deadlocked);

  // Against the worker model, ranks 1-6 conform and rank 7's truncated
  // history deviates — the Fig. 6 observation as a model query.
  Session session(rec.trace);
  const auto results = session.check_model(
      "enter:rank_body enter:worker enter:MatrRecv recv:MatrRecv "
      "compute:prepare_operands enter:MatrRecv recv:MatrRecv any* "
      "enter:MatrSend send:MatrSend");
  for (const auto& r : results) {
    if (r.rank >= 1 && r.rank <= 6) {
      EXPECT_TRUE(r.matched) << "rank " << r.rank << ": " << r.detail;
    }
    if (r.rank == 7) {
      EXPECT_FALSE(r.matched);
      EXPECT_FALSE(r.detail.empty());
    }
  }
}

TEST(ModelUnitTest, QuantifiersBacktrack) {
  // Hand-built action sequence: enter f, send x3 (one action), enter g.
  std::vector<trace::Event> events;
  auto reg = std::make_shared<trace::ConstructRegistry>();
  const auto f = reg->intern("f");
  const auto g = reg->intern("g");
  const auto s = reg->intern("s");
  std::uint64_t marker = 1;
  const auto push = [&](trace::EventKind kind, trace::ConstructId c) {
    trace::Event e;
    e.rank = 0;
    e.kind = kind;
    e.construct = c;
    e.marker = marker++;
    e.peer = kind == trace::EventKind::kSend ? 1 : mpi::kAnySource;
    events.push_back(e);
  };
  push(trace::EventKind::kEnter, f);
  push(trace::EventKind::kSend, s);
  push(trace::EventKind::kSend, s);
  push(trace::EventKind::kSend, s);
  push(trace::EventKind::kEnter, g);
  trace::Trace trace(2, std::move(events), reg);
  Session session(trace);
  const auto& actions = session.action_graph();

  // `any* enter:g` must backtrack the star to leave the final enter.
  EXPECT_TRUE(check_model(trace, actions, 0,
                          parse_pattern("any* enter:g")).matched);
  // send+ collapses the run of sends into one action.
  EXPECT_TRUE(check_model(trace, actions, 0,
                          parse_pattern("enter:f send+ enter:g")).matched);
  EXPECT_FALSE(check_model(trace, actions, 0,
                           parse_pattern("enter:f enter:g")).matched);
  // Optional token.
  EXPECT_TRUE(check_model(trace, actions, 0,
                          parse_pattern("enter:f send? send* enter:g"))
                  .matched);
}

}  // namespace
}  // namespace tdbg::analysis
