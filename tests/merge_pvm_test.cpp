#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "mpi/pvm.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"
#include "trace/merge.hpp"
#include "trace/trace_io.hpp"

namespace tdbg {
namespace {

TEST(MergeTest, SplitThenMergeRoundTrips) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      4, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);

  const auto parts = trace::split_by_rank(rec.trace);
  ASSERT_EQ(parts.size(), 4u);
  for (mpi::Rank r = 0; r < 4; ++r) {
    EXPECT_EQ(parts[static_cast<std::size_t>(r)].size(),
              rec.trace.rank_size(r));
  }

  const auto merged = trace::merge_traces(parts);
  EXPECT_EQ(merged.size(), rec.trace.size());
  EXPECT_EQ(merged.num_ranks(), 4);
  // Matching survives the round trip.
  analysis::Session merged_session(merged);
  analysis::Session original_session(rec.trace);
  EXPECT_EQ(merged_session.match_report().matches.size(),
            original_session.match_report().matches.size());
}

TEST(MergeTest, DistinctConstructTablesRemap) {
  // Two single-rank traces with clashing construct ids but different
  // names must merge without confusing the constructs.
  auto reg_a = std::make_shared<trace::ConstructRegistry>();
  const auto a_id = reg_a->intern("alpha");
  std::vector<trace::Event> ea(1);
  ea[0].rank = 0;
  ea[0].marker = 1;
  ea[0].construct = a_id;

  auto reg_b = std::make_shared<trace::ConstructRegistry>();
  const auto b_id = reg_b->intern("beta");
  std::vector<trace::Event> eb(1);
  eb[0].rank = 1;
  eb[0].marker = 1;
  eb[0].construct = b_id;
  EXPECT_EQ(a_id, b_id);  // the clash

  const auto merged = trace::merge_traces(
      {trace::Trace(2, std::move(ea), reg_a),
       trace::Trace(2, std::move(eb), reg_b)});
  ASSERT_EQ(merged.size(), 2u);
  const auto name_of = [&](mpi::Rank r) {
    return merged.constructs()
        .info(merged.event(merged.rank_event(r, 0)).construct)
        .name;
  };
  EXPECT_EQ(name_of(0), "alpha");
  EXPECT_EQ(name_of(1), "beta");
}

TEST(MergeTest, PerRankFilesWorkflow) {
  apps::strassen::Options opts;
  opts.n = 16;
  opts.cutoff = 8;
  const auto rec = replay::record(
      3, [opts](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed);

  // Write one file per rank (the AIMS workflow), then merge-read.
  std::vector<std::filesystem::path> paths;
  const auto parts = trace::split_by_rank(rec.trace);
  for (std::size_t r = 0; r < parts.size(); ++r) {
    const auto path = std::filesystem::temp_directory_path() /
                      ("merge_rank" + std::to_string(r) + ".trc");
    trace::write_trace(path, parts[r]);
    paths.push_back(path);
  }
  const auto merged = trace::read_merged(paths);
  EXPECT_EQ(merged.size(), rec.trace.size());
  for (const auto& p : paths) std::filesystem::remove(p);
}

TEST(PvmTest, PackSendRecvUnpack) {
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    pvm::Task task(comm);
    if (task.mytid() == 0) {
      task.initsend();
      task.pk_value<int>(42);
      task.pk_value<double>(2.5);
      const std::array<int, 3> arr{1, 2, 3};
      task.pk(std::span<const int>(arr));
      task.send(1, 5);
    } else {
      const auto bytes = task.recv(pvm::kAny, pvm::kAny);
      EXPECT_EQ(bytes, sizeof(int) + sizeof(double) + 3 * sizeof(int));
      EXPECT_EQ(task.bufinfo().source, 0);
      EXPECT_EQ(task.bufinfo().tag, 5);
      EXPECT_EQ(task.upk_value<int>(), 42);
      EXPECT_EQ(task.upk_value<double>(), 2.5);
      std::array<int, 3> arr{};
      task.upk(std::span<int>(arr));
      EXPECT_EQ(arr[2], 3);
      // Over-reading throws.
      EXPECT_THROW(task.upk_value<int>(), Error);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(PvmTest, SameBufferToMultipleTasks) {
  const auto result = mpi::run(4, [](mpi::Comm& comm) {
    pvm::Task task(comm);
    if (task.mytid() == 0) {
      task.initsend();
      task.pk_value<int>(99);
      for (int t = 1; t < task.ntasks(); ++t) task.send(t, 1);
    } else {
      task.recv(0, 1);
      EXPECT_EQ(task.upk_value<int>(), 99);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(PvmTest, PvmTrafficIsTracedAndReplayable) {
  const auto body = [](mpi::Comm& comm) {
    pvm::Task task(comm);
    if (task.mytid() == 0) {
      for (int i = 0; i < 4; ++i) {
        task.recv(pvm::kAny, 1);  // nondeterministic, PVM style
      }
    } else {
      task.initsend();
      task.pk_value<int>(task.mytid());
      task.send(0, 1);
      task.initsend();
      task.pk_value<int>(task.mytid() * 2);
      task.send(0, 1);
    }
  };
  const auto rec = replay::record(3, body);
  ASSERT_TRUE(rec.result.completed);
  analysis::Session session(rec.trace);
  EXPECT_EQ(session.match_report().matches.size(), 4u);

  // PVM-style wildcard receives replay under the same controller.
  replay::MatchRecorder second(3);
  replay::ReplayController controller(rec.log);
  mpi::RunOptions options;
  options.hooks = &second;
  options.controller = &controller;
  ASSERT_TRUE(mpi::run(3, body, options).completed);
  EXPECT_EQ(second.log(), rec.log);
}

}  // namespace
}  // namespace tdbg
