// Error paths and edge cases across the stack: API contract
// violations, replay divergence branches, self-messaging, odd
// collective sizes, and the new combined operations.

#include <gtest/gtest.h>

#include <thread>

#include "analysis/session.hpp"
#include "causality/causal_order.hpp"
#include "mpi/runtime.hpp"
#include "replay/match_log.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"

namespace tdbg {
namespace {

TEST(EdgeMpi, SelfSendAndRecvWork) {
  const auto result = mpi::run(1, [](mpi::Comm& comm) {
    comm.send_value<int>(7, 0, 1);
    EXPECT_EQ(comm.recv_value<int>(0, 1), 7);
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeMpi, SendToInvalidRankThrows) {
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 5, 0);  // rank 5 does not exist
    }
  });
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].what.find("rank out of range"),
            std::string::npos);
}

TEST(EdgeMpi, NegativeTagRejected) {
  const auto result = mpi::run(1, [](mpi::Comm& comm) {
    comm.send_value<int>(1, 0, -5);
  });
  EXPECT_FALSE(result.completed);
}

TEST(EdgeMpi, RecvValueSizeMismatchThrows) {
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(1.5, 1, 1);
    } else {
      EXPECT_THROW(comm.recv_value<int>(0, 1), Error);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeMpi, ZeroByteMessages) {
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const std::byte>(), 1, 1);
    } else {
      std::vector<std::byte> buf{std::byte{1}};
      const auto st = comm.recv(buf, 0, 1);
      EXPECT_EQ(st.bytes, 0u);
      EXPECT_TRUE(buf.empty());
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeMpi, AlltoallExchangesPersonalizedParts) {
  constexpr int kRanks = 5;
  const auto result = mpi::run(kRanks, [](mpi::Comm& comm) {
    std::vector<std::vector<std::byte>> parts(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      // Send rank r one byte encoding (me, them).
      parts[static_cast<std::size_t>(r)] = {
          std::byte{static_cast<unsigned char>(comm.rank() * 16 + r)}};
    }
    const auto got = comm.alltoall(parts);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r) {
      ASSERT_EQ(got[static_cast<std::size_t>(r)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(r)][0],
                std::byte{static_cast<unsigned char>(r * 16 + comm.rank())});
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeMpi, SendrecvShiftPattern) {
  constexpr int kRanks = 6;
  const auto result = mpi::run(kRanks, [](mpi::Comm& comm) {
    const mpi::Rank right = (comm.rank() + 1) % kRanks;
    const mpi::Rank left = (comm.rank() + kRanks - 1) % kRanks;
    const int mine = comm.rank() * 10;
    std::vector<std::byte> incoming;
    // Everyone shifts right simultaneously — the head-to-head pattern
    // Sendrecv exists for.
    const auto st = comm.sendrecv(
        std::as_bytes(std::span<const int>(&mine, 1)), right, 4, incoming,
        left, 4);
    EXPECT_EQ(st.source, left);
    int got;
    std::memcpy(&got, incoming.data(), sizeof got);
    EXPECT_EQ(got, left * 10);
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeMpi, CollectivesOnSingleRank) {
  const auto result = mpi::run(1, [](mpi::Comm& comm) {
    comm.barrier();
    std::vector<std::byte> data{std::byte{9}};
    comm.bcast(data, 0);
    EXPECT_EQ(data[0], std::byte{9});
    EXPECT_EQ(comm.allreduce_value<int>(5, [](int a, int b) { return a + b; }),
              5);
  });
  EXPECT_TRUE(result.completed);
}

TEST(EdgeReplay, ForcedMatchAlreadyConsumedDiverges) {
  // Log says recv #0 matched (src 1, seq 1) — but seq 0 from rank 1 is
  // tag-compatible and arrives first, so the forced seq-1 match is
  // unreachable without consuming seq 0 first: divergence.
  replay::MatchLog log;
  log.per_rank.resize(2);
  log.per_rank[0] = {mpi::SourceSeq{1, 1}};
  replay::ReplayController controller(std::move(log));
  mpi::RunOptions options;
  options.controller = &controller;
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value<int>(1, 0, 1);
      comm.send_value<int>(2, 0, 1);
    } else {
      comm.recv_value<int>(1, 1);
    }
  }, options);
  EXPECT_FALSE(result.completed);
  ASSERT_GE(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].what.find("divergence"), std::string::npos);
}

TEST(EdgeReplay, LogShorterThanRunFallsBackToFreeChoice) {
  // A crashed recording may hold fewer receives than a replay runs:
  // receives beyond the log must not throw.
  replay::MatchLog log;
  log.per_rank.resize(2);
  log.per_rank[0] = {mpi::SourceSeq{1, 0}};  // only the first is forced
  replay::ReplayController controller(std::move(log));
  mpi::RunOptions options;
  options.controller = &controller;
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 1) {
      for (int i = 0; i < 3; ++i) comm.send_value<int>(i, 0, 1);
    } else {
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(comm.recv_value<int>(mpi::kAnySource, 1), i);
      }
    }
  }, options);
  EXPECT_TRUE(result.completed);
}

TEST(EdgeCausality, EmptyAndSingleEventTraces) {
  trace::Trace empty(2, {}, nullptr);
  analysis::Session empty_session(empty);
  (void)empty_session.causal_order();
  EXPECT_TRUE(causality::is_consistent(
      empty_session.match_report(), empty_session.rank_index(),
      causality::cut_at_time(empty_session.rank_index(),
                             empty_session.event_columns(), 100)));

  std::vector<trace::Event> one(1);
  one[0].rank = 0;
  one[0].marker = 1;
  trace::Trace single(2, std::move(one), nullptr);
  analysis::Session single_session(single);
  const auto& single_order = single_session.causal_order();
  EXPECT_TRUE(single_order.causal_past(0).empty());
  EXPECT_TRUE(single_order.causal_future(0).empty());
  const auto frontier = single_order.past_frontier(0);
  EXPECT_FALSE(frontier[0].has_value());
  EXPECT_FALSE(frontier[1].has_value());
}

TEST(EdgeSupport, BinaryReaderRejectsTruncation) {
  support::BinaryWriter w;
  w.put<std::uint32_t>(7);
  support::BinaryReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), 7u);
  EXPECT_THROW(r.get<std::uint64_t>(), FormatError);
  EXPECT_THROW(r.seek(100), FormatError);
}

TEST(EdgeSupport, BinaryStringRoundTrip) {
  support::BinaryWriter w;
  w.put_string("hello\0world");  // embedded NUL truncates via literal, fine
  w.put_string("");
  support::BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(EdgeRuntime, ConcurrentRunsAreIsolated) {
  // Two independent runs in the same process must not interfere: the
  // runtime keeps per-run worlds and per-thread rank bindings.
  std::atomic<int> ok{0};
  std::thread a([&] {
    const auto r = mpi::run(3, [](mpi::Comm& comm) {
      const int sum = comm.allreduce_value<int>(
          comm.rank(), [](int x, int y) { return x + y; });
      TDBG_CHECK(sum == 3, "world A sum wrong");
    });
    if (r.completed) ok.fetch_add(1);
  });
  std::thread b([&] {
    const auto r = mpi::run(5, [](mpi::Comm& comm) {
      const int sum = comm.allreduce_value<int>(
          comm.rank(), [](int x, int y) { return x + y; });
      TDBG_CHECK(sum == 10, "world B sum wrong");
    });
    if (r.completed) ok.fetch_add(1);
  });
  a.join();
  b.join();
  EXPECT_EQ(ok.load(), 2);
}

TEST(EdgeRuntime, ManyRanksSmokeTest) {
  constexpr int kRanks = 32;
  const auto result = mpi::run(kRanks, [](mpi::Comm& comm) {
    const auto sum = comm.allreduce_value<int>(
        comm.rank(), [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, kRanks * (kRanks - 1) / 2);
    comm.barrier();
  });
  EXPECT_TRUE(result.completed);
}

}  // namespace
}  // namespace tdbg
