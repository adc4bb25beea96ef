#include <gtest/gtest.h>

#include <numeric>

#include "busy_threads.hpp"
#include "mpi/runtime.hpp"

namespace tdbg::mpi {
namespace {

TEST(Runtime, SingleRankRunsBody) {
  bool ran = false;
  const auto result = run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ran = true;
  });
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(ran);
}

TEST(Runtime, ThisRankIsBoundInsideBody) {
  EXPECT_EQ(this_rank(), -1);
  const auto result = run(3, [](Comm& comm) {
    EXPECT_EQ(this_rank(), comm.rank());
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(this_rank(), -1);
}

TEST(Runtime, PingPong) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(42, 1, 7);
      const int back = comm.recv_value<int>(1, 8);
      EXPECT_EQ(back, 43);
    } else {
      const int got = comm.recv_value<int>(0, 7);
      EXPECT_EQ(got, 42);
      comm.send_value<int>(got + 1, 0, 8);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, NonOvertakingSameTag) {
  // Two messages with the same tag from the same source must be
  // received in send order (MPI non-overtaking).
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send_value<int>(i, 1, 5);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      }
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, TagSelectionSkipsEarlierNonMatching) {
  // A receive for tag B must match even when a tag-A message was sent
  // first and is still queued.
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, /*tag=*/10);
      comm.send_value<int>(2, 1, /*tag=*/20);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, AnySourceReceivesFromEveryone) {
  constexpr int kRanks = 6;
  const auto result = run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(kRanks, false);
      for (int i = 1; i < kRanks; ++i) {
        Status st;
        const int payload = comm.recv_value<int>(kAnySource, 3, &st);
        EXPECT_EQ(payload, st.source * 100);
        EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
    } else {
      comm.send_value<int>(comm.rank() * 100, 0, 3);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, AnyTagReceivesActualTag) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(5, 1, 17);
    } else {
      Status st;
      const int got = comm.recv_value<int>(0, kAnyTag, &st);
      EXPECT_EQ(got, 5);
      EXPECT_EQ(st.tag, 17);
      EXPECT_EQ(st.source, 0);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, StatusCarriesChannelSeq) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 1, 4);
      comm.send_value<int>(2, 1, 4);
    } else {
      Status st;
      comm.recv_value<int>(0, 4, &st);
      EXPECT_EQ(st.channel_seq, 0u);
      comm.recv_value<int>(0, 4, &st);
      EXPECT_EQ(st.channel_seq, 1u);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, SsendBlocksUntilMatched) {
  std::atomic<bool> receiver_ready{false};
  const auto result = run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.ssend(std::span<const std::byte>(), 1, 9);
      // When ssend returns, the receive must have happened.
      EXPECT_TRUE(receiver_ready.load());
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      receiver_ready.store(true);
      std::vector<std::byte> buf;
      comm.recv(buf, 0, 9);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, ProbeReportsWithoutConsuming) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<double>(2.5, 1, 11);
    } else {
      const Status st = comm.probe(0, 11);
      EXPECT_EQ(st.bytes, sizeof(double));
      EXPECT_EQ(comm.recv_value<double>(0, 11), 2.5);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, DeadlockIsDetectedAndUnwound) {
  // Ranks 0 and 1 both receive first: circular wait, no messages.
  const auto result = run(2, [](Comm& comm) {
    std::vector<std::byte> buf;
    comm.recv(buf, 1 - comm.rank(), 0);
    comm.send(std::span<const std::byte>(), 1 - comm.rank(), 0);
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.deadlocked);
  ASSERT_EQ(result.final_waits.size(), 2u);
  EXPECT_EQ(result.final_waits[0].kind, WaitKind::kRecv);
  EXPECT_EQ(result.final_waits[0].peer, 1);
  EXPECT_EQ(result.final_waits[1].kind, WaitKind::kRecv);
  EXPECT_EQ(result.final_waits[1].peer, 0);
  EXPECT_NE(result.abort_detail.find("deadlock"), std::string::npos);
}

TEST(Runtime, SsendCycleDeadlocks) {
  // Both ranks ssend to each other before receiving: each waits for a
  // match only the other could make.
  const auto result = run(2, [](Comm& comm) {
    comm.ssend(std::span<const std::byte>(), 1 - comm.rank(), 0);
    std::vector<std::byte> buf;
    comm.recv(buf, 1 - comm.rank(), 0);
  });
  EXPECT_TRUE(result.deadlocked);
  ASSERT_EQ(result.final_waits.size(), 2u);
  for (Rank r = 0; r < 2; ++r) {
    const auto& w = result.final_waits[static_cast<std::size_t>(r)];
    EXPECT_EQ(w.kind, WaitKind::kSsend) << "rank " << r;
    EXPECT_EQ(w.peer, 1 - r) << "rank " << r;
  }
  EXPECT_NE(result.abort_detail.find("blocked in ssend"), std::string::npos);
}

TEST(Runtime, SsendThenUnmatchedRecvDeadlocks) {
  // Rank 0's ssend completes, then it waits for a reply rank 1 never
  // sends.  The receiver that matched the ssend must not end rank 0's
  // new wait, or the run would hang instead of reporting the deadlock.
  testing::BusyThreads busy(8);
  for (int i = 0; i < 200; ++i) {
    const auto result = run(2, [](Comm& comm) {
      std::vector<std::byte> buf;
      if (comm.rank() == 0) {
        comm.ssend(std::span<const std::byte>(), 1, 0);
        comm.recv(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
      }
    });
    ASSERT_TRUE(result.deadlocked) << "run " << i;
    EXPECT_EQ(result.final_waits[0].kind, WaitKind::kRecv) << "run " << i;
    EXPECT_EQ(result.final_waits[1].kind, WaitKind::kFinished) << "run " << i;
  }
}

TEST(WaitRegistry, EachWakerEndsOnlyTheWaitItNames) {
  // A waker that arrives after its rank moved on into another wait
  // (a late ssend completion, a mismatched wake) must leave that wait
  // alone; otherwise an idle rank counts as running for good.
  WaitRegistry reg(3);
  reg.enter_ssend_wait(0, 1, 5, /*ticket=*/1);
  reg.enter_wait(1, WaitKind::kRecv, 0, 5);
  reg.enter_wait(2, WaitKind::kStopped);
  reg.complete_ssend(1, 1);
  reg.complete_ssend(2, 1);
  reg.wake(1, WaitKind::kStopped);
  reg.wake(2, WaitKind::kRecv);
  auto waits = reg.snapshot();
  EXPECT_EQ(waits[0].kind, WaitKind::kSsend);
  EXPECT_EQ(waits[0].peer, 1);
  EXPECT_EQ(waits[1].kind, WaitKind::kRecv);
  EXPECT_EQ(waits[2].kind, WaitKind::kStopped);

  // The matching receiver records the ticket and ends the ssend wait
  // in one step; a sender whose ticket is matched does not park.
  EXPECT_FALSE(reg.ssend_matched(0, 1));
  reg.complete_ssend(0, 1);
  EXPECT_TRUE(reg.ssend_matched(0, 1));
  EXPECT_FALSE(reg.ssend_matched(0, 2));
  reg.enter_ssend_wait(0, 1, 5, /*ticket=*/1);
  reg.wake(1, WaitKind::kRecv);
  reg.wake(2, WaitKind::kStopped);
  for (const auto& w : reg.snapshot()) {
    EXPECT_EQ(w.kind, WaitKind::kNone) << "rank " << w.rank;
  }
}

TEST(Runtime, RankFailurePropagates) {
  const auto result = run(2, [](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("boom");
    // Rank 0 blocks forever; the abort from rank 1 must unwind it.
    std::vector<std::byte> buf;
    comm.recv(buf, 1, 0);
  });
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.deadlocked);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].rank, 1);
  EXPECT_NE(result.failures[0].what.find("boom"), std::string::npos);
}

TEST(Collectives, BarrierSynchronizes) {
  constexpr int kRanks = 5;
  std::atomic<int> before{0};
  const auto result = run(kRanks, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), kRanks);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, BcastFromEveryRoot) {
  constexpr int kRanks = 7;
  for (int root = 0; root < kRanks; ++root) {
    const auto result = run(kRanks, [root](Comm& comm) {
      std::vector<std::byte> data;
      if (comm.rank() == root) {
        data.resize(16, std::byte{static_cast<unsigned char>(root + 1)});
      }
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 16u);
      for (auto b : data) {
        EXPECT_EQ(b, std::byte{static_cast<unsigned char>(root + 1)});
      }
    });
    EXPECT_TRUE(result.completed) << "root=" << root;
  }
}

TEST(Collectives, ReduceSumsToRoot) {
  constexpr int kRanks = 6;
  for (int root = 0; root < kRanks; ++root) {
    const auto result = run(kRanks, [root](Comm& comm) {
      std::vector<std::byte> data(sizeof(int));
      int mine = comm.rank() + 1;
      std::memcpy(data.data(), &mine, sizeof mine);
      comm.reduce(data, root,
                  [](std::span<std::byte> acc, std::span<const std::byte> in) {
                    int a, b;
                    std::memcpy(&a, acc.data(), sizeof a);
                    std::memcpy(&b, in.data(), sizeof b);
                    a += b;
                    std::memcpy(acc.data(), &a, sizeof a);
                  });
      if (comm.rank() == root) {
        int total;
        std::memcpy(&total, data.data(), sizeof total);
        EXPECT_EQ(total, kRanks * (kRanks + 1) / 2);
      }
    });
    EXPECT_TRUE(result.completed) << "root=" << root;
  }
}

TEST(Collectives, AllreduceMax) {
  constexpr int kRanks = 8;
  const auto result = run(kRanks, [](Comm& comm) {
    const int maxed = comm.allreduce_value<int>(
        comm.rank() * 3, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(maxed, (kRanks - 1) * 3);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, GatherOrdersByRank) {
  constexpr int kRanks = 5;
  const auto result = run(kRanks, [](Comm& comm) {
    const int mine = comm.rank() * 7;
    auto parts = comm.gather(
        std::as_bytes(std::span<const int>(&mine, 1)), /*root=*/2);
    if (comm.rank() == 2) {
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(kRanks));
      for (int r = 0; r < kRanks; ++r) {
        int value;
        ASSERT_EQ(parts[static_cast<std::size_t>(r)].size(), sizeof value);
        std::memcpy(&value, parts[static_cast<std::size_t>(r)].data(),
                    sizeof value);
        EXPECT_EQ(value, r * 7);
      }
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, ScatterDeliversPerRankParts) {
  constexpr int kRanks = 4;
  const auto result = run(kRanks, [](Comm& comm) {
    std::vector<std::vector<std::byte>> parts;
    if (comm.rank() == 0) {
      for (int r = 0; r < kRanks; ++r) {
        parts.push_back(std::vector<std::byte>(
            static_cast<std::size_t>(r + 1),
            std::byte{static_cast<unsigned char>(r)}));
      }
    }
    const auto mine = comm.scatter(parts, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank() + 1));
  });
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, ManyToOneWildcardStress) {
  // Per-channel FIFO (MPI non-overtaking) under load: each sender
  // overruns its ring and spills to the overflow while rank 0 drains,
  // and busy threads preempt rank 0 part-way through a drain.
  constexpr int kRanks = 8;
  constexpr int kPerRank = 2000;
  constexpr int kRuns = 40;
  testing::BusyThreads busy(8);
  for (int run_index = 0; run_index < kRuns; ++run_index) {
    const auto result = run(kRanks, [&](Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<int> next(kRanks, 0);
        int out_of_order = 0;
        for (int i = 0; i < (kRanks - 1) * kPerRank; ++i) {
          Status st;
          const int v = comm.recv_value<int>(kAnySource, 1, &st);
          int& expected = next[static_cast<std::size_t>(st.source)];
          if (v != expected) ++out_of_order;
          expected = v + 1;
        }
        EXPECT_EQ(out_of_order, 0) << "run " << run_index;
        for (int r = 1; r < kRanks; ++r) {
          EXPECT_EQ(next[static_cast<std::size_t>(r)], kPerRank);
        }
      } else {
        for (int i = 0; i < kPerRank; ++i) comm.send_value<int>(i, 0, 1);
      }
    });
    ASSERT_TRUE(result.completed) << "run " << run_index << ": "
                                  << result.abort_detail;
  }
}

}  // namespace
}  // namespace tdbg::mpi
