#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "analysis/session.hpp"
#include "support/error.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace tdbg::trace {
namespace {

Event make_event(EventKind kind, mpi::Rank rank, std::uint64_t marker,
                 support::TimeNs t0, support::TimeNs t1,
                 mpi::Rank peer = mpi::kAnySource, mpi::Tag tag = mpi::kAnyTag,
                 mpi::ChannelSeq seq = 0) {
  Event e;
  e.kind = kind;
  e.rank = rank;
  e.marker = marker;
  e.construct = 0;
  e.t_start = t0;
  e.t_end = t1;
  e.peer = peer;
  e.tag = tag;
  e.channel_seq = seq;
  return e;
}

class TempFile {
 public:
  TempFile() {
    // Pid-qualified: ctest runs each test as its own process, so a
    // bare counter would hand concurrent tests the same path.
    path_ = std::filesystem::temp_directory_path() /
            ("tdbg_trace_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++) + ".trc");
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(ConstructRegistryTest, InternsAndDeduplicates) {
  ConstructRegistry reg;
  const auto a = reg.intern("foo", "f.cpp", 10);
  const auto b = reg.intern("bar", "f.cpp", 20);
  const auto c = reg.intern("foo", "f.cpp", 10);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.info(a).name, "foo");
  EXPECT_EQ(reg.info(b).line, 20);
}

TEST(ConstructRegistryTest, SameNameDifferentLocationDistinct) {
  ConstructRegistry reg;
  EXPECT_NE(reg.intern("f", "a.cpp", 1), reg.intern("f", "b.cpp", 1));
  EXPECT_NE(reg.intern("f", "a.cpp", 1), reg.intern("f", "a.cpp", 2));
}

TEST(ConstructRegistryTest, SnapshotRestoreRoundTrip) {
  ConstructRegistry reg;
  reg.intern("one", "x.cpp", 1);
  reg.intern("two", "y.cpp", 2);
  ConstructRegistry copy;
  copy.restore(reg.snapshot());
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.info(0).name, "one");
  // Restored index must dedupe against re-interning.
  EXPECT_EQ(copy.intern("two", "y.cpp", 2), 1u);
}

TEST(TraceTest, RankEventsPreserveProgramOrder) {
  std::vector<Event> events;
  // Same timestamps on purpose: per-rank order must come from markers.
  events.push_back(make_event(EventKind::kMark, 0, 3, 100, 100));
  events.push_back(make_event(EventKind::kMark, 0, 1, 100, 100));
  events.push_back(make_event(EventKind::kMark, 0, 2, 100, 100));
  Trace trace(1, std::move(events), nullptr);
  ASSERT_EQ(trace.rank_size(0), 3u);
  EXPECT_EQ(trace.event(trace.rank_event(0, 0)).marker, 1u);
  EXPECT_EQ(trace.event(trace.rank_event(0, 1)).marker, 2u);
  EXPECT_EQ(trace.event(trace.rank_event(0, 2)).marker, 3u);
}

TEST(TraceTest, WindowQueryFindsIntersecting) {
  std::vector<Event> events;
  events.push_back(make_event(EventKind::kCompute, 0, 1, 0, 10));
  events.push_back(make_event(EventKind::kCompute, 0, 2, 20, 30));
  events.push_back(make_event(EventKind::kCompute, 0, 3, 40, 50));
  Trace trace(1, std::move(events), nullptr);
  EXPECT_EQ(trace.events_in_window(5, 25).size(), 2u);
  EXPECT_EQ(trace.events_in_window(11, 19).size(), 0u);
  EXPECT_EQ(trace.events_in_window(0, 100).size(), 3u);
  EXPECT_EQ(trace.t_min(), 0);
  EXPECT_EQ(trace.t_max(), 50);
}

TEST(TraceTest, FindMarkerAndHitTest) {
  std::vector<Event> events;
  events.push_back(make_event(EventKind::kMark, 0, 1, 10, 10));
  events.push_back(make_event(EventKind::kMark, 0, 2, 20, 20));
  Trace trace(1, std::move(events), nullptr);
  ASSERT_TRUE(trace.find_marker(0, 2).has_value());
  EXPECT_FALSE(trace.find_marker(0, 9).has_value());
  const auto hit = trace.last_event_at_or_before(0, 15);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(trace.event(*hit).marker, 1u);
  EXPECT_FALSE(trace.last_event_at_or_before(0, 5).has_value());
}

TEST(TraceTest, MatchReportPairsByChannelSeq) {
  std::vector<Event> events;
  // Rank 0 sends twice to rank 1 (tag 5), rank 1 receives both.
  events.push_back(make_event(EventKind::kSend, 0, 1, 0, 1, 1, 5));
  events.push_back(make_event(EventKind::kSend, 0, 2, 2, 3, 1, 5));
  events.push_back(make_event(EventKind::kRecv, 1, 1, 4, 5, 0, 5, 0));
  events.push_back(make_event(EventKind::kRecv, 1, 2, 6, 7, 0, 5, 1));
  Trace trace(2, std::move(events), nullptr);
  analysis::Session session(trace);
  const auto& report = session.match_report();
  ASSERT_EQ(report.matches.size(), 2u);
  EXPECT_TRUE(report.unmatched_sends.empty());
  EXPECT_TRUE(report.unmatched_recvs.empty());
  // First send pairs with seq-0 recv.
  EXPECT_EQ(trace.event(report.matches[0].send_index).marker, 1u);
  EXPECT_EQ(trace.event(report.matches[0].recv_index).rank, 1);
}

TEST(TraceTest, MatchReportFlagsUnmatched) {
  std::vector<Event> events;
  events.push_back(make_event(EventKind::kSend, 0, 1, 0, 1, 1, 5));
  events.push_back(make_event(EventKind::kRecv, 1, 1, 2, 3, 0, 9, 4));
  Trace trace(2, std::move(events), nullptr);
  analysis::Session session(trace);
  const auto& report = session.match_report();
  EXPECT_TRUE(report.matches.empty());
  EXPECT_EQ(report.unmatched_sends.size(), 1u);
  EXPECT_EQ(report.unmatched_recvs.size(), 1u);
}

class TraceIoFormatTest : public ::testing::TestWithParam<TraceFormat> {};

TEST_P(TraceIoFormatTest, RoundTripPreservesEverything) {
  auto registry = std::make_shared<ConstructRegistry>();
  registry->intern("alpha", "a.cpp", 11);
  registry->intern("beta", "b.cpp", 22);

  std::vector<Event> events;
  auto e1 = make_event(EventKind::kSend, 0, 5, 100, 200, 1, 7, 0);
  e1.construct = 0;
  e1.bytes = 64;
  auto e2 = make_event(EventKind::kRecv, 1, 9, 150, 250, 0, 7, 0);
  e2.construct = 1;
  e2.bytes = 64;
  e2.wildcard = true;
  events.push_back(e1);
  events.push_back(e2);
  Trace original(2, std::move(events), registry);

  TempFile file;
  write_trace(file.path(), original, GetParam());
  const Trace loaded = read_trace(file.path());

  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.num_ranks(), 2);
  const auto& l1 = loaded.event(0);
  EXPECT_EQ(l1.kind, EventKind::kSend);
  EXPECT_EQ(l1.marker, 5u);
  EXPECT_EQ(l1.t_start, 100);
  EXPECT_EQ(l1.t_end, 200);
  EXPECT_EQ(l1.peer, 1);
  EXPECT_EQ(l1.tag, 7);
  EXPECT_EQ(l1.bytes, 64u);
  EXPECT_FALSE(l1.wildcard);
  const auto& l2 = loaded.event(1);
  EXPECT_TRUE(l2.wildcard);
  EXPECT_EQ(loaded.constructs().info(0).name, "alpha");
  EXPECT_EQ(loaded.constructs().info(1).line, 22);
}

INSTANTIATE_TEST_SUITE_P(Formats, TraceIoFormatTest,
                         ::testing::Values(TraceFormat::kBinary,
                                           TraceFormat::kText));

TEST(TraceIoTest, RejectsMissingFile) {
  EXPECT_THROW(read_trace("/nonexistent/path/x.trc"), IoError);
}

TEST(TraceIoTest, RejectsGarbage) {
  TempFile file;
  {
    std::ofstream out(file.path());
    out << "not a trace at all\n";
  }
  EXPECT_THROW(read_trace(file.path()), FormatError);
}

TEST(TraceIoTest, BinaryTruncationStillYieldsPrefix) {
  // Flush-on-demand means a reader may see a file without the footer;
  // events before the cut must parse.
  auto registry = std::make_shared<ConstructRegistry>();
  TempFile file;
  {
    TraceWriter writer(file.path(), 1, registry);
    for (int i = 0; i < 10; ++i) {
      writer.write_event(make_event(EventKind::kMark, 0,
                                    static_cast<std::uint64_t>(i + 1), i, i));
    }
    // No finish(): simulate reading mid-run by copying before close...
    writer.finish();
  }
  // Truncate after the 10 events but before the footer: 8 magic +
  // 4 ranks + 10 * (1 tag + 54 payload) ... compute from file size by
  // chopping the footer (5 bytes: end tag + u32 count).
  const auto full = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), full - 5);
  const Trace loaded = read_trace(file.path());
  EXPECT_EQ(loaded.size(), 10u);
}

TEST(CollectorTest, CollectsPerRankAndBuilds) {
  TraceCollector collector(2);
  collector.append(make_event(EventKind::kMark, 0, 1, 0, 0));
  collector.append(make_event(EventKind::kMark, 1, 1, 1, 1));
  collector.append(make_event(EventKind::kMark, 0, 2, 2, 2));
  EXPECT_EQ(collector.buffered_count(), 3u);
  EXPECT_EQ(collector.total_count(), 3u);
  const Trace trace = collector.build_trace();
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.rank_size(0), 2u);
}

TEST(CollectorTest, GlobalToggleDropsRecords) {
  TraceCollector collector(1);
  collector.set_enabled(false);
  collector.append(make_event(EventKind::kMark, 0, 1, 0, 0));
  collector.set_enabled(true);
  collector.append(make_event(EventKind::kMark, 0, 2, 1, 1));
  EXPECT_EQ(collector.buffered_count(), 1u);
}

TEST(CollectorTest, KindToggleDropsSelectively) {
  TraceCollector collector(1);
  collector.set_kind_enabled(EventKind::kEnter, false);
  collector.append(make_event(EventKind::kEnter, 0, 1, 0, 0));
  collector.append(make_event(EventKind::kSend, 0, 2, 1, 1, 0, 0));
  EXPECT_EQ(collector.buffered_count(), 1u);
  EXPECT_EQ(collector.build_trace().event(0).kind, EventKind::kSend);
}

TEST(CollectorTest, FlushOnDemandDrainsToWriter) {
  TempFile file;
  auto registry = std::make_shared<ConstructRegistry>();
  TraceCollector collector(2, registry);
  TraceWriter writer(file.path(), 2, registry);
  collector.attach_writer(&writer);
  collector.append(make_event(EventKind::kMark, 0, 1, 0, 0));
  collector.append(make_event(EventKind::kMark, 1, 1, 1, 1));
  EXPECT_EQ(writer.events_written(), 0u);
  collector.flush();
  EXPECT_EQ(writer.events_written(), 2u);
  EXPECT_EQ(collector.buffered_count(), 0u);
  writer.finish();
  EXPECT_EQ(read_trace(file.path()).size(), 2u);
}

TEST(CollectorTest, AutoFlushAtThreshold) {
  TempFile file;
  auto registry = std::make_shared<ConstructRegistry>();
  TraceCollector collector(1, registry);
  TraceWriter writer(file.path(), 1, registry);
  collector.attach_writer(&writer, /*threshold=*/4);
  for (int i = 0; i < 10; ++i) {
    collector.append(make_event(EventKind::kMark, 0,
                                static_cast<std::uint64_t>(i + 1), i, i));
  }
  EXPECT_GE(writer.events_written(), 4u);
  collector.flush();
  EXPECT_EQ(writer.events_written(), 10u);
}

TEST(CollectorTest, CrossChunkOrderAndRecycling) {
  // More events than several chunks hold, flushed chunk-by-chunk: the
  // reader must see every record, per-rank program order intact.
  TempFile file;
  auto registry = std::make_shared<ConstructRegistry>();
  TraceCollector collector(1, registry);
  TraceWriter writer(file.path(), 1, registry);
  collector.attach_writer(&writer,
                          /*threshold=*/TraceCollector::kChunkEvents);
  const auto n = 3 * TraceCollector::kChunkEvents + 123;
  for (std::size_t i = 0; i < n; ++i) {
    collector.append(make_event(EventKind::kMark, 0, i + 1,
                                static_cast<support::TimeNs>(i),
                                static_cast<support::TimeNs>(i)));
  }
  collector.flush();
  writer.finish();
  const Trace loaded = read_trace(file.path());
  ASSERT_EQ(loaded.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(loaded.event(i).marker, i + 1);
  }
  EXPECT_EQ(collector.total_count(), n);
  EXPECT_EQ(collector.buffered_count(), 0u);
}

TEST(CollectorTest, FlushMakesRecordsReadableBeforeFinish) {
  // Flush-on-demand (paper §2.1): after `flush()` the file holds every
  // record appended so far, before `finish()` writes the footer — on
  // every format, and on v3 both inside the first segment and past a
  // full one (65,536 records), where the open segment is sealed short.
  for (const auto format :
       {TraceFormat::kBinary, TraceFormat::kBinaryV3, TraceFormat::kText}) {
    for (const std::size_t n : {std::size_t{10}, std::size_t{70000}}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                   ", " + std::to_string(n) + " records");
      TempFile file;
      auto registry = std::make_shared<ConstructRegistry>();
      TraceCollector collector(2, registry);
      TraceWriter writer(file.path(), 2, registry, format);
      collector.attach_writer(&writer);
      const auto append = [&](std::size_t i) {
        collector.append(make_event(EventKind::kMark,
                                    static_cast<mpi::Rank>(i % 2), i / 2 + 1,
                                    static_cast<support::TimeNs>(i),
                                    static_cast<support::TimeNs>(i)));
      };
      for (std::size_t i = 0; i < n; ++i) append(i);
      collector.flush();
      EXPECT_EQ(read_trace(file.path()).size(), n);

      // More records after the flush, then the footer: a short block
      // sealed by a flush is an ordinary segment of the finished file.
      append(n);
      collector.flush();
      EXPECT_EQ(read_trace(file.path()).size(), n + 1);
      writer.finish();
      const Trace reopened = open_trace(file.path());
      ASSERT_EQ(reopened.size(), n + 1);
      EXPECT_EQ(reopened.event(n).t_start, static_cast<support::TimeNs>(n));
    }
  }
}

TEST(CollectorTest, BackgroundFlushDrainsConcurrently) {
  // Producers append while a flusher thread calls flush() in a loop:
  // the SPSC hand-off must lose nothing and keep per-rank order.  One
  // producer thread per rank — appending to a rank's buffer is
  // single-producer by contract (it is the rank's own thread during a
  // run); the producers' own threshold auto-flushes race the flusher.
  TempFile file;
  auto registry = std::make_shared<ConstructRegistry>();
  TraceCollector collector(2, registry);
  TraceWriter writer(file.path(), 2, registry);
  collector.attach_writer(&writer, /*threshold=*/256);

  constexpr std::size_t kPerRank = 20000;
  auto produce = [&](mpi::Rank rank) {
    for (std::size_t i = 0; i < kPerRank; ++i) {
      collector.append(make_event(EventKind::kMark, rank, i + 1,
                                  static_cast<support::TimeNs>(i),
                                  static_cast<support::TimeNs>(i)));
    }
  };
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load(std::memory_order_acquire)) {
      collector.flush();
      std::this_thread::yield();
    }
  });
  std::thread t0(produce, 0);
  std::thread t1(produce, 1);
  t0.join();
  t1.join();
  done.store(true, std::memory_order_release);
  flusher.join();
  collector.flush();  // final drain
  EXPECT_EQ(writer.events_written(), 2 * kPerRank);
  writer.finish();

  const Trace loaded = read_trace(file.path());
  ASSERT_EQ(loaded.size(), 2 * kPerRank);
  for (mpi::Rank r = 0; r < 2; ++r) {
    ASSERT_EQ(loaded.rank_size(r), kPerRank) << "rank " << r;
    for (std::size_t i = 0; i < kPerRank; ++i) {
      ASSERT_EQ(loaded.event(loaded.rank_event(r, i)).marker, i + 1)
          << "rank " << r;
    }
  }
}

TEST(TraceIoTest, WriteEventsBatchRoundTrip) {
  // The batched span path must produce the same file as per-event
  // writes.
  auto registry = std::make_shared<ConstructRegistry>();
  TempFile batched;
  {
    TraceWriter writer(batched.path(), 1, registry);
    std::vector<Event> events;
    for (int i = 0; i < 300; ++i) {
      events.push_back(make_event(EventKind::kMark, 0,
                                  static_cast<std::uint64_t>(i + 1), i, i));
    }
    writer.write_events(events);
    EXPECT_EQ(writer.events_written(), 300u);
    writer.finish();
  }
  const Trace loaded = read_trace(batched.path());
  ASSERT_EQ(loaded.size(), 300u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.event(i).marker, i + 1);
  }
}

}  // namespace
}  // namespace tdbg::trace
