// The analysis thread pool (tdbg::exec) and the trace's segment view
// the passes parallelize over: pool lifecycle, work stealing,
// exception propagation, and — the contract everything else leans
// on — that every migrated analysis produces bit-identical reports at
// 1, 2, and 8 threads, on both trace-store backends.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/patterns.hpp"
#include "analysis/races.hpp"
#include "analysis/session.hpp"
#include "analysis/traffic.hpp"
#include "causality/causal_order.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "graph/action_graph.hpp"
#include "graph/comm_graph.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "replay/record.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "telemetry/span.hpp"
#include "trace/trace_io.hpp"
#include "viz/chrome.hpp"

namespace tdbg {
namespace {

// --- workloads -------------------------------------------------------------

/// Seeded random storm (mirrors storm_test): every rank sends a
/// pseudo-random schedule eagerly, then drains its quota with fully
/// wild receives — dense wildcard traffic for matching and races.
struct StormPlan {
  std::vector<std::vector<std::array<int, 3>>> sends;  // (dest, tag, payload)
  std::vector<int> recv_count;
};

StormPlan make_storm_plan(int ranks, int msgs_per_rank, std::uint64_t seed) {
  StormPlan plan;
  plan.sends.resize(static_cast<std::size_t>(ranks));
  plan.recv_count.assign(static_cast<std::size_t>(ranks), 0);
  const support::SplitMix64 root(seed);
  for (int s = 0; s < ranks; ++s) {
    auto rng = root.split(static_cast<std::uint64_t>(s));
    for (int m = 0; m < msgs_per_rank; ++m) {
      const int dest =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
      const int tag = static_cast<int>(rng.next_below(5));
      const int payload = static_cast<int>(rng.next_below(100000));
      plan.sends[static_cast<std::size_t>(s)].push_back({dest, tag, payload});
      ++plan.recv_count[static_cast<std::size_t>(dest)];
    }
  }
  return plan;
}

mpi::RankBody storm_body(const StormPlan& plan) {
  return [plan](mpi::Comm& comm) {
    const auto& mine = plan.sends[static_cast<std::size_t>(comm.rank())];
    for (const auto& [dest, tag, payload] : mine) {
      comm.send_value<int>(payload, dest, tag, "storm_send");
    }
    const int quota = plan.recv_count[static_cast<std::size_t>(comm.rank())];
    for (int i = 0; i < quota; ++i) {
      comm.recv_value<int>(mpi::kAnySource, mpi::kAnyTag, nullptr,
                           "storm_recv");
    }
  };
}

/// Token ring (mirrors fault_test): with the deadlock_ring fault plan
/// armed, rank 0's send is held and the run deadlocks, leaving a
/// partial trace with unmatched traffic.
mpi::RankBody ring_body(int n) {
  return [n](mpi::Comm& comm) {
    const mpi::Rank r = comm.rank();
    const mpi::Rank next = (r + 1) % n;
    const mpi::Rank prev = (r + n - 1) % n;
    if (r == 0) {
      comm.send_value<int>(42, next, /*tag=*/1);
      comm.recv_value<int>(prev, /*tag=*/1);
    } else {
      const int token = comm.recv_value<int>(prev, /*tag=*/1);
      comm.send_value<int>(token, next, /*tag=*/1);
    }
  };
}

// --- report equality -------------------------------------------------------

void expect_match_reports_equal(const trace::MatchReport& a,
                                const trace::MatchReport& b) {
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].send_index, b.matches[i].send_index) << "at " << i;
    EXPECT_EQ(a.matches[i].recv_index, b.matches[i].recv_index) << "at " << i;
  }
  EXPECT_EQ(a.unmatched_sends, b.unmatched_sends);
  EXPECT_EQ(a.unmatched_recvs, b.unmatched_recvs);
}

void expect_race_reports_equal(const analysis::RaceReport& a,
                               const analysis::RaceReport& b) {
  ASSERT_EQ(a.races.size(), b.races.size());
  for (std::size_t i = 0; i < a.races.size(); ++i) {
    EXPECT_EQ(a.races[i].recv_index, b.races[i].recv_index) << "at " << i;
    EXPECT_EQ(a.races[i].matched_send, b.races[i].matched_send) << "at " << i;
    EXPECT_EQ(a.races[i].candidates, b.races[i].candidates) << "at " << i;
  }
}

/// Runs the whole analysis pipeline on a fresh facade over `store`
/// (fresh = nothing memoized) under a pool of `threads` threads, and
/// checks it against the serial baseline computed at 1 thread.
struct PipelineReports {
  trace::MatchReport match;
  std::string traffic;
  analysis::RaceReport races;
  std::string comm_graph;
  std::string action_graph;
  std::vector<analysis::ModelResult> model;
};

PipelineReports run_pipeline(
    const std::shared_ptr<const trace::TraceStore>& store,
    std::size_t threads) {
  exec::ScopedExecutor pool(threads);
  const trace::Trace trace(store);
  analysis::Session session(trace);
  PipelineReports out;
  out.match = session.match_report();
  out.traffic = session.traffic().to_string();
  out.races = session.races();
  out.comm_graph = graph::to_dot(session.comm_graph().to_export());
  out.action_graph =
      graph::to_dot(session.action_graph().to_export(trace.constructs()));
  out.model = session.check_model("any*");
  return out;
}

void expect_pipelines_equal(const PipelineReports& a,
                            const PipelineReports& b) {
  expect_match_reports_equal(a.match, b.match);
  EXPECT_EQ(a.traffic, b.traffic);
  expect_race_reports_equal(a.races, b.races);
  EXPECT_EQ(a.comm_graph, b.comm_graph);
  EXPECT_EQ(a.action_graph, b.action_graph);
  ASSERT_EQ(a.model.size(), b.model.size());
  for (std::size_t i = 0; i < a.model.size(); ++i) {
    EXPECT_EQ(a.model[i].matched, b.model[i].matched);
    EXPECT_EQ(a.model[i].failed_at, b.model[i].failed_at);
    EXPECT_EQ(a.model[i].detail, b.model[i].detail);
  }
}

class TempTraceFile {
 public:
  TempTraceFile() {
    path_ = std::filesystem::temp_directory_path() /
            ("tdbg_exec_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++) + ".trc");
  }
  ~TempTraceFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

// --- pool mechanics --------------------------------------------------------

TEST(ExecutorTest, StartStopIdle) {
  // Pools of every interesting size construct and tear down cleanly
  // without ever receiving work.
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    exec::Executor pool(n);
    EXPECT_EQ(pool.threads(), n);
  }
}

TEST(ExecutorTest, ParallelForRunsEveryIndexOnce) {
  exec::Executor pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, "test.pf",
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutorTest, OneThreadRunsInlineInSubmissionOrder) {
  exec::Executor pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, "test.inline",
                    [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // inline = plain serial loop
}

TEST(ExecutorTest, ExceptionPropagatesToCaller) {
  exec::Executor pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(16, "test.throw",
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 3) throw std::runtime_error("task 3 died");
                        }),
      std::runtime_error);
  // The remaining tasks still ran; the pool is not poisoned.
  EXPECT_EQ(ran.load(), 16);
  std::atomic<int> again{0};
  pool.parallel_for(4, "test.after",
                    [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ExecutorTest, ExceptionPropagatesInline) {
  exec::Executor pool(1);
  EXPECT_THROW(pool.parallel_for(4, "test.throw.inline",
                                 [](std::size_t i) {
                                   if (i == 2) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ExecutorTest, StealsUnderSkewedTasks) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "TDBG_METRICS=OFF";
  // One worker (threads=2): every task lands in its queue.  The worker
  // pops the front and sleeps in it; the actively-draining caller must
  // take the rest from the back — every caller pop counts as a steal.
  auto& steals = obs::MetricsRegistry::global().counter("exec.steals");
  const auto before = steals.total();
  exec::Executor pool(2);
  pool.parallel_for(8, "test.skew", [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_GT(steals.total(), before);
}

TEST(ExecutorTest, TaskAndSiteCountersAdvance) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "TDBG_METRICS=OFF";
  auto& reg = obs::MetricsRegistry::global();
  const auto tasks_before = reg.counter("exec.tasks").total();
  const auto site_before = reg.counter("exec.tasks.test.site").total();
  exec::Executor pool(4);
  pool.parallel_for(12, "test.site", [](std::size_t) {});
  EXPECT_EQ(reg.counter("exec.tasks").total(), tasks_before + 12);
  EXPECT_EQ(reg.counter("exec.tasks.test.site").total(), site_before + 12);
  EXPECT_GE(reg.gauge("exec.queue_depth").max(), 1u);
  EXPECT_EQ(reg.gauge("exec.threads").value(-1), 4u);
}

TEST(ExecutorTest, ScopedExecutorReplacesGlobal) {
  {
    exec::ScopedExecutor scoped(3);
    EXPECT_EQ(&exec::Executor::global(), &scoped.get());
    EXPECT_EQ(exec::Executor::global().threads(), 3u);
  }
  // After the scope, global() resolves to the default pool again.
  EXPECT_NE(exec::Executor::global().threads(), 3u);
}

TEST(ExecutorTest, WorkerSpansRenderAsChromeTracks) {
  // Sleeping tasks on a 2-thread pool: the caller drains from the
  // back while the lone worker pops the front, so at least one task
  // runs on the worker and its span carries the synthetic rank that
  // the Chrome exporter names as an "exec worker N" track.
  auto& collector = telemetry::SpanCollector::global();
  collector.reset();
  {
    exec::ScopedExecutor pool(2);
    pool.get().parallel_for(4, "test.worker_tracks", [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  }
  const auto spans = collector.snapshot();
  bool on_worker = false;
  for (const auto& span : spans) {
    on_worker |= span.rank >= static_cast<int>(exec::kWorkerRankBase);
  }
  ASSERT_TRUE(on_worker);
  std::ostringstream os;
  viz::write_chrome_trace(os, trace::Trace{}, spans);
  EXPECT_NE(os.str().find("\"exec worker 0\""), std::string::npos);
}

TEST(ExecutorTest, NestedParallelForCompletes) {
  exec::Executor pool(4);
  std::atomic<int> leaf{0};
  pool.parallel_for(8, "test.outer", [&](std::size_t) {
    exec::Executor::global();  // safe to touch the registry from a task
    for (int i = 0; i < 4; ++i) leaf.fetch_add(1);
  });
  EXPECT_EQ(leaf.load(), 32);
}

// --- segment view ----------------------------------------------------------

TEST(MapReduceTest, SegmentViewCoversTraceExactly) {
  const auto plan = make_storm_plan(4, 30, /*seed=*/11);
  const auto rec = replay::record(4, storm_body(plan));
  ASSERT_TRUE(rec.result.completed);
  const auto& trace = rec.trace;
  std::size_t covered = 0;
  for (std::size_t s = 0; s < trace.segment_count(); ++s) {
    const auto [begin, end] = trace.segment_range(s);
    EXPECT_EQ(begin, covered);
    std::size_t seen = 0;
    trace.for_each_in_segment(s, [&](std::size_t i, const trace::Event&) {
      EXPECT_EQ(i, begin + seen);
      ++seen;
    });
    EXPECT_EQ(seen, end - begin);
    covered = end;
  }
  EXPECT_EQ(covered, trace.size());
}

// --- parallel == serial for the migrated analyses --------------------------

TEST(ParallelAnalysisTest, StormPipelineIdenticalAt1_2_8Threads) {
  const auto plan = make_storm_plan(6, 40, /*seed=*/21);
  const auto rec = replay::record(6, storm_body(plan));
  ASSERT_TRUE(rec.result.completed);
  const auto serial = run_pipeline(rec.trace.store(), 1);
  EXPECT_FALSE(serial.match.matches.empty());
  expect_pipelines_equal(serial, run_pipeline(rec.trace.store(), 2));
  expect_pipelines_equal(serial, run_pipeline(rec.trace.store(), 8));
}

TEST(ParallelAnalysisTest, DeadlockRingPipelineIdenticalAt1_2_8Threads) {
  constexpr int kRanks = 6;
  fault::FaultEngine engine(fault::FaultPlan::named("deadlock_ring",
                                                    /*seed=*/3),
                            kRanks);
  replay::RecordOptions options;
  options.fault_engine = &engine;
  const auto rec = replay::record(kRanks, ring_body(kRanks), options);
  ASSERT_FALSE(rec.trace.empty());
  const auto serial = run_pipeline(rec.trace.store(), 1);
  // The held message leaves unmatched traffic — the interesting case
  // for the canonicalized unmatched lists.
  EXPECT_FALSE(serial.match.unmatched_sends.empty() &&
               serial.match.unmatched_recvs.empty());
  expect_pipelines_equal(serial, run_pipeline(rec.trace.store(), 2));
  expect_pipelines_equal(serial, run_pipeline(rec.trace.store(), 8));
}

TEST(ParallelAnalysisTest, SegmentedStoreIdenticalToInMemory) {
  const auto plan = make_storm_plan(6, 40, /*seed=*/33);
  const auto rec = replay::record(6, storm_body(plan));
  ASSERT_TRUE(rec.result.completed);

  TempTraceFile file;
  trace::write_trace(file.path(), rec.trace, trace::TraceFormat::kBinary,
                     /*segment_events=*/64);
  trace::TraceOpenOptions open_options;
  open_options.cache_segments = 3;  // force eviction traffic under load
  const auto lazy = trace::open_trace(file.path(), open_options);
  ASSERT_TRUE(lazy.is_lazy());
  ASSERT_GT(lazy.segment_count(), 4u);

  const auto baseline = run_pipeline(rec.trace.store(), 1);
  expect_pipelines_equal(baseline, run_pipeline(lazy.store(), 1));
  expect_pipelines_equal(baseline, run_pipeline(lazy.store(), 8));
}

// --- segmented store under concurrency -------------------------------------

TEST(SegmentedStoreConcurrency, ConcurrentReadersSeeIdenticalHistory) {
  const auto plan = make_storm_plan(4, 60, /*seed=*/5);
  const auto rec = replay::record(4, storm_body(plan));
  ASSERT_TRUE(rec.result.completed);

  // Checksum of the full stream, computed serially as ground truth.
  const auto checksum = [&](const trace::Trace& t) {
    std::uint64_t acc = 0;
    t.for_each_event([&](std::size_t i, const trace::Event& e) {
      acc = acc * 1315423911u + i + static_cast<std::uint64_t>(e.kind) +
            static_cast<std::uint64_t>(e.marker);
    });
    return acc;
  };
  const std::uint64_t expected = checksum(rec.trace);

  for (const auto format :
       {trace::TraceFormat::kBinary, trace::TraceFormat::kBinaryV3}) {
    SCOPED_TRACE(format == trace::TraceFormat::kBinary ? "v2" : "v3");
    TempTraceFile file;
    trace::write_trace(file.path(), rec.trace, format,
                       /*segment_events=*/128);
    trace::TraceOpenOptions open_options;
    open_options.cache_segments = 2;  // tiny cache: constant eviction
    const auto lazy = trace::open_trace(file.path(), open_options);
    ASSERT_TRUE(lazy.is_lazy());

    // 8 raw threads hammer the same store: full scans, column-pruned
    // segment scans, and random point reads, against a 2-segment cache.
    // On v3 the uncached block reads of the scans race the cache loads
    // of the point reads.  TSan-clean and every reader sees the same
    // bytes.
    constexpr int kReaders = 8;
    std::vector<std::uint64_t> sums(kReaders, 0);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        auto& sum = sums[static_cast<std::size_t>(t)];
        sum = checksum(lazy);
        support::SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        for (int k = 0; k < 200; ++k) {
          const auto i = static_cast<std::size_t>(
              rng.next_below(static_cast<std::uint64_t>(lazy.size())));
          const auto a = lazy.event(i);
          const auto b = rec.trace.event(i);
          if (a.marker != b.marker || a.kind != b.kind) {
            sum = 0;  // poison -> test fails
          }
          const auto seg = static_cast<std::size_t>(rng.next_below(
              static_cast<std::uint64_t>(lazy.segment_count())));
          lazy.for_each_in_segment_cols(
              seg, trace::kColKind | trace::kColMarker,
              [&](std::size_t j, const trace::Event& e) {
                const auto want = rec.trace.event(j);
                if (e.marker != want.marker || e.kind != want.kind) sum = 0;
              });
        }
      });
    }
    for (auto& r : readers) r.join();
    for (int t = 0; t < kReaders; ++t) EXPECT_EQ(sums[t], expected) << t;
  }
}

}  // namespace
}  // namespace tdbg
