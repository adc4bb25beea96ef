// Ablation — parallel analysis engine (google-benchmark).
//
// PR 7 moves the heavy trace analyses (message matching, traffic,
// races, causal order, communication graph) onto a work-stealing
// thread pool with a deterministic segment-ordered merge.  This bench
// quantifies the change on a >2M-event synthetic trace:
//
//   BM_MatchTraffic/N    match_report + analyze_traffic at N threads
//                        (the fully parallel phases)
//   BM_FullPipeline/N    the whole pipeline at N threads: matching,
//                        traffic, causal order, races, comm graph —
//                        includes the serial vector-clock propagation,
//                        so this is the end-to-end (Amdahl) number
//   BM_SegmentedScan     cold full scan of the on-disk v2 file
//
// Before any timing, main() verifies the determinism contract: the
// match report, traffic report, race list, and comm-graph DOT are
// byte-identical at 1, 2, 4, and 8 threads; any mismatch aborts with
// exit 1.  When the host has >= 8 hardware threads it then enforces
// the PR's gate — >= 3x speedup for the parallel phases at 8 threads —
// and otherwise prints a skip note.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/races.hpp"
#include "analysis/session.hpp"
#include "analysis/traffic.hpp"
#include "causality/causal_order.hpp"
#include "graph/comm_graph.hpp"
#include "graph/export.hpp"
#include "support/executor.hpp"
#include "trace/store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace tdbg;

constexpr std::size_t kEvents = 1u << 21;  // ~2.1M events
constexpr int kRanks = 8;
constexpr std::size_t kWildcards = 256;  // racy receives (bounded pairing)

struct BenchData {
  std::shared_ptr<const trace::TraceStore> store;
  std::filesystem::path v2;

  BenchData() {
    auto registry = std::make_shared<trace::ConstructRegistry>();
    const auto c_work = registry->intern("work", "bench.cpp", 1);
    const auto c_msg = registry->intern("msg", "bench.cpp", 2);

    // Random interleaving of per-rank streams.  Every send is paired
    // with a matching receive on the (src, dst) channel — the receive
    // carries the channel sequence number explicitly, exactly as the
    // recorder writes it — so the matcher, traffic analyzer, and comm
    // graph all do full-size work.  A bounded number of receives are
    // wildcards to give the race detector a realistic workload.
    std::mt19937 rng(20260809);
    std::vector<std::uint64_t> marker(kRanks, 0);
    std::vector<support::TimeNs> clock(kRanks, 0);
    std::vector<std::vector<mpi::ChannelSeq>> chan_seq(
        kRanks, std::vector<mpi::ChannelSeq>(kRanks, 0));
    std::size_t wild = 0;
    std::vector<trace::Event> events;
    events.reserve(kEvents + 1);
    auto advance = [&](int r, trace::Event& e) {
      e.rank = static_cast<mpi::Rank>(r);
      e.marker = ++marker[static_cast<std::size_t>(r)];
      e.t_start = clock[static_cast<std::size_t>(r)];
      clock[static_cast<std::size_t>(r)] +=
          std::uniform_int_distribution<support::TimeNs>(1, 20)(rng);
      e.t_end = clock[static_cast<std::size_t>(r)];
    };
    while (events.size() < kEvents) {
      const int r = std::uniform_int_distribution<int>(0, kRanks - 1)(rng);
      if (std::uniform_int_distribution<int>(0, 9) (rng) == 0) {
        const int dst =
            (r + 1 + std::uniform_int_distribution<int>(0, kRanks - 2)(rng)) %
            kRanks;
        const auto seq = chan_seq[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(dst)]++;
        trace::Event send;
        advance(r, send);
        send.kind = trace::EventKind::kSend;
        send.construct = c_msg;
        send.peer = static_cast<mpi::Rank>(dst);
        send.tag = 1;
        send.channel_seq = seq;
        send.bytes = 256;
        events.push_back(send);
        trace::Event recv;
        advance(dst, recv);
        recv.kind = trace::EventKind::kRecv;
        recv.construct = c_msg;
        recv.peer = static_cast<mpi::Rank>(r);
        recv.tag = 1;
        recv.channel_seq = seq;
        recv.bytes = 256;
        if (wild < kWildcards &&
            std::uniform_int_distribution<int>(0, 399)(rng) == 0) {
          recv.wildcard = true;
          ++wild;
        }
        events.push_back(recv);
      } else {
        trace::Event e;
        advance(r, e);
        e.kind = trace::EventKind::kCompute;
        e.construct = c_work;
        events.push_back(e);
      }
    }
    trace::Trace trace(kRanks, std::move(events), std::move(registry));
    store = trace.store();
    v2 = std::filesystem::temp_directory_path() /
         ("tdbg_bench_parallel_" + std::to_string(::getpid()) + ".trc");
    trace::write_trace(v2, trace);
  }

  ~BenchData() { std::filesystem::remove(v2); }
};

BenchData& data() {
  static BenchData d;
  return d;
}

/// The fully parallel phases, on a fresh facade (nothing memoized).
std::size_t match_traffic(
    const std::shared_ptr<const trace::TraceStore>& store) {
  const trace::Trace t(store);
  analysis::Session session(t);
  const auto& report = session.match_report();
  return report.matches.size() + session.traffic().to_string().size();
}

struct PipelineDigest {
  std::size_t matches = 0;
  std::vector<std::size_t> unmatched_sends;
  std::vector<std::size_t> unmatched_recvs;
  std::string traffic;
  std::vector<analysis::MessageRace> races;
  std::string comm_dot;
};

PipelineDigest full_pipeline(
    const std::shared_ptr<const trace::TraceStore>& store) {
  const trace::Trace t(store);
  analysis::Session session(t);
  PipelineDigest d;
  const auto& report = session.match_report();
  d.matches = report.matches.size();
  d.unmatched_sends = report.unmatched_sends;
  d.unmatched_recvs = report.unmatched_recvs;
  d.traffic = session.traffic().to_string();
  d.races = session.races().races;
  d.comm_dot = graph::to_dot(session.comm_graph().to_export());
  return d;
}

bool digests_equal(const PipelineDigest& a, const PipelineDigest& b) {
  if (a.matches != b.matches || a.unmatched_sends != b.unmatched_sends ||
      a.unmatched_recvs != b.unmatched_recvs || a.traffic != b.traffic ||
      a.comm_dot != b.comm_dot || a.races.size() != b.races.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.races.size(); ++i) {
    if (a.races[i].recv_index != b.races[i].recv_index ||
        a.races[i].matched_send != b.races[i].matched_send ||
        a.races[i].candidates != b.races[i].candidates) {
      return false;
    }
  }
  return true;
}

void BM_MatchTraffic(benchmark::State& state) {
  exec::ScopedExecutor pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(match_traffic(data().store));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_MatchTraffic)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  exec::ScopedExecutor pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(full_pipeline(data().store).matches);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SegmentedScan(benchmark::State& state) {
  exec::ScopedExecutor pool(4);
  trace::TraceOpenOptions options;
  options.cache_segments = 4;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    const auto t = trace::open_trace(data().v2, options);
    t.for_each_event(
        [&](std::size_t, const trace::Event& e) { sum += e.marker; });
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_SegmentedScan)->Unit(benchmark::kMillisecond);

/// Byte-identical across thread counts, or die.
bool verify_determinism() {
  PipelineDigest serial;
  {
    exec::ScopedExecutor pool(1);
    serial = full_pipeline(data().store);
  }
  for (const std::size_t n : {2u, 4u, 8u}) {
    exec::ScopedExecutor pool(n);
    if (!digests_equal(serial, full_pipeline(data().store))) {
      std::fprintf(stderr,
                   "FAIL: analysis reports differ at %zu threads vs serial\n",
                   n);
      return false;
    }
  }
  std::fprintf(stderr,
               "determinism: reports byte-identical at 1/2/4/8 threads "
               "(%zu matches)\n",
               serial.matches);
  return true;
}

/// The PR's speedup gate, self-contained: >= 3x for the parallel
/// phases at 8 threads, enforced only where 8 hardware threads exist.
bool verify_speedup() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 8) {
    std::fprintf(stderr,
                 "speedup gate skipped: %u hardware thread(s) < 8\n", hw);
    return true;
  }
  const auto time_at = [&](std::size_t threads) {
    exec::ScopedExecutor pool(threads);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(match_traffic(data().store));
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  const double serial = time_at(1);
  const double parallel = time_at(8);
  const double speedup = serial / parallel;
  std::fprintf(stderr, "speedup: %.2fx at 8 threads (%.1f ms -> %.1f ms)\n",
               speedup, serial * 1e3, parallel * 1e3);
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: below the 3x gate\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_determinism()) return 1;
  if (!verify_speedup()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
