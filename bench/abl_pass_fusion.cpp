// Ablation — pass fusion (google-benchmark).
//
// PR 8 replaces per-consumer trace scans with one shared-artifact
// `analysis::Session`: a single fused segment sweep extracts, in one
// decode of the trace, everything matching, the rank index, traffic,
// the comm graph, and the race pools previously gathered in separate
// full scans.  (The downstream pairings work from the channel
// records; they never rescanned the trace before the refactor, so
// they sit outside the comparison.)
//
//   BM_FusedSweep          `compute_sweep`: one pass, all extracts
//   BM_NScanBaseline       the pre-refactor shape: five independent
//                          full scans, each decoding every event to
//                          extract one consumer's records
//
// Before any timing, main() enforces the fusion gate on best-of-5
// process-CPU-time measurements (exit 1 on failure): the fused sweep
// must be >= 2x cheaper than the N-scan baseline.
//
// Run: bench/abl_pass_fusion --benchmark_filter='^$' checks the gate
// alone; without the filter it also times both benchmarks.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <ctime>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "analysis/pass.hpp"
#include "support/executor.hpp"
#include "trace/store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace tdbg;

constexpr std::size_t kEvents = 1u << 21;  // ~2.1M events
constexpr int kRanks = 8;
constexpr std::size_t kWildcards = 256;

struct BenchData {
  std::filesystem::path v2;  // the segmented on-disk form

  BenchData() {
    auto registry = std::make_shared<trace::ConstructRegistry>();
    const auto c_work = registry->intern("work", "bench.cpp", 1);
    const auto c_msg = registry->intern("msg", "bench.cpp", 2);

    // Same workload shape as abl_parallel_analysis: every send paired
    // with a seq-stamped receive so matching, traffic, and the comm
    // graph do full-size work; a bounded number of wildcard receives
    // keep the race pools realistic.
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
      if (std::uniform_int_distribution<int>(0, 9)(rng) == 0) {
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
    v2 = std::filesystem::temp_directory_path() /
         ("tdbg_bench_fusion_" + std::to_string(::getpid()) + ".trc");
    trace::write_trace(v2, trace::Trace(kRanks, std::move(events), registry));
  }

  ~BenchData() { std::filesystem::remove(v2); }

  /// The fusion comparison runs on the segmented store with a small
  /// cache, where every extra scan pays real segment decode — the
  /// deployment the fused sweep exists for.
  [[nodiscard]] trace::Trace lazy() const {
    trace::TraceOpenOptions options;
    options.cache_segments = 4;
    return trace::open_trace(v2, options);
  }
};

BenchData& data() {
  static BenchData d;
  return d;
}

/// Process CPU time (all threads) in seconds — the work metric the
/// gate reads, insensitive to how either side schedules its threads.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The fused sweep: one decode of every event, all extracts at once.
std::size_t fused_sweep(const trace::Trace& trace) {
  const auto sweep = analysis::compute_sweep(trace);
  return sweep.num_events;
}

using ChannelKey = std::pair<mpi::Rank, mpi::Rank>;

/// The pre-refactor shape: each consumer ran its own full scan over
/// the trace, decoding every event to extract only its records.  Five
/// scans — matching, rank index, traffic, comm graph, race pools —
/// each the direct analogue of what the corresponding pass gathered
/// before fusion.
std::size_t nscan_baseline(const trace::Trace& trace) {
  std::size_t sink = 0;

  {  // Matching: per-channel send records and receive seqs.
    std::map<ChannelKey, std::vector<std::array<std::uint64_t, 3>>> sends;
    std::map<ChannelKey, std::vector<std::pair<mpi::ChannelSeq, std::size_t>>>
        recvs;
    trace.for_each_event([&](std::size_t i, const trace::Event& e) {
      if (e.kind == trace::EventKind::kSend) {
        sends[{e.rank, e.peer}].push_back(
            {e.marker, static_cast<std::uint64_t>(e.t_start), i});
      } else if (e.kind == trace::EventKind::kRecv) {
        recvs[{e.peer, e.rank}].push_back({e.channel_seq, i});
      }
    });
    sink += sends.size() + recvs.size();
  }

  {  // Rank index: per-rank program-order lists.
    std::vector<std::vector<std::size_t>> order(
        static_cast<std::size_t>(trace.num_ranks()));
    trace.for_each_event([&](std::size_t i, const trace::Event& e) {
      order[static_cast<std::size_t>(e.rank)].push_back(i);
    });
    sink += order[0].size();
  }

  {  // Traffic: per-channel message and byte accounting.
    std::map<ChannelKey, std::pair<std::uint64_t, std::uint64_t>> channels;
    trace.for_each_event([&](std::size_t, const trace::Event& e) {
      if (!e.is_message()) return;
      auto& [count, bytes] =
          channels[e.kind == trace::EventKind::kSend
                       ? ChannelKey{e.rank, e.peer}
                       : ChannelKey{e.peer, e.rank}];
      ++count;
      bytes += e.bytes;
    });
    sink += channels.size();
  }

  {  // Comm graph: per-rank message endpoints in program order.
    std::vector<std::vector<std::pair<std::size_t, bool>>> endpoints(
        static_cast<std::size_t>(trace.num_ranks()));
    trace.for_each_event([&](std::size_t i, const trace::Event& e) {
      if (e.is_message()) {
        endpoints[static_cast<std::size_t>(e.rank)].push_back(
            {i, e.kind == trace::EventKind::kSend});
      }
    });
    sink += endpoints[0].size();
  }

  {  // Race pools: wildcard receives plus every candidate send.
    std::vector<std::size_t> wild;
    std::vector<std::size_t> candidates;
    trace.for_each_event([&](std::size_t i, const trace::Event& e) {
      if (e.kind == trace::EventKind::kRecv && e.wildcard) {
        wild.push_back(i);
      } else if (e.kind == trace::EventKind::kSend) {
        candidates.push_back(i);
      }
    });
    sink += wild.size() + candidates.size();
  }

  return sink;
}

void BM_FusedSweep(benchmark::State& state) {
  exec::ScopedExecutor pool(4);
  const auto trace = data().lazy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused_sweep(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_FusedSweep)->Unit(benchmark::kMillisecond);

void BM_NScanBaseline(benchmark::State& state) {
  exec::ScopedExecutor pool(4);
  const auto trace = data().lazy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nscan_baseline(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_NScanBaseline)->Unit(benchmark::kMillisecond);

/// Fused sweep >= 2x cheaper than N scans, in CPU time, best of 5.
bool verify_fusion_gate() {
  exec::ScopedExecutor pool(4);
  const auto trace = data().lazy();
  auto best_cpu = [&](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const double c0 = cpu_now();
      benchmark::DoNotOptimize(fn(trace));
      best = std::min(best, cpu_now() - c0);
    }
    return best;
  };
  const double fused = best_cpu(fused_sweep);
  const double nscan = best_cpu(nscan_baseline);
  const double ratio = nscan / fused;
  std::fprintf(stderr,
               "fusion: fused sweep %.1f ms cpu, N-scan baseline %.1f ms "
               "cpu -> %.2fx\n",
               fused * 1e3, nscan * 1e3, ratio);
  if (ratio < 2.0) {
    std::fprintf(stderr, "FAIL: pass fusion below the 2x cpu-time gate\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!verify_fusion_gate()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
