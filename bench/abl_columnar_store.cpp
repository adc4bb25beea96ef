// abl_columnar_store — the PR-10 TraceStore v3 ablation and gate.
//
// Builds one ~2.1M-event synthetic workload (same shape as
// abl_pass_fusion: paired sends/receives, computes, bounded
// wildcards), writes it as v2 row segments and v3 column blocks, and
// — before any timing — verifies that every analysis artifact
// (matching, traffic, comm graph, races) computed over the v3 file is
// byte-identical to the v2 file.  Then measures, best-of-5, fresh
// open per repetition:
//
//   size          on-disk bytes, v3 / v2
//   full sweep    cold open + decode of every event, wall and
//                 process-CPU time
//
// and ASSERTS the acceptance gates (exit 1 on any miss):
//
//   v3 size   <= 0.35x v2
//   sweep     >= 2x faster than v2 (wall AND cpu)
//
// scripts/verify.sh runs it; BENCH_pr10_columnar.json keeps the
// numbers measured when the v3 format was added.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "graph/export.hpp"
#include "support/clock.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace tdbg;

constexpr int kRanks = 8;
constexpr std::size_t kWildcards = 256;

std::vector<trace::Event> build_events(
    std::size_t target, const std::shared_ptr<trace::ConstructRegistry>& reg) {
  const auto c_work = reg->intern("work", "bench.cpp", 1);
  const auto c_msg = reg->intern("msg", "bench.cpp", 2);
  std::mt19937 rng(20260809);
  std::vector<std::uint64_t> marker(kRanks, 0);
  std::vector<support::TimeNs> clock(kRanks, 0);
  std::vector<std::vector<mpi::ChannelSeq>> chan_seq(
      kRanks, std::vector<mpi::ChannelSeq>(kRanks, 0));
  std::size_t wild = 0;
  std::vector<trace::Event> events;
  events.reserve(target + 1);
  auto advance = [&](int r, trace::Event& e) {
    e.rank = static_cast<mpi::Rank>(r);
    e.marker = ++marker[static_cast<std::size_t>(r)];
    e.t_start = clock[static_cast<std::size_t>(r)];
    clock[static_cast<std::size_t>(r)] +=
        std::uniform_int_distribution<support::TimeNs>(1, 20)(rng);
    e.t_end = clock[static_cast<std::size_t>(r)];
  };
  while (events.size() < target) {
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
  return events;
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

trace::Trace open_cold(const std::filesystem::path& path) {
  trace::TraceOpenOptions options;
  options.cache_segments = 4;
  return trace::open_trace(path, options);
}

/// Cold full sweep: decode every event once, touching every field.
std::uint64_t full_sweep(const std::filesystem::path& path) {
  const auto t = open_cold(path);
  std::uint64_t sink = 0;
  t.for_each_event([&](std::size_t, const trace::Event& e) {
    sink += static_cast<std::uint64_t>(e.rank) + e.marker + e.bytes +
            static_cast<std::uint64_t>(e.t_end - e.t_start) +
            static_cast<std::uint64_t>(e.kind);
  });
  return sink;
}

struct Timed {
  double wall_ms = 0;
  double cpu_ms = 0;
};

template <typename Fn>
Timed best_of(int reps, std::uint64_t expect, const Fn& fn) {
  Timed best{1e300, 1e300};
  for (int i = 0; i < reps; ++i) {
    const support::Stopwatch wall;
    const double c0 = cpu_now();
    const auto sink = fn();
    const double cpu = (cpu_now() - c0) * 1e3;
    const double ms = wall.elapsed_s() * 1e3;
    if (sink != expect) {
      std::fprintf(stderr, "columnar: result drift (%llu != %llu)\n",
                   static_cast<unsigned long long>(sink),
                   static_cast<unsigned long long>(expect));
      std::exit(1);
    }
    best.wall_ms = std::min(best.wall_ms, ms);
    best.cpu_ms = std::min(best.cpu_ms, cpu);
  }
  return best;
}

/// Every analysis artifact, canonically stringified.
std::string artifact_digest(const trace::Trace& t) {
  analysis::Session session(t);
  std::string d;
  const auto& report = session.match_report();
  for (const auto& m : report.matches) {
    d += std::to_string(m.send_index) + ">" + std::to_string(m.recv_index) +
         ";";
  }
  for (const auto i : report.unmatched_sends) d += "s" + std::to_string(i);
  for (const auto i : report.unmatched_recvs) d += "r" + std::to_string(i);
  d += session.traffic().to_string();
  d += graph::to_dot(session.comm_graph().to_export());
  for (const auto& race : session.races().races) {
    d += std::to_string(race.recv_index) + ":" +
         std::to_string(race.candidates.size()) + ";";
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = 1u << 21;  // ~2.1M
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) events = std::stoull(argv[++i]);
    if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("tdbg_bench_columnar_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto v2 = dir / "t.v2.trc";
  const auto v3 = dir / "t.v3.trc";

  auto registry = std::make_shared<trace::ConstructRegistry>();
  {
    const trace::Trace full(kRanks, build_events(events, registry), registry);
    events = full.size();
    trace::write_trace(v2, full, trace::TraceFormat::kBinary);
    trace::write_trace(v3, full, trace::TraceFormat::kBinaryV3);
  }

  // Gate 0 (before any timing): artifacts over v3 == artifacts over
  // v2, byte for byte.
  if (artifact_digest(open_cold(v2)) != artifact_digest(open_cold(v3))) {
    std::fprintf(stderr,
                 "columnar: GATE FAIL — analysis artifacts differ "
                 "between v2 and v3\n");
    std::filesystem::remove_all(dir);
    return 1;
  }
  std::fprintf(stderr,
               "columnar: artifacts byte-identical across v2/v3 "
               "(%zu events)\n",
               events);

  const auto v2_bytes = std::filesystem::file_size(v2);
  const auto v3_bytes = std::filesystem::file_size(v3);
  const double size_ratio =
      static_cast<double>(v3_bytes) / static_cast<double>(v2_bytes);
  std::fprintf(stderr,
               "columnar: size v2 %llu bytes, v3 %llu bytes -> %.3fx "
               "(gate <= 0.35x)\n",
               static_cast<unsigned long long>(v2_bytes),
               static_cast<unsigned long long>(v3_bytes), size_ratio);

  const auto sweep_ref = full_sweep(v2);
  const auto sweep_v2 = best_of(reps, sweep_ref, [&] { return full_sweep(v2); });
  const auto sweep_v3 = best_of(reps, sweep_ref, [&] { return full_sweep(v3); });
  const double sweep_wall_x = sweep_v2.wall_ms / sweep_v3.wall_ms;
  const double sweep_cpu_x = sweep_v2.cpu_ms / sweep_v3.cpu_ms;
  std::fprintf(stderr,
               "columnar: cold full sweep v2 %.2f ms wall / %.2f ms cpu, "
               "v3 %.2f ms wall / %.2f ms cpu -> %.2fx wall, %.2fx cpu "
               "(gate >= 2x)\n",
               sweep_v2.wall_ms, sweep_v2.cpu_ms, sweep_v3.wall_ms,
               sweep_v3.cpu_ms, sweep_wall_x, sweep_cpu_x);

  std::filesystem::remove_all(dir);

  bool ok = true;
  if (size_ratio > 0.35) {
    std::fprintf(stderr, "columnar: GATE FAIL — v3 size %.3fx > 0.35x v2\n",
                 size_ratio);
    ok = false;
  }
  if (sweep_wall_x < 2.0 || sweep_cpu_x < 2.0) {
    std::fprintf(stderr,
                 "columnar: GATE FAIL — cold sweep %.2fx wall / %.2fx cpu "
                 "< 2x\n",
                 sweep_wall_x, sweep_cpu_x);
    ok = false;
  }
  return ok ? 0 : 1;
}
