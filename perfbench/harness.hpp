#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

/// \file harness.hpp
/// Shared machinery of the end-to-end benchmark: arguments, probes
/// (wall, CPU, heap, peak RSS), the benchmark-side span recorder,
/// the seeded synthetic trace generator, and the result line.
///
/// Every number is taken from outside the program: the benchmark wraps
/// its own calls into each layer's public functions and reads the
/// existing `obs` counters around them.  Nothing under `src/` knows it
/// is being measured.

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< per-layer (traced) run instead of end-to-end
  bool tiny = false;   ///< test-sized inputs
  /// Test hook: "digest" flips a byte of every computed artifact
  /// digest, "response" flips a byte of every served payload, so the
  /// correctness checks can be shown to fail.
  std::string corrupt;
  std::filesystem::path workdir;
};

/// Analysis pool size: the host's hardware threads, at most 4.
[[nodiscard]] std::size_t pool_threads();

// --- Probes ----------------------------------------------------------------

/// CPU time of the whole process (every thread), in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();
/// Heap bytes in use (malloc'd and not yet freed).  A pass's growth in
/// this is the memory it retains; its resident-set growth reads ~0 in a
/// warmed process, because freed pages stay resident for reuse.
[[nodiscard]] std::int64_t heap_bytes();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

// --- Spans -------------------------------------------------------------

/// One call into a layer, as seen by the benchmark.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;        ///< process CPU time over the span
  std::int64_t heap_delta = 0;    ///< change in heap bytes in use
  int parent = -1;                ///< enclosing span on the same thread
  int thread = 0;                 ///< small id of the recording thread
};

/// Keeps spans in memory and writes them out once, at exit, as a
/// Chrome trace.  Disabled, `span()` only runs the call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Switches recording off (or back on) for the calls that follow,
  /// so a traced run can time untraced iterations too.
  void set_active(bool active) { active_ = enabled_ && active; }

  /// Runs `f()` inside a span named `name` and returns its result.
  template <typename F>
  decltype(auto) span(std::string_view name, F&& f) {
    if (!active_) return f();
    Scope scope(*this, name);
    return f();
  }

  /// The recorded spans, in opening order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes the spans and `counters` as Chrome-trace JSON.
  void write(const std::filesystem::path& path,
             const std::vector<std::pair<std::string, double>>& counters)
      const;

 private:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
    int outer_;
  };

  bool enabled_;
  bool active_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Per-name summaries of closed spans.
struct SpanStats {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> heap_growth_mib;
};
[[nodiscard]] std::map<std::string, SpanStats> summarize(
    const std::vector<Span>& spans);

/// Sum of the layer spans' self time over the duration of the
/// end-to-end spans that enclose them: the share of end-to-end time
/// the layers account for.
[[nodiscard]] double layer_coverage(const std::vector<Span>& spans);

// --- Statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (p in (0, 100]); with fewer than 100
/// samples p99 is the slowest one.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// --- Inputs ------------------------------------------------------------

/// A seeded synthetic history with the shape of the parallel-analysis
/// bench: random interleaving of per-rank streams, 10% of steps a
/// matched send/receive pair on a random channel, and every
/// `wildcard_every`-th receive a wildcard.  The race pass costs
/// wildcards x sends, so a fixed stride (not a random draw) keeps its
/// work the same from seed to seed.
struct SynthTrace {
  tdbg::trace::Trace trace;
  std::size_t sends = 0;
};
[[nodiscard]] SynthTrace synth_trace(std::uint64_t seed, std::size_t events,
                                     int ranks, std::size_t wildcard_every);

/// FNV-1a over bytes.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ull);

// --- Result ------------------------------------------------------------

/// The result line: correctness counts and named metrics.
class Result {
 public:
  /// Counts one operation; a false `ok` counts it failed and logs
  /// `what` to stderr (the first few times).
  void check(bool ok, std::string_view what);
  /// Counts operations checked elsewhere; `what` names the first
  /// failure.
  void count(std::uint64_t attempted, std::uint64_t failed,
             std::string_view what);
  void metric(const std::string& name, double value, std::string unit);

  /// One JSON object on one line.
  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// What a workload measured for the end-to-end metrics.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> answer_ms;        ///< one per operation answered
  std::vector<double> first_answer_ms;  ///< one per first answer
  double throughput_per_s = 0;
  double trace_bytes_per_event = 0;
};

/// Emits every end-to-end metric: medians of the samples and the
/// process's peak resident set.
void emit_end_to_end(const EndToEnd& e2e, Result& result);

// --- Workloads ---------------------------------------------------------

void run_record(const Args& args, Result& result);
void run_postmortem(const Args& args, bool in_memory, Result& result);
void run_serve(const Args& args, Result& result);

/// Runs `set_up` three times and returns the last inputs with the
/// median set-up time in seconds: set-up is short and mostly serial,
/// so one sample is at the mercy of a single busy core.
template <typename SetUp>
auto timed_set_up(SetUp&& set_up) {
  std::vector<double> times;
  std::optional<decltype(set_up())> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.reset();
    const auto t0 = Clock::now();
    inputs.emplace(set_up());
    times.push_back(seconds_since(t0));
  }
  return std::pair(std::move(*inputs), median(times));
}

}  // namespace perfbench
