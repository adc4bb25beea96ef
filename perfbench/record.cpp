// Workload `record`: a recorded run of the LU SSOR wavefront on a 2x2
// grid, written as a v3 file, then reopened for the first answer.  It
// exercises the mpi runtime, instrumentation, the trace collector and
// the v3 encoder; the only analysis is the match report that checks
// the recorded file.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "analysis/session.hpp"
#include "apps/lu.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "mpi/runtime.hpp"
#include "replay/record.hpp"
#include "support/executor.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using namespace tdbg;

namespace {

constexpr int kRanks = 4;  // the 2x2 process grid

apps::lu::Options lu_options(const Args& args) {
  apps::lu::Options o;
  o.px = 2;
  o.py = 2;
  o.nx = 8;
  o.ny = 8;
  o.iterations = args.tiny ? 200 : 25'000;  // ~1.0M events
  o.seed = args.seed;
  return o;
}

/// Run options of every LU run.  The runtime's deadlock watchdog aborts
/// after three 2 ms samples without progress; on a loaded host a rank
/// that was sent its message but not yet scheduled can sit that long,
/// and the deadlock-free LU run gets aborted.  Sampling every 50 ms
/// keeps the watchdog as a safety net without false aborts.
mpi::RunOptions run_options() {
  mpi::RunOptions o;
  o.watchdog_interval = std::chrono::milliseconds(50);
  return o;
}

/// The LU body; stores the global checksum every rank returns.
mpi::RankBody lu_body(const apps::lu::Options& options,
                      std::atomic<double>& checksum) {
  return [&options, &checksum](mpi::Comm& comm) {
    const double v = apps::lu::rank_body(comm, options);
    if (comm.rank() == 0) checksum.store(v);
  };
}

struct Inputs {
  apps::lu::Options lu;
  double checksum = 0;  ///< of an unrecorded run
};

/// The reference output: the checksum of an uninstrumented run.
Inputs set_up(const Args& args) {
  Inputs in{lu_options(args), 0};
  std::atomic<double> checksum{0};
  const auto run = mpi::run(kRanks, lu_body(in.lu, checksum), run_options());
  if (!run.completed) {
    throw std::runtime_error("unrecorded LU run did not complete: " +
                             run.abort_detail);
  }
  in.checksum = checksum.load();
  return in;
}

struct Recorded {
  double record_ms = 0;  ///< record start -> v3 file finished
  double first_ms = 0;   ///< record start -> match report on the file
  bool completed = false;
  double checksum = 0;
  std::size_t events = 0;
  std::size_t reopened = 0;
  bool unmatched = false;
};

Recorded record_once(const Inputs& in, const std::filesystem::path& file,
                     Tracer& tr) {
  Recorded r;
  std::atomic<double> checksum{0};
  const auto body = lu_body(in.lu, checksum);
  replay::RecordedRun run;
  std::optional<trace::Trace> reopened;
  std::optional<analysis::Session> session;
  const auto t0 = Clock::now();
  tr.span("record.answer", [&] {
    run = tr.span(layer::kRecord, [&] {
      replay::RecordOptions options;
      options.run = run_options();
      return replay::record(kRanks, body, options);
    });
    tr.span(layer::kWrite, [&] {
      trace::write_trace(file, run.trace, trace::TraceFormat::kBinaryV3);
    });
    r.record_ms = seconds_since(t0) * 1e3;
    reopened.emplace(tr.span(layer::kOpen, [&] {
      return trace::open_trace(file);
    }));
    session.emplace(*reopened);
    tr.span(layer::kSweep, [&] { session->sweep(); });
    tr.span(layer::kMatch, [&] { session->match_report(); });
  });
  r.first_ms = seconds_since(t0) * 1e3;
  r.completed = run.result.completed;
  r.checksum = checksum.load();
  r.events = run.trace.size();
  r.reopened = reopened->size();
  const auto& report = session->match_report();
  r.unmatched =
      !report.unmatched_sends.empty() || !report.unmatched_recvs.empty();
  return r;
}

}  // namespace

void run_record(const Args& args, Result& result) {
  exec::ScopedExecutor pool(pool_threads());
  const auto inputs = timed_set_up([&] { return set_up(args); });
  const auto& in = inputs.first;
  const double setup_s = inputs.second;
  const auto file = args.workdir / "record.v3";

  Tracer tr(args.trace);
  LayerCounters counters;
  std::vector<double> record_ms, first_ms, traced, untraced;
  double events = 0;
  std::vector<std::vector<double>> deltas;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
    const bool traced_iteration = tr.enabled() && i % 2 == 0;
    tr.set_active(traced_iteration);
    if (traced_iteration) {
      // The uninstrumented base of replay.record_overhead_x.
      std::atomic<double> checksum{0};
      tr.span(layer::kMpiRun, [&] {
        return mpi::run(kRanks, lu_body(in.lu, checksum), run_options());
      });
    }
    const auto before = counters.read();
    const auto r = record_once(in, file, tr);
    if (traced_iteration) deltas.push_back(counters.since(before));
    result.check(r.completed, "recorded LU run did not complete");
    result.check(r.checksum == in.checksum,
                 "recorded LU checksum differs from the unrecorded run");
    result.check(r.reopened == r.events && !r.unmatched,
                 "reopened v3 file lost events or has unmatched messages");
    record_ms.push_back(r.record_ms);
    first_ms.push_back(r.first_ms);
    events = static_cast<double>(r.events);
    (i % 2 == 0 ? traced : untraced).push_back(r.record_ms);
  }
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(file));

  if (!args.trace) {
    emit_end_to_end({setup_s, record_ms, first_ms,
                     events / median(record_ms) * 1e3, file_bytes / events},
                    result);
    return;
  }
  auto values = counters.medians(deltas);
  values["trace.file_bytes"] = file_bytes;
  values["tracing.overhead_ms"] = median(traced) - median(untraced);
  emit_layers(args, tr, std::move(values), result);
}

}  // namespace perfbench
