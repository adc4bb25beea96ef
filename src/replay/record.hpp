#pragma once

#include <memory>

#include "instrument/session.hpp"
#include "mpi/runtime.hpp"
#include "replay/match_log.hpp"
#include "telemetry/health.hpp"
#include "trace/trace.hpp"

/// \file record.hpp
/// The recorded-run driver: runs a target program with the full
/// instrumentation stack installed (session + match recorder) and
/// returns everything the trace-driven debugging features need — the
/// trace, the match log, and the run outcome.

namespace tdbg::fault {
class FaultEngine;
}

namespace tdbg::replay {

/// Configuration of a recorded run.
struct RecordOptions {
  /// Which record kinds the session collects.
  instr::SessionOptions session;

  /// Collect an in-memory trace (disable for overhead measurements
  /// where only markers should run).
  bool collect_trace = true;

  /// Optional fault engine: its hooks are installed first on the
  /// fanout (an injected crash unwinds before the call is observed)
  /// and its injector is threaded to the runtime, so the recorded
  /// trace carries the kFaultInjected records alongside the history
  /// they perturbed.
  fault::FaultEngine* fault_engine = nullptr;

  /// Forwarded to the runtime (hooks/controller fields are owned by
  /// the recorder and overwritten).
  mpi::RunOptions run;

  /// Run a health heartbeat alongside the recording: per-rank marker /
  /// mailbox-depth / trace-backlog samples into an `obs::MetricsSeries`
  /// and stall flags.  The monitor is stopped
  /// before `record` returns; its last snapshot stays readable through
  /// `RecordedRun::health` (the debugger's `health` command).
  bool monitor_health = true;

  /// Heartbeat cadence and stall threshold (tests shorten these).
  telemetry::HealthOptions health;
};

/// Everything a recorded run produces.
struct RecordedRun {
  mpi::RunResult result;  ///< outcome (completed / deadlocked / failed)
  trace::Trace trace;     ///< execution history (empty if not collected)
  MatchLog log;           ///< receive-match log for replay

  /// Stopped heartbeat monitor (null when `monitor_health` was off);
  /// `health->report()` is the post-run per-rank health picture.
  std::shared_ptr<telemetry::HealthMonitor> health;
};

/// Runs `body` on `num_ranks` ranks with recording installed.
RecordedRun record(int num_ranks, const mpi::RankBody& body,
                   const RecordOptions& options = {});

}  // namespace tdbg::replay
