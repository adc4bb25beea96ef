#include "replay/record.hpp"

#include <sstream>

#include "fault/engine.hpp"
#include "mpi/world.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_hooks.hpp"
#include "telemetry/span.hpp"
#include "trace/collector.hpp"

namespace tdbg::replay {

namespace {

/// Maps one rank's wait-registry entry plus live queue depths to a
/// health sample.  Runs on the heartbeat thread; everything it reads
/// is an atomic or a mutex-guarded snapshot.
telemetry::HealthSample probe_rank(const mpi::World& world,
                                   const instr::Session& session,
                                   const trace::TraceCollector* collector,
                                   int rank) {
  telemetry::HealthSample s;
  s.marker = session.counter(rank);
  s.mailbox_depth = world.mailbox(rank).queued_count(/*user_only=*/true);
  if (collector != nullptr) {
    s.trace_backlog = collector->rank_buffered_count(rank);
  }
  for (const auto& w : world.shared().registry.snapshot()) {
    if (w.rank != rank) continue;
    switch (w.kind) {
      case mpi::WaitKind::kNone:
        s.state = telemetry::HealthSample::State::kRunning;
        break;
      case mpi::WaitKind::kFinished:
        s.state = telemetry::HealthSample::State::kFinished;
        break;
      case mpi::WaitKind::kStopped:
        s.state = telemetry::HealthSample::State::kBlocked;
        s.detail = "stopped at a breakpoint";
        break;
      case mpi::WaitKind::kRecv:
      case mpi::WaitKind::kSsend: {
        s.state = telemetry::HealthSample::State::kBlocked;
        std::ostringstream os;
        os << (w.kind == mpi::WaitKind::kRecv ? "recv <- " : "ssend -> ");
        if (w.peer == mpi::kAnySource) {
          os << "any";
        } else {
          os << "rank " << w.peer;
        }
        if (w.tag != mpi::kAnyTag) os << " tag " << w.tag;
        s.detail = os.str();
        break;
      }
    }
    break;
  }
  return s;
}

}  // namespace

RecordedRun record(int num_ranks, const mpi::RankBody& body,
                   const RecordOptions& options) {
  auto& registry = obs::MetricsRegistry::global();
  obs::ScopedTimer record_timer(
      registry.histogram("replay.record_ns", obs::Unit::kNanoseconds),
      /*rank=*/-1);
  // One recording = one self-profile: earlier spans belong to a
  // previous session and would double-expose in the Chrome trace.
  telemetry::SpanCollector::global().reset();
  telemetry::Span record_span("debugger.record");
  std::unique_ptr<trace::TraceCollector> collector;
  if (options.collect_trace) {
    collector = std::make_unique<trace::TraceCollector>(
        num_ranks, instr::global_constructs());
  }
  instr::Session session(num_ranks, collector.get(), options.session);
  MatchRecorder recorder(num_ranks);
  // Fault hooks (if any) first: an injected crash must unwind before
  // the call is observed by anything.  Then metrics: begin-side runs
  // before, end-side after, every other hook, so its timing windows
  // bracket the whole instrumented call.
  obs::MetricsHooks metrics_hooks;
  mpi::HookFanout hooks;
  if (options.fault_engine != nullptr) hooks.add(options.fault_engine->hooks());
  hooks.add(&metrics_hooks);
  hooks.add(&session);
  hooks.add(&recorder);

  mpi::RunOptions run_options = options.run;
  run_options.hooks = &hooks;
  run_options.controller = nullptr;
  if (options.fault_engine != nullptr) {
    run_options.fault_injector = options.fault_engine;
  }

  // The heartbeat needs the live world (wait registry, mailboxes),
  // which only exists inside `mpi::run` — so the monitor starts from
  // the world-ready callback and is stopped (thread joined, probe
  // retired) before the session and collector it samples go away.
  RecordedRun out;
  std::shared_ptr<telemetry::HealthMonitor> monitor;
  auto world_slot = std::make_shared<std::shared_ptr<mpi::World>>();
  if (options.monitor_health) {
    const instr::Session* session_ptr = &session;
    const trace::TraceCollector* collector_ptr = collector.get();
    monitor = std::make_shared<telemetry::HealthMonitor>(
        num_ranks,
        [world_slot, session_ptr, collector_ptr](int rank) {
          return probe_rank(**world_slot, *session_ptr, collector_ptr, rank);
        },
        options.health);
    const auto user_ready = run_options.on_world_ready;
    run_options.on_world_ready =
        [world_slot, monitor,
         user_ready](std::shared_ptr<mpi::World> world) {
          *world_slot = std::move(world);
          monitor->start();
          if (user_ready) user_ready((*world_slot));
        };
  }

  out.result = mpi::run(num_ranks, body, run_options);
  if (monitor != nullptr) {
    monitor->stop();
    world_slot->reset();  // release the world with the run, not later
    out.health = std::move(monitor);
  }
  if (collector != nullptr) out.trace = collector->build_trace();
  out.log = recorder.take_log();
  return out;
}

}  // namespace tdbg::replay
