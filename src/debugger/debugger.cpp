#include "debugger/debugger.hpp"

#include <cstring>

#include "support/error.hpp"
#include "telemetry/span.hpp"

namespace tdbg::dbg {

Debugger::Debugger(int num_ranks, mpi::RankBody body, DebuggerOptions options)
    : num_ranks_(num_ranks), body_(std::move(body)),
      options_(std::move(options)) {
  TDBG_CHECK(num_ranks > 0, "debugger needs at least one rank");
}

Debugger::~Debugger() = default;

Debugger Debugger::from_trace(trace::Trace trace) {
  TDBG_CHECK(trace.num_ranks() > 0, "post-mortem trace is empty");
  Debugger dbg(trace.num_ranks(), mpi::RankBody{},
               DebuggerOptions{});
  dbg.recorded_ = true;
  dbg.recorded_run_.trace = std::move(trace);
  dbg.recorded_run_.result.completed = true;  // outcome unknown; assume done
  return dbg;
}

std::vector<replay::StopInfo> Debugger::launch(
    const replay::Stopline& stopline) {
  TDBG_CHECK(!recorded_ && !live_, "session already has a history");
  TDBG_CHECK(can_replay(), "post-mortem session has no target to run");
  live_ = true;
  telemetry::Span span("debugger.replay");
  active_ = std::make_unique<replay::ReplaySession>(
      num_ranks_, body_, replay::MatchLog{}, options_.session,
      /*collect_trace=*/true, /*record_matches=*/true);
  return active_->run_to(stopline);
}

void Debugger::set_fault_plan(fault::FaultPlan plan) {
  TDBG_CHECK(!recorded_ && !live_,
             "fault plan must be armed before record()/launch()");
  fault_plan_ = std::move(plan);
}

const mpi::RunResult& Debugger::record() {
  TDBG_CHECK(!recorded_ && !live_, "record() may only run once per session");
  TDBG_CHECK(can_replay(), "post-mortem session has no target to run");
  replay::RecordOptions rec_options;
  rec_options.session = options_.session;
  if (fault_plan_) {
    fault_engine_ =
        std::make_unique<fault::FaultEngine>(*fault_plan_, num_ranks_);
    rec_options.fault_engine = fault_engine_.get();
  }
  recorded_run_ = replay::record(num_ranks_, body_, rec_options);
  recorded_ = true;
  return recorded_run_.result;
}

const trace::Trace& Debugger::trace() const {
  TDBG_CHECK(recorded_, "call record() first");
  return recorded_run_.trace;
}

analysis::Session& Debugger::session() const {
  TDBG_CHECK(recorded_, "call record() first");
  if (!session_) {
    telemetry::Span span("debugger.analysis");
    session_ = std::make_unique<analysis::Session>(recorded_run_.trace);
  }
  return *session_;
}

const causality::CausalOrder& Debugger::order() {
  return session().causal_order();
}

const mpi::RunResult& Debugger::run_result() const {
  TDBG_CHECK(recorded_, "call record() first");
  return recorded_run_.result;
}

viz::TimeSpaceDiagram Debugger::diagram(viz::DiagramOptions options) const {
  // Share the session's matching: the diagram draws the message lines
  // without running its own pairing.
  if (options.matches == nullptr) options.matches = &session().match_report();
  return viz::TimeSpaceDiagram(trace(), options);
}

const graph::CallGraph& Debugger::call_graph(
    std::optional<mpi::Rank> rank) const {
  return session().call_graph(rank);
}

const graph::CommGraph& Debugger::comm_graph() const {
  return session().comm_graph();
}

const graph::TraceGraph& Debugger::trace_graph(std::size_t merge_limit) const {
  return session().trace_graph(merge_limit);
}

const graph::ActionGraph& Debugger::action_graph() const {
  return session().action_graph();
}

std::vector<ProcessGroup> Debugger::process_groups(
    GroupingLevel level) const {
  return group_processes(trace(), session().action_graph(), level);
}

const analysis::TrafficReport& Debugger::traffic() const {
  return session().traffic();
}

analysis::DeadlockReport Debugger::deadlock_report() const {
  TDBG_CHECK(recorded_, "call record() first");
  return analysis::explain_deadlock(recorded_run_.result.final_waits);
}

const analysis::RaceReport& Debugger::races() { return session().races(); }

replay::Stopline Debugger::stopline_at(support::TimeNs t) const {
  return replay::stopline_at_time(trace(), session().match_report(),
                                  session().rank_index(),
                                  session().event_columns(), t);
}

replay::Stopline Debugger::stopline_past_frontier(std::size_t event) {
  return replay::stopline_past_frontier(order(), event);
}

replay::Stopline Debugger::stopline_future_frontier(std::size_t event) {
  return replay::stopline_future_frontier(order(), event);
}

replay::Stopline Debugger::current_markers() const {
  replay::Stopline line;
  line.thresholds.resize(static_cast<std::size_t>(num_ranks_));
  if (active_ == nullptr) return line;
  for (mpi::Rank r = 0; r < num_ranks_; ++r) {
    if (const auto stop = active_->control().stopped_at(r)) {
      line.thresholds[static_cast<std::size_t>(r)] = stop->marker;
    }
    // Finished or free-running ranks get no threshold: an undo to
    // this state lets them run to completion again.
  }
  return line;
}

std::vector<replay::StopInfo> Debugger::replay_to(
    const replay::Stopline& stopline) {
  TDBG_CHECK(recorded_ || live_, "call record() or launch() first");
  TDBG_CHECK(can_replay(), "post-mortem session cannot re-execute");
  telemetry::Span span("debugger.replay");
  if (active_ != nullptr) {
    // Resuming an existing replay: remember where we are for undo
    // (§4.2 — "every time a target process stops, p2d2 records its
    // execution marker").
    undo_stack_.push_back(current_markers());
  } else {
    active_ = std::make_unique<replay::ReplaySession>(
        num_ranks_, body_, recorded_run_.log, options_.session);
  }
  return active_->run_to(stopline);
}

std::optional<replay::StopInfo> Debugger::step(mpi::Rank rank) {
  TDBG_CHECK(active_ != nullptr, "no active replay");
  undo_stack_.push_back(current_markers());
  return active_->step(rank);
}

std::optional<replay::StopInfo> Debugger::step_over(mpi::Rank rank) {
  TDBG_CHECK(active_ != nullptr, "no active replay");
  const auto stop = active_->control().stopped_at(rank);
  TDBG_CHECK(stop.has_value(), "step_over needs a stopped rank");
  undo_stack_.push_back(current_markers());
  return active_->step_to_depth(rank, stop->depth);
}

void Debugger::watch(mpi::Rank rank, const std::string& variable) {
  TDBG_CHECK(active_ != nullptr, "watch needs an active replay");
  instr::Session* session = &active_->session();
  replay::WatchProbe probe;
  probe.name = variable;
  probe.changed = [session, rank, variable, last = std::vector<std::byte>{},
                   primed = false]() mutable {
    const auto view = session->variable(rank, variable);
    if (view.address == nullptr || view.bytes == 0) return false;
    std::vector<std::byte> current(view.bytes);
    std::memcpy(current.data(), view.address, view.bytes);
    if (!primed) {
      primed = true;
      last = std::move(current);
      return false;
    }
    if (current != last) {
      last = std::move(current);
      return true;
    }
    return false;
  };
  active_->control().arm_watch(rank, std::move(probe));
}

void Debugger::break_on_message(mpi::Rank rank,
                                const replay::MessageBreak& spec) {
  TDBG_CHECK(active_ != nullptr, "break_on_message needs an active replay");
  active_->control().arm_message(rank, spec);
}

std::optional<replay::StopInfo> Debugger::continue_rank(mpi::Rank rank) {
  TDBG_CHECK(active_ != nullptr, "no active replay");
  undo_stack_.push_back(current_markers());
  return active_->continue_rank(rank);
}

std::optional<std::vector<replay::StopInfo>> Debugger::undo() {
  if (undo_stack_.empty()) return std::nullopt;
  const auto target = undo_stack_.back();
  undo_stack_.pop_back();

  // Discard the current (re-)execution and replay afresh to the saved
  // markers.  For a live run the partial match log recorded so far
  // forces the prefix we are rolling back over — §4.2's "information
  // available in the program trace" — and the new run keeps recording
  // so the session stays live.
  replay::MatchLog log =
      live_ && active_ != nullptr ? active_->match_log() : recorded_run_.log;
  if (active_ != nullptr) {
    active_->finish();
    active_.reset();
  }
  active_ = std::make_unique<replay::ReplaySession>(
      num_ranks_, body_, std::move(log), options_.session,
      /*collect_trace=*/live_, /*record_matches=*/live_);
  return active_->run_to(target);
}

std::optional<mpi::RunResult> Debugger::end_replay() {
  if (active_ == nullptr) return std::nullopt;
  const auto result = active_->finish();
  if (live_) {
    // The live run just completed: its history becomes the session's
    // recorded run, unlocking the replay-based features.
    recorded_run_.result = result;
    recorded_run_.trace = active_->trace();
    recorded_run_.log = active_->match_log();
    recorded_ = true;
    live_ = false;
    // A session analyzes one fixed trace: the next analysis builds a
    // fresh one over the completed history.
    session_.reset();
  }
  active_.reset();
  undo_stack_.clear();
  return result;
}

instr::Session* Debugger::replay_session() {
  return active_ == nullptr ? nullptr : &active_->session();
}

}  // namespace tdbg::dbg
