#include "replay/breakpoints.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace tdbg::replay {

BreakpointControl::BreakpointControl(int num_ranks)
    : states_(static_cast<std::size_t>(num_ranks)) {
  TDBG_CHECK(num_ranks > 0, "breakpoint control needs at least one rank");
}

void BreakpointControl::attach(mpi::WaitRegistry& registry) {
  std::lock_guard lk(mu_);
  registry_ = &registry;
}

namespace {

bool message_break_matches(const MessageBreak& spec, trace::EventKind kind,
                           const instr::EventDetail& detail) {
  const bool is_send = kind == trace::EventKind::kSend;
  const bool is_recv = kind == trace::EventKind::kRecv;
  if (!is_send && !is_recv) return false;
  if (is_send && !spec.on_send) return false;
  if (is_recv && !spec.on_recv) return false;
  if (spec.peer != mpi::kAnySource && detail.peer != spec.peer) return false;
  if (spec.tag != mpi::kAnyTag && detail.tag != spec.tag) return false;
  return true;
}

}  // namespace

std::optional<std::string> BreakpointControl::should_stop(
    RankState& s, std::uint64_t marker, trace::ConstructId construct,
    trace::EventKind kind, int depth, bool threshold_hit,
    const instr::EventDetail& detail) const {
  // Watch probes run at every event so their "last value" state tracks
  // execution even when another condition stops first.
  std::optional<std::string> tripped_watch;
  for (const auto& w : s.watches) {
    if (w.changed() && !tripped_watch) tripped_watch = w.name;
  }
  if (tripped_watch) return tripped_watch;

  for (const auto& mb : s.message_breaks) {
    if (message_break_matches(mb, kind, detail)) return std::string{};
  }

  if (threshold_hit) return std::string{};  // UserMonitor threshold (§2.2)
  // ">=": a marker armed at-or-below the current counter still stops at
  // the next event, so a slightly stale stopline parks the rank instead
  // of letting it run away.
  if (s.marker != instr::kNoThreshold && marker >= s.marker) {
    return std::string{};
  }
  if (s.step) return std::string{};
  if (s.step_depth && depth <= *s.step_depth) return std::string{};
  if (std::find(s.constructs.begin(), s.constructs.end(), construct) !=
      s.constructs.end()) {
    return std::string{};
  }
  return std::nullopt;
}

void BreakpointControl::at_event(mpi::Rank rank, std::uint64_t marker,
                                 trace::ConstructId construct,
                                 trace::EventKind kind, int depth,
                                 bool threshold_hit,
                                 const instr::EventDetail& detail) {
  std::unique_lock lk(mu_);
  auto& s = states_.at(static_cast<std::size_t>(rank));
  const auto stop_reason =
      should_stop(s, marker, construct, kind, depth, threshold_hit, detail);
  if (!stop_reason) return;

  // One-shot conditions clear on hit; markers and construct
  // breakpoints stay armed until disarmed.
  s.step = false;
  s.step_depth.reset();

  TDBG_CHECK(registry_ != nullptr, "breakpoint control has no registry");
  s.stopped = true;
  s.stop = StopInfo{rank, marker, construct, kind, depth, *stop_reason};
  registry_->enter_wait(rank, mpi::WaitKind::kStopped);
  // `stopped` is set only here, by this rank; `resume` clears it.
  rank_cv_.wait(lk, [&] { return !s.stopped; });
}

void BreakpointControl::arm_marker(mpi::Rank rank, std::uint64_t marker) {
  std::lock_guard lk(mu_);
  states_.at(static_cast<std::size_t>(rank)).marker = marker;
}

void BreakpointControl::arm_step(mpi::Rank rank) {
  std::lock_guard lk(mu_);
  auto& s = states_.at(static_cast<std::size_t>(rank));
  // Stepping consumes the marker threshold: with the ">=" stop rule an
  // already-passed stopline marker would otherwise re-trigger at every
  // event and turn step-over into step.
  s.marker = instr::kNoThreshold;
  s.step = true;
}

void BreakpointControl::arm_step_depth(mpi::Rank rank, int max_depth) {
  std::lock_guard lk(mu_);
  auto& s = states_.at(static_cast<std::size_t>(rank));
  s.marker = instr::kNoThreshold;
  s.step_depth = max_depth;
}

void BreakpointControl::arm_construct(mpi::Rank rank,
                                      trace::ConstructId construct) {
  std::lock_guard lk(mu_);
  states_.at(static_cast<std::size_t>(rank)).constructs.push_back(construct);
}

void BreakpointControl::arm_watch(mpi::Rank rank, WatchProbe probe) {
  std::lock_guard lk(mu_);
  states_.at(static_cast<std::size_t>(rank)).watches.push_back(
      std::move(probe));
}

void BreakpointControl::arm_message(mpi::Rank rank, MessageBreak spec) {
  std::lock_guard lk(mu_);
  states_.at(static_cast<std::size_t>(rank)).message_breaks.push_back(spec);
}

void BreakpointControl::disarm(mpi::Rank rank) {
  std::lock_guard lk(mu_);
  auto& s = states_.at(static_cast<std::size_t>(rank));
  s.marker = instr::kNoThreshold;
  s.step = false;
  s.step_depth.reset();
  s.constructs.clear();
  s.watches.clear();
  s.message_breaks.clear();
}

void BreakpointControl::resume_locked(mpi::Rank rank) {
  auto& s = states_.at(static_cast<std::size_t>(rank));
  if (!s.stopped) return;
  // Clear `stopped` and the registry entry here, not in the waking rank
  // thread: a driver that resumes and immediately waits again must not
  // observe the stale stop.
  s.stopped = false;
  registry_->wake(rank, mpi::WaitKind::kStopped);
}

void BreakpointControl::resume(mpi::Rank rank) {
  std::lock_guard lk(mu_);
  resume_locked(rank);
  rank_cv_.notify_all();
}

void BreakpointControl::resume_all() {
  std::lock_guard lk(mu_);
  for (mpi::Rank r = 0; r < static_cast<mpi::Rank>(states_.size()); ++r) {
    resume_locked(r);
  }
  rank_cv_.notify_all();
}

std::optional<StopInfo> BreakpointControl::stopped_at(mpi::Rank rank) const {
  std::lock_guard lk(mu_);
  const auto& s = states_.at(static_cast<std::size_t>(rank));
  if (!s.stopped) return std::nullopt;
  return s.stop;
}

}  // namespace tdbg::replay
