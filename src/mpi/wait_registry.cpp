#include "mpi/wait_registry.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace tdbg::mpi {

WaitRegistry::WaitRegistry(int world_size)
    : states_(static_cast<std::size_t>(world_size)),
      running_(world_size),
      ssend_slots_(static_cast<std::size_t>(world_size)) {
  for (int r = 0; r < world_size; ++r) {
    states_[static_cast<std::size_t>(r)].rank = r;
  }
}

void WaitRegistry::enter_wait(Rank rank, WaitKind kind, Rank peer, Tag tag) {
  std::lock_guard lk(mu_);
  enter_locked(rank, kind, peer, tag);
}

void WaitRegistry::enter_locked(Rank rank, WaitKind kind, Rank peer, Tag tag) {
  auto& s = states_.at(static_cast<std::size_t>(rank));
  TDBG_CHECK(s.kind == WaitKind::kNone && kind != WaitKind::kNone,
             "only a running rank can enter a wait");
  s.kind = kind;
  s.peer = peer;
  s.tag = tag;
  if (--running_ == 0) idle_cv_.notify_all();
}

void WaitRegistry::wake(Rank rank, WaitKind kind) {
  std::lock_guard lk(mu_);
  wake_locked(rank, kind);
}

void WaitRegistry::wake_locked(Rank rank, WaitKind kind) {
  auto& s = states_.at(static_cast<std::size_t>(rank));
  if (s.kind != kind) return;
  s = WaitInfo{rank};
  ++running_;
}

void WaitRegistry::enter_ssend_wait(Rank rank, Rank dest, Tag tag,
                                    std::uint64_t ticket) {
  std::lock_guard lk(mu_);
  if (ssend_matched(rank, ticket)) return;
  enter_locked(rank, WaitKind::kSsend, dest, tag);
}

void WaitRegistry::complete_ssend(Rank sender, std::uint64_t ticket) {
  std::lock_guard lk(mu_);
  ssend_slots_.at(static_cast<std::size_t>(sender))
      .matched.store(ticket, std::memory_order_release);
  wake_locked(sender, WaitKind::kSsend);
}

std::vector<WaitInfo> WaitRegistry::wait_idle(bool settled) const {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [&] {
    return running_ == 0 &&
           (!settled || std::none_of(states_.begin(), states_.end(),
                                     [](const WaitInfo& w) {
                                       return w.kind == WaitKind::kStopped;
                                     }));
  });
  return states_;
}

std::vector<WaitInfo> WaitRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  return states_;
}

}  // namespace tdbg::mpi
