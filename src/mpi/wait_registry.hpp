#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "mpi/types.hpp"

namespace tdbg::mpi {

/// What a rank is currently blocked on (if anything).
enum class WaitKind : std::uint8_t {
  kNone,      ///< running
  kRecv,      ///< parked in a receive or probe
  kSsend,     ///< parked in a synchronous send awaiting its match
  kStopped,   ///< stopped at a debugger breakpoint
  kFinished,  ///< rank body returned; will never send again
};

/// One rank's wait state.  `peer`/`tag` describe what it is waiting
/// for (requested source and tag for receives, destination for
/// ssends); wildcards appear as `kAnySource`/`kAnyTag`.
struct WaitInfo {
  Rank rank = 0;
  WaitKind kind = WaitKind::kNone;
  Rank peer = kAnySource;
  Tag tag = kAnyTag;
};

/// Every rank's wait state under one mutex: the one place that decides
/// whether any rank can still move.  Runtime deadlock detection and
/// every replay wait ask it, and the analysis module reads the final
/// snapshot to explain *who* was waiting on *whom* — the information
/// behind Figure 5 ("processes 0 and 7 are blocked in receives waiting
/// for data from each other").
///
/// Invariant: a rank enters an idle state only by itself, and leaves
/// one only when a running thread ends that wait here, naming it,
/// before it signals the wake-up: a sender delivering to a parked
/// receiver (`wake(r, kRecv)`), a receiver matching a parked ssend
/// (`complete_ssend`), the debugger resuming a stopped rank
/// (`wake(r, kStopped)`); a rank ends its own wait only on abort.  So
/// once no rank is running, none can run again until the debugger
/// resumes one: "no rank is running", read once under the mutex, is
/// exact.
class WaitRegistry {
 public:
  explicit WaitRegistry(int world_size);

  /// Marks the calling `rank`, which must be running, as idle in
  /// `kind` (anything but `kNone`; `kFinished` is final).
  void enter_wait(Rank rank, WaitKind kind, Rank peer = kAnySource,
                  Tag tag = kAnyTag);

  /// Marks `rank` running again if it is idle in `kind` (`kRecv`,
  /// `kSsend` or `kStopped`); a no-op in any other state, so a waker
  /// never ends a wait it did not mean to.
  void wake(Rank rank, WaitKind kind);

  /// The ssend rendezvous.  A rank has at most one ssend outstanding,
  /// numbered by `ticket` (1, 2, ... per rank).  The sender parks with
  /// `enter_ssend_wait`, unless its ticket is already matched; the
  /// receiver that matches it calls `complete_ssend`, which records
  /// the ticket and ends the sender's kSsend wait in one step, so the
  /// sender cannot see the match and enter a new wait in between.
  void enter_ssend_wait(Rank rank, Rank dest, Tag tag, std::uint64_t ticket);
  void complete_ssend(Rank sender, std::uint64_t ticket);

  /// Lock-free: has `sender`'s ssend `ticket` been matched?
  [[nodiscard]] bool ssend_matched(Rank sender, std::uint64_t ticket) const {
    return ssend_slots_[static_cast<std::size_t>(sender)].matched.load(
               std::memory_order_acquire) >= ticket;
  }

  /// Blocks until no rank is running and returns the states at that
  /// moment.  With `settled`, also waits until no rank is stopped at a
  /// breakpoint: every rank is then parked or finished for good.
  std::vector<WaitInfo> wait_idle(bool settled) const;

  /// Copy of the current per-rank wait states.
  [[nodiscard]] std::vector<WaitInfo> snapshot() const;

 private:
  /// A sender's highest matched ticket, written under `mu_`; padded so
  /// neighbouring ranks' slots don't share a cache line.
  struct alignas(64) SsendSlot {
    std::atomic<std::uint64_t> matched{0};
  };

  void enter_locked(Rank rank, WaitKind kind, Rank peer, Tag tag);
  void wake_locked(Rank rank, WaitKind kind);

  mutable std::mutex mu_;
  mutable std::condition_variable idle_cv_;  ///< signalled when running_ hits 0
  std::vector<WaitInfo> states_;
  int running_;  ///< ranks in kNone
  std::vector<SsendSlot> ssend_slots_;  ///< indexed by sender rank
};

}  // namespace tdbg::mpi
