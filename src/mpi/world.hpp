#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "mpi/fault_injector.hpp"
#include "mpi/hooks.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/match_controller.hpp"

namespace tdbg::mpi {

/// Why a run was aborted.
enum class AbortCause : std::uint8_t {
  kNone,
  kDeadlock,     ///< no rank running or stopped, and some rank parked
  kRankFailure,  ///< a rank body threw
  kExternal,     ///< Runtime caller requested abort
};

/// Details of an abort, including the wait snapshot taken at the
/// moment of the abort (this is what Figure 5's "who is blocked on
/// whom" view is built from).
struct AbortInfo {
  AbortCause cause = AbortCause::kNone;
  std::string detail;
  std::vector<WaitInfo> waits;
};

/// Shared state for one run: the mailboxes, the wait registry, the
/// installed hooks and match controller.  Owned by `Runtime::run`;
/// ranks hold a pointer through their `Comm`.
class World {
 public:
  World(int size, ProfilingHooks* hooks, MatchController* controller,
        FaultInjector* fault_injector = nullptr);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return size_; }

  [[nodiscard]] Mailbox& mailbox(Rank rank) {
    return *mailboxes_.at(static_cast<std::size_t>(rank));
  }

  [[nodiscard]] const Mailbox& mailbox(Rank rank) const {
    return *mailboxes_.at(static_cast<std::size_t>(rank));
  }

  [[nodiscard]] ProfilingHooks* hooks() const { return hooks_; }
  [[nodiscard]] MatchController* controller() const { return controller_; }
  [[nodiscard]] FaultInjector* fault_injector() const {
    return fault_injector_;
  }
  [[nodiscard]] MailboxShared& shared() { return shared_; }
  [[nodiscard]] const MailboxShared& shared() const { return shared_; }

  /// Aborts the run: records the cause (first abort wins), snapshots
  /// the wait registry, sets the abort flag, and wakes every blocked
  /// rank.  Safe to call from any thread, idempotent.
  void abort(AbortCause cause, std::string detail);

  /// Valid after the run stops; cause `kNone` if never aborted.
  [[nodiscard]] const AbortInfo& abort_info() const { return abort_; }

  /// Allocates a block of `count` fresh communicator contexts (used by
  /// `split`; contexts isolate subcommunicator traffic in tag space).
  int allocate_contexts(int count) {
    return next_context_.fetch_add(count, std::memory_order_relaxed);
  }

 private:
  int size_;
  ProfilingHooks* hooks_;
  MatchController* controller_;
  FaultInjector* fault_injector_;
  MailboxShared shared_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex abort_mu_;
  AbortInfo abort_;
  std::atomic<int> next_context_{0};
};

}  // namespace tdbg::mpi
