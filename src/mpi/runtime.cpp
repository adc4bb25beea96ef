#include "mpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>

#include "support/clock.hpp"
#include "support/error.hpp"
#include "telemetry/log.hpp"

namespace tdbg::mpi {

namespace {

thread_local Rank tl_rank = -1;

/// Scope guard for the thread-local rank — also binds the telemetry
/// layer's rank, so flight-recorder records and self-spans written on
/// this thread attribute to the rank.
class RankScope {
 public:
  explicit RankScope(Rank rank) {
    tl_rank = rank;
    telemetry::set_thread_rank(rank);
  }
  ~RankScope() {
    tl_rank = -1;
    telemetry::set_thread_rank(-1);
  }
};

std::string describe_waits(const std::vector<WaitInfo>& waits) {
  std::ostringstream os;
  bool first = true;
  for (const auto& w : waits) {
    if (w.kind != WaitKind::kRecv && w.kind != WaitKind::kSsend) continue;
    if (!first) os << "; ";
    first = false;
    os << "rank " << w.rank
       << (w.kind == WaitKind::kRecv ? " blocked in recv(src=" :
                                       " blocked in ssend(dst=");
    if (w.peer == kAnySource) {
      os << "ANY";
    } else {
      os << w.peer;
    }
    os << ", tag=";
    if (w.tag == kAnyTag) {
      os << "ANY";
    } else {
      os << w.tag;
    }
    os << ")";
  }
  return os.str();
}

}  // namespace

Rank this_rank() { return tl_rank; }

RunResult run(int num_ranks, const RankBody& body, const RunOptions& options) {
  TDBG_CHECK(num_ranks > 0, "need at least one rank");
  TDBG_CHECK(static_cast<bool>(body), "rank body must be callable");

  support::reset_run_epoch();
  const auto world_ptr =
      std::make_shared<World>(num_ranks, options.hooks, options.controller,
                              options.fault_injector);
  World& world = *world_ptr;
  if (options.on_world_ready) options.on_world_ready(world_ptr);

  std::mutex failures_mu;
  std::vector<RankFailure> failures;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (Rank r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&, r] {
      RankScope scope(r);
      Comm comm(&world, r);
      if (options.hooks != nullptr) options.hooks->on_rank_start(r);
      std::optional<std::string> failure;
      try {
        body(comm);
      } catch (const Aborted&) {
        // Unwound by an abort elsewhere; not a failure of this rank.
      } catch (const std::exception& e) {
        TDBG_LOG(telemetry::LogLevel::kError, "mpi.rank_failed",
                 static_cast<std::uint64_t>(r));
        failure = e.what();
        std::lock_guard lk(failures_mu);
        failures.push_back(RankFailure{r, *failure});
      }
      if (options.hooks != nullptr) options.hooks->on_rank_finish(r);
      // Finished only after the hooks, which may still deliver (the
      // fault engine releases held messages in on_rank_finish).  A
      // failure is recorded first, so the ranks left waiting on this
      // one do not read as deadlocked, and the abort comes after, so
      // the final wait snapshot lists this rank as finished.
      world.shared().registry.enter_wait(r, WaitKind::kFinished);
      if (failure) {
        world.abort(AbortCause::kRankFailure,
                    "rank " + std::to_string(r) + " failed: " + *failure);
      }
    });
  }

  // Exact deadlock detection, on this otherwise idle thread: wait until
  // no rank is running or stopped at a breakpoint.  If some rank is
  // then parked in recv or ssend and no rank failed, nothing can ever
  // wake it.
  const auto waits = world.shared().registry.wait_idle(/*settled=*/true);
  const auto blocked = std::count_if(waits.begin(), waits.end(), [](auto& w) {
    return w.kind == WaitKind::kRecv || w.kind == WaitKind::kSsend;
  });
  const bool any_failed = [&] {
    std::lock_guard lk(failures_mu);
    return !failures.empty();
  }();
  if (blocked > 0 && !any_failed) {
    TDBG_LOG(telemetry::LogLevel::kError, "mpi.watchdog.deadlock",
             static_cast<std::uint64_t>(blocked));
    world.abort(AbortCause::kDeadlock, "deadlock: " + describe_waits(waits));
  }
  for (auto& t : threads) t.join();

  RunResult result;
  result.failures = std::move(failures);
  const AbortInfo& abort = world.abort_info();
  result.deadlocked = abort.cause == AbortCause::kDeadlock;
  result.completed = abort.cause == AbortCause::kNone && result.failures.empty();
  result.final_waits = abort.waits;
  result.abort_detail = abort.detail;
  return result;
}

}  // namespace tdbg::mpi
