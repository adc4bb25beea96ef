#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

/// \file executor.hpp
/// `tdbg::exec` — the analysis thread pool.
///
/// A fixed work-stealing pool, started lazily on first use and sized
/// by (in priority order) `--threads` / `Executor::set_default_threads`,
/// the `TDBG_THREADS` environment variable, and finally
/// `hardware_concurrency` (capped).  At one thread every entry point
/// degrades to inline execution on the calling thread — byte-for-byte
/// the pre-pool serial behavior, which is what the determinism
/// contract in DESIGN.md ("Parallel analysis") is anchored to.
///
/// Scheduling: one deque per worker; submissions are distributed
/// round-robin; a worker pops its own queue from the front and steals
/// from the back of its siblings.  `parallel_for` callers participate
/// in the draining loop instead of blocking, so a task that itself
/// calls `parallel_for` (nested parallelism) can never deadlock the
/// pool — somebody always makes progress on the remaining tasks.
///
/// Observability: every pool task runs inside a telemetry `Span`
/// tagged with the call site, so the Chrome-trace export shows
/// analysis parallelism as real worker tracks (worker threads bind
/// thread rank `kWorkerRankBase + id`).  The pool also maintains the
/// obs counters `exec.tasks` (and `exec.tasks.<site>` per phase),
/// `exec.steals`, and the gauges `exec.queue_depth` (high-water
/// mark) / `exec.threads`.

namespace tdbg::exec {

/// Telemetry thread-rank base for pool workers: worker `i` logs and
/// profiles as rank `kWorkerRankBase + i`, far above any real MPI
/// rank, so its spans land on their own Chrome-trace rows.
inline constexpr int kWorkerRankBase = 64;

/// Hard ceiling on configurable pool sizes.
inline constexpr std::size_t kMaxThreads = 64;

/// Cap applied to `hardware_concurrency` when no explicit size is
/// given: analysis segments are coarse, so more threads than this buy
/// nothing and cost startup.
inline constexpr std::size_t kDefaultThreadCap = 8;

/// A fixed-size work-stealing thread pool.
///
/// `threads` counts the *total* parallelism: the pool starts
/// `threads - 1` workers and the submitting thread works too.  With
/// `threads <= 1` no workers start and everything runs inline.
class Executor {
 public:
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool, created on first use with
  /// `default_threads()`.  `ScopedExecutor` temporarily replaces it.
  static Executor& global();

  /// Sets the size the next lazily-created global pool uses (clamped
  /// to [1, kMaxThreads]).  If the default global pool already exists
  /// it is torn down and rebuilt on next use — tools call this while
  /// single-threaded, before any analysis runs.
  static void set_default_threads(std::size_t n);

  /// The size `global()` would use right now: the
  /// `set_default_threads` value, else `TDBG_THREADS`, else
  /// `hardware_concurrency` capped at `kDefaultThreadCap`.
  [[nodiscard]] static std::size_t default_threads();

  /// Total parallelism (workers + caller).
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Runs `body(0) .. body(n-1)` across the pool and returns when all
  /// have finished.  The caller drains tasks too.  The first exception
  /// thrown by any body is rethrown here (the remaining tasks still
  /// run).  `site` names the phase for telemetry spans and the
  /// `exec.tasks.<site>` counter.  Inline (no pool, no spans) when the
  /// pool is serial or `n <= 1` — the exact serial code path.
  void parallel_for(std::size_t n, std::string_view site,
                    const std::function<void(std::size_t)>& body);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_main(std::size_t id);
  void push_task(std::function<void()> fn);
  /// Pops one task: own queue front first (workers), then steals from
  /// sibling queue backs.  Null when everything is empty.
  std::function<void()> try_pop();

  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> queued_{0};  ///< pushed, not yet claimed
  std::atomic<std::size_t> rr_{0};      ///< round-robin submit cursor

  // Cached instrument handles (registry lookups take a mutex).
  class MetricsRefs;
  std::unique_ptr<MetricsRefs> metrics_;
};

/// RAII replacement of the global pool — tests and benches use this to
/// compare the same computation at 1/2/8 threads.
class ScopedExecutor {
 public:
  explicit ScopedExecutor(std::size_t threads);
  ~ScopedExecutor();

  ScopedExecutor(const ScopedExecutor&) = delete;
  ScopedExecutor& operator=(const ScopedExecutor&) = delete;

  [[nodiscard]] Executor& get() { return exec_; }

 private:
  Executor exec_;
  Executor* prev_;
};

}  // namespace tdbg::exec
