#include "support/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "telemetry/log.hpp"
#include "telemetry/span.hpp"

namespace tdbg::exec {

namespace {

/// Which worker of which pool the current thread is (for own-queue
/// pops and steal accounting).  -1 on non-pool threads.
thread_local const Executor* t_pool = nullptr;
thread_local int t_worker = -1;

std::mutex g_exec_mu;
std::size_t g_default_threads = 0;  // 0 = not set, resolve from env/hw
std::unique_ptr<Executor> g_default;
Executor* g_current = nullptr;

std::size_t clamp_threads(std::size_t n) {
  return std::clamp<std::size_t>(n, 1, kMaxThreads);
}

}  // namespace

/// Registry handles resolved once per pool.  Looking these up in the
/// constructor also forces the metrics/telemetry singletons to exist
/// before any pool, so static destruction can never tear them down
/// while a worker is still running.
class Executor::MetricsRefs {
 public:
  MetricsRefs() {
    auto& reg = obs::MetricsRegistry::global();
    tasks = &reg.counter("exec.tasks");
    steals = &reg.counter("exec.steals");
    queue_depth = &reg.gauge("exec.queue_depth");
    threads = &reg.gauge("exec.threads");
    (void)telemetry::SpanCollector::global();
  }

  obs::Counter* tasks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* threads = nullptr;
};

Executor::Executor(std::size_t threads)
    : threads_(clamp_threads(threads)),
      metrics_(std::make_unique<MetricsRefs>()) {
  metrics_->threads->set(-1, threads_);
  const std::size_t workers = threads_ - 1;
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

Executor::~Executor() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard lk(wake_mu_);  // pair with the workers' wait
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Executor& Executor::global() {
  {
    std::lock_guard lk(g_exec_mu);
    if (g_current != nullptr) return *g_current;
  }
  // Resolve the size outside the lock: default_threads() takes
  // g_exec_mu itself.
  const std::size_t n = default_threads();
  std::lock_guard lk(g_exec_mu);
  if (g_current == nullptr) {
    if (!g_default) g_default = std::make_unique<Executor>(n);
    g_current = g_default.get();
  }
  return *g_current;
}

void Executor::set_default_threads(std::size_t n) {
  std::unique_ptr<Executor> retired;
  std::lock_guard lk(g_exec_mu);
  g_default_threads = clamp_threads(n);
  if (g_default && g_current == g_default.get()) g_current = nullptr;
  retired = std::move(g_default);  // destroyed after the lock scope
}

std::size_t Executor::default_threads() {
  {
    std::lock_guard lk(g_exec_mu);
    if (g_default_threads != 0) return g_default_threads;
  }
  if (const char* env = std::getenv("TDBG_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return clamp_threads(static_cast<std::size_t>(v));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, kDefaultThreadCap);
}

void Executor::worker_main(std::size_t id) {
  t_pool = this;
  t_worker = static_cast<int>(id);
  telemetry::set_thread_rank(kWorkerRankBase + static_cast<int>(id));
  for (;;) {
    if (auto task = try_pop()) {
      task();
      continue;
    }
    std::unique_lock lk(wake_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void Executor::push_task(std::function<void()> fn) {
  const std::size_t q =
      rr_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard lk(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(fn));
  }
  const auto depth = queued_.fetch_add(1, std::memory_order_release) + 1;
  metrics_->queue_depth->record_max(-1, depth);
  {
    // Empty critical section: a worker that saw queued_ == 0 is either
    // already inside wait() (the notify wakes it) or still holds
    // wake_mu_ (we serialize behind it and it re-checks).
    std::lock_guard lk(wake_mu_);
  }
  wake_cv_.notify_one();
}

std::function<void()> Executor::try_pop() {
  const int self = (t_pool == this) ? t_worker : -1;
  if (self >= 0) {
    auto& q = *queues_[static_cast<std::size_t>(self)];
    std::lock_guard lk(q.mu);
    if (!q.tasks.empty()) {
      auto fn = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return fn;
    }
  }
  const std::size_t nq = queues_.size();
  const std::size_t start = self >= 0 ? static_cast<std::size_t>(self) + 1 : 0;
  for (std::size_t k = 0; k < nq; ++k) {
    const std::size_t i = (start + k) % nq;
    if (self >= 0 && i == static_cast<std::size_t>(self)) continue;
    auto& q = *queues_[i];
    std::lock_guard lk(q.mu);
    if (q.tasks.empty()) continue;
    auto fn = std::move(q.tasks.back());
    q.tasks.pop_back();
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    metrics_->steals->add(-1);
    return fn;
  }
  return nullptr;
}

void Executor::parallel_for(std::size_t n, std::string_view site,
                            const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_ <= 1 || n <= 1 || queues_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  metrics_->tasks->add(-1, n);
  obs::MetricsRegistry::global()
      .counter("exec.tasks." + std::string(site))
      .add(-1, n);
  const std::uint32_t site_id = telemetry::intern_site(site);

  struct ForState {
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<ForState>();
  state->total = n;

  for (std::size_t i = 0; i < n; ++i) {
    push_task([state, site_id, &body, i] {
      {
        telemetry::Span span(site_id);
        try {
          body(i);
        } catch (...) {
          std::lock_guard lk(state->mu);
          if (!state->error) state->error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->total) {
        std::lock_guard lk(state->mu);  // pair with the caller's wait
        state->cv.notify_all();
      }
    });
  }

  // Drain alongside the workers instead of blocking: the tasks we pop
  // may belong to this loop or to a nested/concurrent one — either
  // way it is progress, and it is what makes nested parallel_for
  // deadlock-free.
  while (state->done.load(std::memory_order_acquire) < state->total) {
    if (auto task = try_pop()) {
      task();
      continue;
    }
    std::unique_lock lk(state->mu);
    // Bounded wait as a backstop; correctness comes from the
    // last-task notify under state->mu above.
    state->cv.wait_for(lk, std::chrono::milliseconds(5), [&] {
      return state->done.load(std::memory_order_acquire) >= state->total;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

ScopedExecutor::ScopedExecutor(std::size_t threads) : exec_(threads) {
  std::lock_guard lk(g_exec_mu);
  prev_ = g_current;
  g_current = &exec_;
}

ScopedExecutor::~ScopedExecutor() {
  std::lock_guard lk(g_exec_mu);
  g_current = prev_;
}

}  // namespace tdbg::exec
