#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace tdbg::testing {

/// Threads that spin until destroyed, so the ranks of a run compete for
/// CPUs: a rank that has been woken can then sit unscheduled for a
/// while, and a receiver can be preempted part-way through a drain.
class BusyThreads {
 public:
  explicit BusyThreads(int count) {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }

  ~BusyThreads() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }

  BusyThreads(const BusyThreads&) = delete;
  BusyThreads& operator=(const BusyThreads&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace tdbg::testing
