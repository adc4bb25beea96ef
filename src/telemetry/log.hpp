#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/clock.hpp"

/// \file log.hpp
/// Structured logging + the flight recorder — the "black box" every
/// run carries.  `TDBG_LOG(level, "site", a0, a1)` writes one
/// fixed-size record (calibrated-TSC timestamp, rank, severity, an
/// interned site id, and two u64 arguments) into a per-rank lock-free
/// ring buffer.  The rings are always on: when a run crashes or the
/// runtime declares deadlock, the last records explain what the
/// *system* — runtime, fault engine, debugger — was doing in the
/// moments before, and the debugger's `flightrec` command dumps them
/// on demand.
///
/// Design constraints (mirroring `obs::metrics.hpp`):
///
///  1. A *suppressed* log statement costs one relaxed atomic load
///     (asserted by `bench/abl_telemetry_overhead`).
///  2. Writers never block and never allocate: a record is one
///     fetch_add to claim a slot plus five relaxed word stores and a
///     release publish.  Concurrent writers on the same ring (the
///     no-rank ring collects driver/runtime/flusher threads) claim
///     disjoint slots.
///  3. Readers (`dump`) are safe against concurrent writers: each
///     slot is a seqlock over atomic words — invalidate, fence,
///     payload, publish — so a torn read is detected and skipped, and
///     ThreadSanitizer sees only atomic accesses.

namespace tdbg::telemetry {

/// Record severities.  The recorder keeps records at or above its
/// minimum level; `set_min_level(LogLevel::kOff)` suppresses
/// everything (the measured disabled path).
enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 255,
};

std::string_view log_level_name(LogLevel level);

/// Interns a site name (the log message / span name), returning a
/// stable process-wide id.  Repeated calls with the same name return
/// the same id.  Takes a mutex — call sites cache the id in a
/// function-local static (the `TDBG_LOG` macro does this).
std::uint32_t intern_site(std::string_view name);

/// The name behind an interned id ("?" for an unknown id).
std::string site_name(std::uint32_t id);

/// Binds the calling thread to a rank for attribution (the mini-MPI
/// runtime binds each rank thread; unbound threads report rank -1 and
/// share the no-rank ring).
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

/// One decoded flight-recorder record.
struct LogRecord {
  std::uint64_t seq = 0;      ///< global claim order within its ring
  support::TimeNs t = 0;      ///< run-relative time (`run_time_ns`)
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint32_t site = 0;
  int rank = -1;
  LogLevel level = LogLevel::kInfo;
};

/// Fixed-capacity per-rank ring buffers of structured records; the
/// oldest records are overwritten once a ring is full, so the recorder
/// always holds the *last* window of activity.
class FlightRecorder {
 public:
  /// \param capacity records per ring (rounded up to a power of two)
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder `TDBG_LOG` writes to.
  static FlightRecorder& global();

  /// True when records at `level` are currently kept.  One relaxed
  /// load — the whole cost of a suppressed `TDBG_LOG`.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return static_cast<std::uint8_t>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<std::uint8_t>(level),
                     std::memory_order_relaxed);
  }

  /// Appends one record to the calling thread's rank ring.  Wait-free.
  void log(LogLevel level, std::uint32_t site, std::uint64_t a0 = 0,
           std::uint64_t a1 = 0);

  /// As `log`, with an explicit rank (for threads acting on behalf of
  /// a rank they are not bound to).
  void log_rank(int rank, LogLevel level, std::uint32_t site,
                std::uint64_t a0 = 0, std::uint64_t a1 = 0);

  /// Snapshot of every ring's live records, merged and sorted by
  /// time.  Safe against concurrent writers (torn slots are skipped).
  [[nodiscard]] std::vector<LogRecord> dump() const;

  /// `dump()` rendered as text, one record per line, oldest first.
  /// With `max_records`, only the newest that many lines.
  [[nodiscard]] std::string dump_text(std::size_t max_records = 0) const;

  /// Records accepted since construction (including overwritten).
  [[nodiscard]] std::uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Rings: slot 0 collects unbound threads; ranks fold modulo like
  /// the obs per-rank cells.
  static constexpr std::size_t kRings = 33;

 private:
  /// Words per record slot: stamp + time + a0 + a1 + packed
  /// site/rank/level.
  static constexpr std::size_t kSlotWords = 5;

  struct alignas(64) Ring {
    std::atomic<std::uint64_t> cursor{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  static std::size_t ring_of(int rank) {
    return rank < 0 ? 0 : 1 + static_cast<std::size_t>(rank) % (kRings - 1);
  }

  std::size_t capacity_;  ///< power of two
  std::atomic<std::uint8_t> min_level_{
      static_cast<std::uint8_t>(LogLevel::kDebug)};
  std::atomic<std::uint64_t> appended_{0};
  std::array<Ring, kRings> rings_;
};

}  // namespace tdbg::telemetry

/// Logs one structured record to the global flight recorder.  The
/// site string is interned once per call site; a suppressed level
/// costs a single relaxed load.  Up to two u64 arguments ride along:
///
///   TDBG_LOG(tdbg::telemetry::LogLevel::kWarn, "mpi.abort", rank);
#define TDBG_LOG(level, site, ...)                                          \
  do {                                                                      \
    auto& tdbg_log_rec_ = ::tdbg::telemetry::FlightRecorder::global();      \
    if (tdbg_log_rec_.enabled(level)) {                                     \
      static const std::uint32_t tdbg_log_site_ =                           \
          ::tdbg::telemetry::intern_site(site);                             \
      tdbg_log_rec_.log((level), tdbg_log_site_ __VA_OPT__(, ) __VA_ARGS__); \
    }                                                                       \
  } while (0)
