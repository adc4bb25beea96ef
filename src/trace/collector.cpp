#include "trace/collector.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "telemetry/span.hpp"
#include "trace/trace_io.hpp"

namespace tdbg::trace {

namespace {

/// Collector-family instruments (interned once; see DESIGN.md
/// "Observability").  Appends are per-rank; flush timing is charged to
/// the flushing thread's rank slot via the driver slot (-1).
struct CollectorMetrics {
  obs::Counter& appended =
      obs::MetricsRegistry::global().counter("collector.events_appended");
  obs::Counter& dropped =
      obs::MetricsRegistry::global().counter("collector.events_dropped");
  obs::Counter& flushes =
      obs::MetricsRegistry::global().counter("collector.flushes");
  obs::Gauge& buffer_hwm =
      obs::MetricsRegistry::global().gauge("collector.buffer_hwm");
  obs::Histogram& flush_ns = obs::MetricsRegistry::global().histogram(
      "collector.flush_ns", obs::Unit::kNanoseconds);
};

CollectorMetrics& collector_metrics() {
  static CollectorMetrics metrics;
  return metrics;
}

}  // namespace

TraceCollector::TraceCollector(int num_ranks,
                               std::shared_ptr<ConstructRegistry> constructs)
    : num_ranks_(num_ranks), constructs_(std::move(constructs)) {
  TDBG_CHECK(num_ranks > 0, "collector needs at least one rank");
  if (constructs_ == nullptr) {
    constructs_ = std::make_shared<ConstructRegistry>();
  }
  buffers_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    buffers_.push_back(std::make_unique<RankBuffer>());
  }
  for (auto& flag : kind_enabled_) flag.store(true, std::memory_order_relaxed);
}

void TraceCollector::set_kind_enabled(EventKind kind, bool enabled) {
  kind_enabled_.at(static_cast<std::size_t>(kind))
      .store(enabled, std::memory_order_relaxed);
}

TraceCollector::Chunk* TraceCollector::acquire_chunk(RankBuffer& buf) {
  std::lock_guard lk(buf.pool_mu);
  if (!buf.free_list.empty()) {
    Chunk* c = buf.free_list.back();
    buf.free_list.pop_back();
    c->next.store(nullptr, std::memory_order_relaxed);
    return c;
  }
  buf.owned.push_back(std::make_unique<Chunk>());
  return buf.owned.back().get();
}

void TraceCollector::append(const Event& event) {
  if (!enabled_.load(std::memory_order_relaxed) ||
      !kind_enabled_[static_cast<std::size_t>(event.kind)].load(
          std::memory_order_relaxed)) {
    // The monitor is toggled off (paper §2: trace-size control) — the
    // record is intentionally not collected.
    if constexpr (obs::kMetricsEnabled) {
      collector_metrics().dropped.add(event.rank);
    }
    return;
  }
  auto& buf = *buffers_.at(static_cast<std::size_t>(event.rank));

  const std::uint64_t appended = buf.appended.load(std::memory_order_relaxed);
  const std::size_t offset = appended % kChunkEvents;
  if (offset == 0) {
    // Chunk boundary (including the very first append): link a fresh
    // chunk before any of its records are published.  The shared
    // metrics are also published here — batching the counter/gauge
    // updates per chunk keeps the per-append path free of RMWs (the
    // surfaces lag by at most one chunk).
    if constexpr (obs::kMetricsEnabled) {
      if (buf.unpublished != 0) {
        auto& metrics = collector_metrics();
        metrics.appended.add(event.rank, buf.unpublished);
        metrics.buffer_hwm.record_max(event.rank, buf.hwm_shadow);
        buf.unpublished = 0;
      }
    }
    Chunk* c = acquire_chunk(buf);
    if (buf.write_chunk == nullptr) {
      buf.first.store(c, std::memory_order_release);
    } else {
      buf.write_chunk->next.store(c, std::memory_order_release);
    }
    buf.write_chunk = c;
  }
  buf.write_chunk->events[offset] = event;
  // Publish: everything below `appended` is stable from here on.
  buf.appended.store(appended + 1, std::memory_order_release);

  const std::uint64_t buffered =
      appended + 1 - buf.harvested.load(std::memory_order_acquire);
  if constexpr (obs::kMetricsEnabled) {
    if (buffered > buf.hwm_shadow) buf.hwm_shadow = buffered;
    ++buf.unpublished;
  }

  if (has_writer_.load(std::memory_order_relaxed) &&
      buffered >= flush_threshold_.load(std::memory_order_relaxed)) {
    flush_rank(buf);
  }
}

void TraceCollector::attach_writer(TraceWriter* writer,
                                   std::size_t threshold) {
  std::lock_guard lk(writer_mu_);
  writer_ = writer;
  has_writer_.store(writer != nullptr, std::memory_order_relaxed);
  flush_threshold_.store(threshold == 0 ? 1 : threshold,
                         std::memory_order_relaxed);
}

void TraceCollector::flush_rank_locked(RankBuffer& buf) {
  std::uint64_t harvested = buf.harvested.load(std::memory_order_relaxed);
  const std::uint64_t appended = buf.appended.load(std::memory_order_acquire);
  if (harvested == appended) return;
  obs::ScopedTimer timer(collector_metrics().flush_ns, /*rank=*/-1);
  if constexpr (obs::kMetricsEnabled) collector_metrics().flushes.add(-1);
  if (buf.read_chunk == nullptr) {
    buf.read_chunk = buf.first.load(std::memory_order_acquire);
    buf.read_offset = 0;
  }
  while (harvested < appended) {
    if (buf.read_offset == kChunkEvents) {
      // More records exist, so the owner has linked the next chunk
      // (link happens-before the appended store we acquired).  The
      // drained chunk goes back to the pool for reuse.
      Chunk* done = buf.read_chunk;
      buf.read_chunk = done->next.load(std::memory_order_acquire);
      buf.read_offset = 0;
      std::lock_guard lk(buf.pool_mu);
      buf.free_list.push_back(done);
    }
    const std::size_t n =
        std::min(kChunkEvents - buf.read_offset,
                 static_cast<std::size_t>(appended - harvested));
    writer_->write_events({&buf.read_chunk->events[buf.read_offset], n});
    buf.read_offset += n;
    harvested += n;
  }
  buf.harvested.store(harvested, std::memory_order_release);
}

void TraceCollector::flush_rank(RankBuffer& buf) {
  std::lock_guard lk(writer_mu_);
  if (writer_ == nullptr) return;  // detached since the threshold check
  flush_rank_locked(buf);
}

void TraceCollector::flush() {
  static const std::uint32_t kFlushSite = telemetry::intern_site("trace.flush");
  telemetry::Span span(kFlushSite);
  std::lock_guard lk(writer_mu_);
  if (writer_ == nullptr) return;
  for (auto& buf : buffers_) flush_rank_locked(*buf);
  writer_->flush();
}

std::size_t TraceCollector::buffered_count() const {
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) {
    n += buf->appended.load(std::memory_order_acquire) -
         buf->harvested.load(std::memory_order_acquire);
  }
  return static_cast<std::size_t>(n);
}

std::size_t TraceCollector::rank_buffered_count(int rank) const {
  if (rank < 0 || rank >= num_ranks_) return 0;
  const auto& buf = *buffers_[static_cast<std::size_t>(rank)];
  return static_cast<std::size_t>(
      buf.appended.load(std::memory_order_acquire) -
      buf.harvested.load(std::memory_order_acquire));
}

std::uint64_t TraceCollector::total_count() const {
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) {
    n += buf->appended.load(std::memory_order_acquire);
  }
  return n;
}

Trace TraceCollector::build_trace() const {
  // Walk the unharvested suffix of each rank's log without disturbing
  // the flusher cursors (writer_mu_ keeps them still while we read).
  std::lock_guard lk(writer_mu_);
  std::vector<Event> all;
  all.reserve(buffered_count());
  for (const auto& buf : buffers_) {
    std::uint64_t pos = buf->harvested.load(std::memory_order_relaxed);
    const std::uint64_t end = buf->appended.load(std::memory_order_acquire);
    const Chunk* chunk = buf->read_chunk != nullptr
                             ? buf->read_chunk
                             : buf->first.load(std::memory_order_acquire);
    std::size_t offset =
        buf->read_chunk != nullptr ? buf->read_offset : 0;
    while (pos < end) {
      if (offset == kChunkEvents) {
        chunk = chunk->next.load(std::memory_order_acquire);
        offset = 0;
      }
      const std::size_t n = std::min(kChunkEvents - offset,
                                     static_cast<std::size_t>(end - pos));
      all.insert(all.end(), &chunk->events[offset], &chunk->events[offset] + n);
      offset += n;
      pos += n;
    }
  }
  return Trace(num_ranks_, std::move(all), constructs_);
}

}  // namespace tdbg::trace
