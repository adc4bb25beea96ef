#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/construct_registry.hpp"
#include "trace/trace.hpp"

namespace tdbg::trace {

class TraceWriter;

/// Collects trace records from all ranks during a run.
///
/// This is the debugger-side monitor of paper §2.1: per-rank buffers
/// filled by the instrumentation, with two additions the paper had to
/// make to AIMS: the records can be *flushed on demand* while the
/// program is still executing (p2d2 needs history during execution,
/// not post-mortem), and collection can be toggled — globally or per
/// record kind — to control trace size (§3: "the size of trace file
/// can be controlled by selectively instrumenting constructs and by
/// toggling the collection on and off in the monitor").
///
/// Each rank's buffer is a single-producer single-consumer chunked
/// log: the owning rank appends into fixed-size chunks with stable
/// addresses and publishes progress through a release-stored counter,
/// so an append is a slot write plus a store — wait-free, no lock, no
/// fence, and no reallocation ever moves published records (see
/// DESIGN.md "Hot paths").  A flusher walks the chunk list behind the
/// counter, hands whole chunk spans to `TraceWriter::write_events`
/// (one writer-lock acquisition per span instead of per record), and
/// recycles drained chunks through a pool so steady-state tracing
/// allocates nothing.
class TraceCollector {
 public:
  /// Records per chunk; also the granularity of flush batching.
  static constexpr std::size_t kChunkEvents = 1024;

  /// \param num_ranks  world size of the run being traced
  /// \param constructs shared construct table (created if null)
  explicit TraceCollector(
      int num_ranks,
      std::shared_ptr<ConstructRegistry> constructs = nullptr);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Appends a record (called from the owning rank's thread).  Drops
  /// the record if collection is disabled globally or for its kind.
  void append(const Event& event);

  /// Globally enables/disables collection.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Enables/disables one record kind (e.g. drop enter/exit records
  /// but keep message records).
  void set_kind_enabled(EventKind kind, bool enabled);

  /// Attaches a writer; once attached, `flush` drains buffered records
  /// to it, and buffers auto-flush when they exceed `threshold`
  /// records.  An auto-flush only hands records to the writer; it
  /// does not make them durable (so v3 blocks stay full size).
  void attach_writer(TraceWriter* writer, std::size_t threshold = 4096);

  /// Flush-on-demand: drains every rank's buffer to the attached
  /// writer, then `TraceWriter::flush`es it, so every record appended
  /// so far can be read back from the file before `finish()`.  No-op
  /// without a writer.
  void flush();

  /// Number of records currently buffered (all ranks).  Callable from
  /// any thread.
  [[nodiscard]] std::size_t buffered_count() const;

  /// Number of records currently buffered for one rank — the "trace
  /// backlog" the health heartbeat samples.  Callable from any thread.
  [[nodiscard]] std::size_t rank_buffered_count(int rank) const;

  /// Total records accepted since construction (including flushed).
  [[nodiscard]] std::uint64_t total_count() const;

  /// Builds an in-memory `Trace` from the buffered records (leaves the
  /// buffers intact).  Requires that no writer flushing has happened,
  /// otherwise the early records are on disk, not here.
  [[nodiscard]] Trace build_trace() const;

  /// The shared construct table.
  [[nodiscard]] const std::shared_ptr<ConstructRegistry>& constructs() const {
    return constructs_;
  }

  [[nodiscard]] int num_ranks() const { return num_ranks_; }

 private:
  struct Chunk {
    std::array<Event, kChunkEvents> events;
    std::atomic<Chunk*> next{nullptr};
  };

  /// One rank's SPSC chunked log.  The owning rank's thread is the
  /// only writer of the owner-side cursors and of `appended`; flushers
  /// (serialized by `writer_mu_`) own the read-side cursors and
  /// `harvested`.  Publication order is: write slot, link chunk
  /// (release), store `appended` (release); readers load `appended`
  /// (acquire) first, so every record at an index below it is stable.
  struct alignas(64) RankBuffer {
    // --- owner side (rank thread only) ------------------------------
    Chunk* write_chunk = nullptr;
    std::atomic<std::uint64_t> appended{0};
    std::uint64_t hwm_shadow = 0;   ///< owner-local high-watermark cache
    std::uint64_t unpublished = 0;  ///< appends since last metric publish

    // --- shared -----------------------------------------------------
    std::atomic<Chunk*> first{nullptr};  ///< head of the chunk list
    std::mutex pool_mu;                  ///< guards owned + free_list
    std::vector<std::unique_ptr<Chunk>> owned;  ///< every chunk allocated
    std::vector<Chunk*> free_list;              ///< drained, reusable

    // --- flusher side (under writer_mu_) ----------------------------
    Chunk* read_chunk = nullptr;
    std::size_t read_offset = 0;  ///< kChunkEvents => chunk consumed
    std::atomic<std::uint64_t> harvested{0};
  };

  /// Pops a recycled chunk or allocates one (owner thread, amortized
  /// once per kChunkEvents appends).
  Chunk* acquire_chunk(RankBuffer& buf);

  /// Drains one rank to the writer, one chunk span per write.  Caller
  /// must hold `writer_mu_` and have checked `writer_ != nullptr`.
  void flush_rank_locked(RankBuffer& buf);

  /// Auto-flush entry from `append`: re-checks the writer under lock.
  void flush_rank(RankBuffer& buf);

  int num_ranks_;
  std::shared_ptr<ConstructRegistry> constructs_;
  std::vector<std::unique_ptr<RankBuffer>> buffers_;
  std::atomic<bool> enabled_{true};
  std::array<std::atomic<bool>, 8> kind_enabled_;

  /// Guards writer_ and all read-side cursors (flushers and
  /// build_trace's walk).
  mutable std::mutex writer_mu_;
  TraceWriter* writer_ = nullptr;
  std::atomic<bool> has_writer_{false};
  std::atomic<std::size_t> flush_threshold_{4096};
};

}  // namespace tdbg::trace
