#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpi/types.hpp"
#include "support/clock.hpp"
#include "trace/construct_registry.hpp"
#include "trace/event.hpp"
#include "trace/wire.hpp"

/// \file store.hpp
/// Storage backends behind `trace::Trace`.
///
/// `Trace` is a thin query facade; the event history itself lives in a
/// `TraceStore`.  Two implementations exist:
///
///   - `InMemoryTraceStore` — the seed behavior: every event in one
///     sorted vector plus per-rank index vectors.  Built by the
///     collector, by `read_trace`, and by tests.
///   - `SegmentedTraceStore` — a v2/v3 trace file opened by its footer
///     directory alone.  Event segments are loaded lazily on first
///     touch and held in a small LRU cache, so opening a 10M-event
///     trace costs O(directory) and a zoomed window query touches only
///     the segments it intersects.
///
/// All indices exchanged through this interface are *global display
/// indices*: positions in the trace-wide (t_start, rank, marker)
/// order, identical across both backends for the same history.

namespace tdbg::trace {

/// Visitor for event cursors.  Receives the event's global display
/// index and a reference that is only valid during the call (the
/// segmented store may evict the backing segment afterwards) — copy
/// the event if it must outlive the visit.
using EventVisitor = std::function<void(std::size_t index, const Event& e)>;

/// Bitmask selecting a subset of event fields for column-pruned
/// scans.  Bit i selects storage column i of the v3 columnar format
/// (see columnar.hpp for the fixed order).  The mask is a *permission*:
/// a columnar backend decodes only the selected columns and leaves the
/// other fields of the visited events value-initialized; row-major and
/// in-memory backends ignore it and deliver full events.
using ColumnSet = std::uint32_t;
inline constexpr ColumnSet kColKind = 1u << 0;
inline constexpr ColumnSet kColRank = 1u << 1;
inline constexpr ColumnSet kColMarker = 1u << 2;
inline constexpr ColumnSet kColConstruct = 1u << 3;
inline constexpr ColumnSet kColTStart = 1u << 4;
inline constexpr ColumnSet kColTEnd = 1u << 5;
inline constexpr ColumnSet kColPeer = 1u << 6;
inline constexpr ColumnSet kColTag = 1u << 7;
inline constexpr ColumnSet kColChannelSeq = 1u << 8;
inline constexpr ColumnSet kColBytes = 1u << 9;
inline constexpr ColumnSet kColWildcard = 1u << 10;
inline constexpr ColumnSet kAllEventColumns = (1u << wire::kNumColumnsV3) - 1;

/// Zone summary of one segment, from the trace directory: which event
/// kinds and ranks appear, whether a wildcard receive may appear, and
/// the segment's time span.  Query layers use it to skip whole
/// segments — or decode fewer columns — without touching event data.
struct SegmentZones {
  std::uint32_t kind_mask = 0;  ///< bit k set iff some event has kind k
  std::uint64_t rank_mask = 0;  ///< bit min(rank, 63) set iff rank appears
  bool may_have_wildcard = false;
  support::TimeNs t_min = 0;
  support::TimeNs t_max = 0;
};

/// Read-only random/sequential access to one recorded history.
class TraceStore {
 public:
  virtual ~TraceStore() = default;

  [[nodiscard]] virtual int num_ranks() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual support::TimeNs t_min() const = 0;
  [[nodiscard]] virtual support::TimeNs t_max() const = 0;
  [[nodiscard]] virtual std::shared_ptr<const ConstructRegistry> constructs()
      const = 0;

  /// The event at global display index `i` (by value: the backing
  /// segment may be evicted as soon as this returns).
  [[nodiscard]] virtual Event event(std::size_t i) const = 0;

  /// Visits every event in display order.
  virtual void for_each(const EventVisitor& visit) const = 0;

  /// Visits the events whose [t_start, t_end] intersects [t0, t1], in
  /// display order.  The segmented store prunes whole segments via the
  /// directory's [t_min, t_max] before touching event data.
  virtual void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                                  const EventVisitor& visit) const = 0;

  /// Number of events recorded by `rank`.
  [[nodiscard]] virtual std::size_t rank_size(mpi::Rank rank) const = 0;

  /// Global display index of `rank`'s `pos`-th event in that rank's
  /// program order.
  [[nodiscard]] virtual std::size_t rank_event(mpi::Rank rank,
                                               std::size_t pos) const = 0;

  /// Visits one rank's events in program order.
  virtual void for_each_rank_event(mpi::Rank rank,
                                   const EventVisitor& visit) const = 0;

  /// First event of `rank` whose marker equals `marker`, if any.
  [[nodiscard]] virtual std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const = 0;

  /// Last event of `rank` whose start time is <= `t`, if any.
  [[nodiscard]] virtual std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const = 0;

  // --- Segment view (the unit of analysis parallelism) ----------------
  //
  // Both backends expose the stream as consecutive display-order
  // segments: the v2 file's directory segments for the lazy store,
  // fixed-size chunks for the in-memory store.  Segment boundaries
  // depend only on the history (never on thread count), which is what
  // lets the analysis passes merge per-segment partials in segment
  // order and produce bit-identical results at any parallelism.

  /// Number of segments (0 for an empty trace).
  [[nodiscard]] virtual std::size_t segment_count() const = 0;

  /// Global display-index range [begin, end) of segment `seg`.
  [[nodiscard]] virtual std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const = 0;

  /// Visits segment `seg`'s events in display order.  Safe to call
  /// concurrently from pool workers on different (or the same)
  /// segments.
  virtual void for_each_in_segment(std::size_t seg,
                                   const EventVisitor& visit) const = 0;

  /// Zone summary of segment `seg`, when the backend has one.  A v3
  /// footer carries exact presence masks; a v2 footer yields a
  /// conservative summary (every kind possible, rank mask from the
  /// per-rank counts); the in-memory store has none.
  [[nodiscard]] virtual std::optional<SegmentZones> segment_zones(
      std::size_t seg) const {
    (void)seg;
    return std::nullopt;
  }

  /// Like `for_each_in_segment`, but the caller promises to read only
  /// the fields selected by `cols` — a columnar backend decodes just
  /// those columns (leaving the rest at their defaults) and skips the
  /// decoded-segment cache.  Default: full events.  Thread-safe.
  virtual void for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                        const EventVisitor& visit) const {
    (void)cols;
    for_each_in_segment(seg, visit);
  }
};

/// Chunk size the in-memory store presents as its "segments".  Small
/// enough that moderate test traces parallelize, fixed so results
/// never depend on thread count.
inline constexpr std::size_t kInMemorySegmentEvents = 1u << 13;

/// The seed storage: one eagerly sorted vector plus per-rank indexes.
///
/// Accepts events in any order; sorts them into display order and
/// rebuilds per-rank program order by marker, exactly as the original
/// `Trace` constructor did.
class InMemoryTraceStore final : public TraceStore {
 public:
  InMemoryTraceStore(int num_ranks, std::vector<Event> events,
                     std::shared_ptr<const ConstructRegistry> constructs);

  [[nodiscard]] int num_ranks() const override { return num_ranks_; }
  [[nodiscard]] std::size_t size() const override { return events_.size(); }
  [[nodiscard]] support::TimeNs t_min() const override { return t_min_; }
  [[nodiscard]] support::TimeNs t_max() const override { return t_max_; }
  [[nodiscard]] std::shared_ptr<const ConstructRegistry> constructs()
      const override {
    return constructs_;
  }

  [[nodiscard]] Event event(std::size_t i) const override {
    return events_.at(i);
  }
  void for_each(const EventVisitor& visit) const override;
  void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                          const EventVisitor& visit) const override;
  [[nodiscard]] std::size_t rank_size(mpi::Rank rank) const override;
  [[nodiscard]] std::size_t rank_event(mpi::Rank rank,
                                       std::size_t pos) const override;
  void for_each_rank_event(mpi::Rank rank,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const override;
  [[nodiscard]] std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const override;
  [[nodiscard]] std::size_t segment_count() const override;
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const override;
  void for_each_in_segment(std::size_t seg,
                           const EventVisitor& visit) const override;

 private:
  [[nodiscard]] const std::vector<std::size_t>& rank_index(
      mpi::Rank rank) const;

  int num_ranks_ = 0;
  std::vector<Event> events_;
  std::vector<std::vector<std::size_t>> by_rank_;
  std::shared_ptr<const ConstructRegistry> constructs_;
  support::TimeNs t_min_ = 0;
  support::TimeNs t_max_ = 0;
};

/// Residency counters for the segmented store's LRU cache.  `loads`
/// counts segment reads from disk, `hits` cache hits, `evictions`
/// segments dropped; `resident_segments`/`resident_bytes` describe the
/// cache right now.
struct SegmentCacheStats {
  std::uint64_t loads = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::size_t resident_segments = 0;
  std::size_t resident_bytes = 0;
};

/// Lazily loads a v2/v3 trace file through its footer directory.
///
/// Requires a display-sorted stream with monotone per-rank markers
/// (the writer records both as footer flags) — that is what turns
/// every query into a directory binary search.  `open_trace` falls
/// back to the eager reader when the flags are absent.  The directory
/// is checked at open: its segments must follow one another from the
/// header on and end no later than the footer, and a v2 segment's byte
/// length must match its record count.  Every v3 block read checks the
/// block's row count, and every segment load the per-rank counts,
/// against the directory entry.  Each violation is a `FormatError`
/// naming the file and the segment.
///
/// The store has one cache: decoded segments sit in an LRU of
/// `cache_segments` entries.  Column-pruned scans
/// (`for_each_in_segment_cols`) and the v3 full sweep (`for_each`)
/// reuse a segment that is already resident, and otherwise decode the
/// block one tile at a time straight into the visitor, installing
/// nothing.
///
/// Thread-safe for any number of concurrent readers:
///
///   - segment IO uses `pread` on a shared descriptor (no seek state)
///     into a buffer the reading call owns, and decoding runs
///     *outside* the cache lock, so two workers can load two different
///     segments truly in parallel;
///   - the LRU index itself sits behind one mutex, held only for
///     lookups and installs, with a `shared_future` per in-flight load
///     so concurrent misses on the same segment share one read;
///   - loaded segments are handed out as `shared_ptr`s (pinned-segment
///     refcounts): an eviction drops the cache slot, never the data a
///     reader is scanning.
class SegmentedTraceStore final : public TraceStore {
 public:
  /// Opens `path`, whose parsed footer the caller already has (from
  /// `try_read_footer`).  `num_ranks` comes from the file header;
  /// `cache_segments` bounds resident segments (minimum 1).  Throws
  /// `FormatError` when the directory does not describe the file.
  SegmentedTraceStore(std::filesystem::path path, int num_ranks,
                      wire::Footer footer, std::size_t cache_segments);

  ~SegmentedTraceStore() override;

  [[nodiscard]] int num_ranks() const override { return num_ranks_; }
  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(footer_.event_count);
  }
  [[nodiscard]] support::TimeNs t_min() const override { return t_min_; }
  [[nodiscard]] support::TimeNs t_max() const override { return t_max_; }
  [[nodiscard]] std::shared_ptr<const ConstructRegistry> constructs()
      const override {
    return constructs_;
  }

  [[nodiscard]] Event event(std::size_t i) const override;
  void for_each(const EventVisitor& visit) const override;
  void for_each_in_window(support::TimeNs t0, support::TimeNs t1,
                          const EventVisitor& visit) const override;
  [[nodiscard]] std::size_t rank_size(mpi::Rank rank) const override;
  [[nodiscard]] std::size_t rank_event(mpi::Rank rank,
                                       std::size_t pos) const override;
  void for_each_rank_event(mpi::Rank rank,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<std::size_t> find_marker(
      mpi::Rank rank, std::uint64_t marker) const override;
  [[nodiscard]] std::optional<std::size_t> last_event_at_or_before(
      mpi::Rank rank, support::TimeNs t) const override;

  [[nodiscard]] std::size_t segment_count() const override {
    return footer_.segments.size();
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> segment_range(
      std::size_t seg) const override;
  void for_each_in_segment(std::size_t seg,
                           const EventVisitor& visit) const override;
  [[nodiscard]] std::optional<SegmentZones> segment_zones(
      std::size_t seg) const override;
  void for_each_in_segment_cols(std::size_t seg, ColumnSet cols,
                                const EventVisitor& visit) const override;
  [[nodiscard]] SegmentCacheStats cache_stats() const;

 private:
  /// One resident segment: its events in stream order plus, per rank,
  /// the in-segment positions of that rank's events (stream order ==
  /// program order under the monotone-marker flag).
  struct LoadedSegment {
    std::vector<Event> events;
    std::vector<std::vector<std::uint32_t>> rank_positions;
  };
  using SegmentPtr = std::shared_ptr<const LoadedSegment>;

  [[nodiscard]] SegmentPtr segment(std::size_t seg) const;
  /// pread + decode of one segment; no lock held.
  [[nodiscard]] SegmentPtr load_segment(std::size_t seg) const;
  /// Reads segment `seg`'s on-disk block into `block`, a buffer the
  /// caller owns: a visitor that re-enters the store on the same
  /// thread cannot overwrite a block that is still being decoded.
  /// Every v3 read comes through here, and here the block's row count
  /// is checked against the directory.
  void read_block(std::size_t seg, std::vector<std::byte>& block) const;
  /// The decoded segment if it is resident right now (LRU-touching),
  /// else null — lets column-pruned scans reuse full decodes for free.
  [[nodiscard]] SegmentPtr resident_segment(std::size_t seg) const;
  /// Installs a loaded segment into the LRU (evicting), under mu_.
  void install(std::size_t seg, const SegmentPtr& loaded) const;
  [[nodiscard]] std::size_t segment_of_index(std::size_t i) const;

  std::filesystem::path path_;
  wire::Footer footer_;
  int num_ranks_ = 0;
  support::TimeNs t_min_ = 0;
  support::TimeNs t_max_ = 0;
  std::shared_ptr<const ConstructRegistry> constructs_;

  /// Global display index of each segment's first event (size =
  /// segments + 1; last entry = event_count).
  std::vector<std::size_t> seg_first_index_;
  /// Per rank: that rank's program-order position at each segment's
  /// start (size = segments + 1; last entry = the rank's total).
  std::vector<std::vector<std::size_t>> rank_first_pos_;

  int fd_ = -1;  ///< shared pread descriptor (immutable after open)
  std::size_t cache_segments_ = 1;
  mutable std::mutex mu_;  ///< guards lru_/cache_/loading_/stats_
  mutable std::list<std::size_t> lru_;  ///< most recent first
  mutable std::vector<SegmentPtr> cache_;
  mutable std::unordered_map<std::size_t, std::shared_future<SegmentPtr>>
      loading_;
  mutable SegmentCacheStats stats_;
};

}  // namespace tdbg::trace
