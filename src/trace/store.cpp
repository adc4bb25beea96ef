#include "trace/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <string>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"
#include "trace/columnar.hpp"

namespace tdbg::trace {

namespace {

/// `trace.cache.*` instruments mirroring `SegmentCacheStats`, so the
/// segment cache shows up in `stats`/`--stats` reports and on the
/// analysis server without callers plumbing `cache_stats()` around.
/// Handles are cached once — registry lookups take a mutex.
struct SegmentCacheMetrics {
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("trace.cache.hits");
  obs::Counter& loads =
      obs::MetricsRegistry::global().counter("trace.cache.loads");
  obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("trace.cache.evictions");
  obs::Gauge& resident_segments =
      obs::MetricsRegistry::global().gauge("trace.cache.resident_segments");
  obs::Gauge& resident_bytes =
      obs::MetricsRegistry::global().gauge("trace.cache.resident_bytes");

  static SegmentCacheMetrics& get() {
    static SegmentCacheMetrics m;
    return m;
  }
};

/// `trace.decode.*` instruments: how much work the zone maps and
/// column pruning saved.  `segments_skipped` counts segments a query
/// dismissed from the directory alone; `columns_skipped` counts
/// columns a columnar decode did not have to touch; `decoded_bytes`
/// counts compressed payload bytes actually decoded.
struct DecodeMetrics {
  obs::Counter& segments_skipped =
      obs::MetricsRegistry::global().counter("trace.decode.segments_skipped");
  obs::Counter& columns_skipped =
      obs::MetricsRegistry::global().counter("trace.decode.columns_skipped");
  obs::Counter& decoded_bytes =
      obs::MetricsRegistry::global().counter("trace.decode.decoded_bytes");

  static DecodeMetrics& get() {
    static DecodeMetrics m;
    return m;
  }
};

[[noreturn]] void directory_error(const std::filesystem::path& path,
                                  std::size_t seg, const std::string& what) {
  throw FormatError("trace directory entry for segment " +
                    std::to_string(seg) + " " + what + " in trace file " +
                    path.string());
}

}  // namespace

// ---------------------------------------------------------------------------
// InMemoryTraceStore

InMemoryTraceStore::InMemoryTraceStore(
    int num_ranks, std::vector<Event> events,
    std::shared_ptr<const ConstructRegistry> constructs)
    : num_ranks_(num_ranks), events_(std::move(events)),
      constructs_(std::move(constructs)) {
  TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
  if (constructs_ == nullptr) {
    constructs_ = std::make_shared<ConstructRegistry>();
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     if (a.t_start != b.t_start) return a.t_start < b.t_start;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.marker < b.marker;
                   });
  by_rank_.assign(static_cast<std::size_t>(num_ranks_), {});
  t_min_ = events_.empty() ? 0 : events_.front().t_start;
  t_max_ = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    TDBG_CHECK(e.rank >= 0 && e.rank < num_ranks_, "event rank out of range");
    by_rank_[static_cast<std::size_t>(e.rank)].push_back(i);
    t_max_ = std::max(t_max_, e.t_end);
  }
  // Global sorting by start time can reorder same-rank events that
  // share a timestamp; restore per-rank program order by marker (the
  // marker counter is nondecreasing within a rank).
  for (auto& idx : by_rank_) {
    std::stable_sort(idx.begin(), idx.end(),
                     [this](std::size_t a, std::size_t b) {
                       if (events_[a].marker != events_[b].marker) {
                         return events_[a].marker < events_[b].marker;
                       }
                       return events_[a].t_start < events_[b].t_start;
                     });
  }
}

const std::vector<std::size_t>& InMemoryTraceStore::rank_index(
    mpi::Rank rank) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  return by_rank_[static_cast<std::size_t>(rank)];
}

void InMemoryTraceStore::for_each(const EventVisitor& visit) const {
  for (std::size_t i = 0; i < events_.size(); ++i) visit(i, events_[i]);
}

void InMemoryTraceStore::for_each_in_window(support::TimeNs t0,
                                            support::TimeNs t1,
                                            const EventVisitor& visit) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.t_start > t1) break;  // sorted by start time
    if (e.t_end >= t0) visit(i, e);
  }
}

std::size_t InMemoryTraceStore::rank_size(mpi::Rank rank) const {
  return rank_index(rank).size();
}

std::size_t InMemoryTraceStore::rank_event(mpi::Rank rank,
                                           std::size_t pos) const {
  return rank_index(rank).at(pos);
}

void InMemoryTraceStore::for_each_rank_event(mpi::Rank rank,
                                             const EventVisitor& visit) const {
  for (std::size_t i : rank_index(rank)) visit(i, events_[i]);
}

std::optional<std::size_t> InMemoryTraceStore::find_marker(
    mpi::Rank rank, std::uint64_t marker) const {
  const auto& idx = rank_index(rank);
  // Program order is sorted by marker: binary search.
  const auto it = std::lower_bound(
      idx.begin(), idx.end(), marker,
      [this](std::size_t i, std::uint64_t m) { return events_[i].marker < m; });
  if (it == idx.end() || events_[*it].marker != marker) return std::nullopt;
  return *it;
}

std::size_t InMemoryTraceStore::segment_count() const {
  return (events_.size() + kInMemorySegmentEvents - 1) / kInMemorySegmentEvents;
}

std::pair<std::size_t, std::size_t> InMemoryTraceStore::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(seg < segment_count(), "segment index out of range");
  const std::size_t begin = seg * kInMemorySegmentEvents;
  return {begin, std::min(begin + kInMemorySegmentEvents, events_.size())};
}

void InMemoryTraceStore::for_each_in_segment(std::size_t seg,
                                             const EventVisitor& visit) const {
  const auto [begin, end] = segment_range(seg);
  for (std::size_t i = begin; i < end; ++i) visit(i, events_[i]);
}

std::optional<std::size_t> InMemoryTraceStore::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  const auto& idx = rank_index(rank);
  // Per-rank start times are nondecreasing in program order (each
  // rank's clock is monotone), so the answer is a partition point.
  const auto it = std::partition_point(
      idx.begin(), idx.end(),
      [this, t](std::size_t i) { return events_[i].t_start <= t; });
  if (it == idx.begin()) return std::nullopt;
  return *(it - 1);
}

// ---------------------------------------------------------------------------
// SegmentedTraceStore

SegmentedTraceStore::SegmentedTraceStore(std::filesystem::path path,
                                         int num_ranks, wire::Footer footer,
                                         std::size_t cache_segments)
    : path_(std::move(path)), footer_(std::move(footer)),
      num_ranks_(num_ranks),
      cache_segments_(std::max<std::size_t>(1, cache_segments)) {
  TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
  TDBG_CHECK(footer_.display_sorted() && footer_.rank_markers_monotone(),
             "segmented store requires a sorted v2/v3 trace");

  // The directory must describe the file: segments follow one another
  // from the header on and end no later than the footer, so no read can
  // run past it, and a v2 segment holds exactly its fixed-width records.
  const std::size_t nseg = footer_.segments.size();
  seg_first_index_.assign(nseg + 1, 0);
  rank_first_pos_.assign(static_cast<std::size_t>(num_ranks_),
                         std::vector<std::size_t>(nseg + 1, 0));
  std::uint64_t end = wire::kHeaderBytes;
  for (std::size_t s = 0; s < nseg; ++s) {
    const auto& seg = footer_.segments[s];
    TDBG_CHECK(seg.ranks.size() == static_cast<std::size_t>(num_ranks_),
               "trace directory rank-table width mismatch");
    if (seg.offset != end) {
      directory_error(path_, s,
                      "starts at byte " + std::to_string(seg.offset) +
                          ", not at byte " + std::to_string(end));
    }
    if (end > footer_.offset || seg.byte_len > footer_.offset - end) {
      directory_error(path_, s,
                      "runs " + std::to_string(seg.byte_len) +
                          " bytes past byte " + std::to_string(end) +
                          ", beyond the footer at byte " +
                          std::to_string(footer_.offset));
    }
    if (footer_.version != 3 &&
        (seg.byte_len % wire::kEventRecordBytes != 0 ||
         seg.byte_len / wire::kEventRecordBytes != seg.count)) {
      directory_error(path_, s,
                      "spans " + std::to_string(seg.byte_len) + " bytes for " +
                          std::to_string(seg.count) + " records");
    }
    end += seg.byte_len;
    seg_first_index_[s + 1] = seg_first_index_[s] + seg.count;
    for (int r = 0; r < num_ranks_; ++r) {
      rank_first_pos_[r][s + 1] =
          rank_first_pos_[r][s] + seg.ranks[static_cast<std::size_t>(r)].count;
    }
  }
  if (seg_first_index_[nseg] != footer_.event_count) {
    throw FormatError("trace directory event count mismatch in trace file " +
                      path_.string());
  }
  if (nseg > 0) {
    t_min_ = footer_.segments.front().t_min;
    for (const auto& seg : footer_.segments) {
      t_max_ = std::max(t_max_, seg.t_max);
    }
  }
  cache_.assign(nseg, nullptr);

  auto registry = std::make_shared<ConstructRegistry>();
  registry->restore(footer_.constructs);
  constructs_ = std::move(registry);
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw IoError("cannot open trace file: " + path_.string());
  }
}

std::size_t SegmentedTraceStore::segment_of_index(std::size_t i) const {
  TDBG_CHECK(i < size(), "event index out of range");
  const auto it = std::upper_bound(seg_first_index_.begin(),
                                   seg_first_index_.end(), i);
  return static_cast<std::size_t>(it - seg_first_index_.begin()) - 1;
}

SegmentedTraceStore::~SegmentedTraceStore() {
  if (fd_ >= 0) ::close(fd_);
}

void SegmentedTraceStore::read_block(std::size_t seg,
                                     std::vector<std::byte>& block) const {
  const auto& meta = footer_.segments[seg];
  block.resize(meta.byte_len);
  std::size_t got = 0;
  while (got < block.size()) {
    const ssize_t n = ::pread(fd_, block.data() + got, block.size() - got,
                              static_cast<off_t>(meta.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw IoError("trace segment read failed: " + path_.string());
    }
    got += static_cast<std::size_t>(n);
  }
  if (footer_.version != 3) return;
  const auto count = columnar::parse_segment_header(block, path_, seg).count;
  if (count != meta.count) {
    directory_error(path_, seg,
                    "counts " + std::to_string(meta.count) +
                        " events, but its block holds " +
                        std::to_string(count));
  }
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::resident_segment(
    std::size_t seg) const {
  std::lock_guard lk(mu_);
  if (!cache_[seg]) return nullptr;
  ++stats_.hits;
  SegmentCacheMetrics::get().hits.add(-1);
  lru_.remove(seg);
  lru_.push_front(seg);
  return cache_[seg];
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::load_segment(
    std::size_t seg) const {
  const auto& meta = footer_.segments[seg];
  std::vector<std::byte> block;
  read_block(seg, block);

  auto loaded = std::make_shared<LoadedSegment>();
  if (footer_.version == 3) {
    const auto res = columnar::decode_segment(block, num_ranks_,
                                              loaded->events, path_, seg);
    DecodeMetrics::get().decoded_bytes.add(-1, res.decoded_bytes);
  } else {
    loaded->events.reserve(meta.count);
    support::BinaryReader r(block);
    for (std::uint64_t k = 0; k < meta.count; ++k) {
      const auto tag = r.get<std::uint8_t>();
      if (tag != wire::kRecordEvent) {
        throw FormatError("corrupt trace segment in " + path_.string());
      }
      const auto kind = std::to_integer<std::uint8_t>(block[r.position()]);
      if (!wire::valid_event_kind(kind)) {
        throw FormatError(
            "unknown event kind " + std::to_string(kind) + " in trace file " +
            path_.string() + " at offset " +
            std::to_string(meta.offset + k * wire::kEventRecordBytes + 1));
      }
      Event e = wire::decode_event(r);
      TDBG_CHECK(e.rank >= 0 && e.rank < num_ranks_, "event rank out of range");
      loaded->events.push_back(e);
    }
  }
  // The per-rank directory counts drive every program-order lookup
  // into this segment, so they must match what the block holds.
  loaded->rank_positions.assign(static_cast<std::size_t>(num_ranks_), {});
  for (std::size_t k = 0; k < loaded->events.size(); ++k) {
    loaded->rank_positions[static_cast<std::size_t>(loaded->events[k].rank)]
        .push_back(static_cast<std::uint32_t>(k));
  }
  for (int r = 0; r < num_ranks_; ++r) {
    const auto rk = static_cast<std::size_t>(r);
    if (loaded->rank_positions[rk].size() != meta.ranks[rk].count) {
      directory_error(path_, seg,
                      "counts " + std::to_string(meta.ranks[rk].count) +
                          " events of rank " + std::to_string(r) +
                          ", but its block holds " +
                          std::to_string(loaded->rank_positions[rk].size()));
    }
  }
  return loaded;
}

void SegmentedTraceStore::install(std::size_t seg,
                                  const SegmentPtr& loaded) const {
  const auto seg_bytes = [](const LoadedSegment& s) {
    std::size_t b = s.events.size() * sizeof(Event);
    for (const auto& v : s.rank_positions) b += v.size() * sizeof(std::uint32_t);
    return b;
  };
  auto& metrics = SegmentCacheMetrics::get();
  while (lru_.size() >= cache_segments_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    stats_.resident_bytes -= seg_bytes(*cache_[victim]);
    cache_[victim] = nullptr;
    ++stats_.evictions;
    metrics.evictions.add(-1);
  }
  cache_[seg] = loaded;
  lru_.push_front(seg);
  ++stats_.loads;
  metrics.loads.add(-1);
  stats_.resident_bytes += seg_bytes(*loaded);
  stats_.resident_segments = lru_.size();
  metrics.resident_segments.set(-1, stats_.resident_segments);
  metrics.resident_bytes.set(-1, stats_.resident_bytes);
}

SegmentedTraceStore::SegmentPtr SegmentedTraceStore::segment(
    std::size_t seg) const {
  std::shared_future<SegmentPtr> pending;
  std::promise<SegmentPtr> promise;
  bool loader = false;
  {
    std::lock_guard lk(mu_);
    if (cache_[seg]) {
      ++stats_.hits;
      SegmentCacheMetrics::get().hits.add(-1);
      lru_.remove(seg);
      lru_.push_front(seg);
      return cache_[seg];
    }
    const auto it = loading_.find(seg);
    if (it != loading_.end()) {
      // Someone is already reading this segment: share its result.
      ++stats_.hits;
      SegmentCacheMetrics::get().hits.add(-1);
      pending = it->second;
    } else {
      loader = true;
      pending = promise.get_future().share();
      loading_.emplace(seg, pending);
    }
  }
  if (!loader) return pending.get();  // rethrows the loader's error

  // IO + decode run outside the lock: concurrent misses on *different*
  // segments proceed in parallel through pread.
  try {
    auto loaded = load_segment(seg);
    {
      std::lock_guard lk(mu_);
      install(seg, loaded);
      loading_.erase(seg);
    }
    promise.set_value(loaded);
    return loaded;
  } catch (...) {
    {
      std::lock_guard lk(mu_);
      loading_.erase(seg);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

SegmentCacheStats SegmentedTraceStore::cache_stats() const {
  std::lock_guard lk(mu_);
  SegmentCacheStats s = stats_;
  s.resident_segments = lru_.size();
  return s;
}

std::optional<SegmentZones> SegmentedTraceStore::segment_zones(
    std::size_t seg) const {
  TDBG_CHECK(seg < footer_.segments.size(), "segment index out of range");
  const auto& meta = footer_.segments[seg];
  SegmentZones z;
  z.t_min = meta.t_min;
  z.t_max = meta.t_max;
  if (footer_.version == 3 && meta.zones.size() == wire::kNumColumnsV3) {
    z.kind_mask = meta.kind_mask;
    z.rank_mask = meta.rank_mask;
    z.may_have_wildcard = meta.zones[columnar::kColWildcard].hi != 0;
  } else {
    // v2 directory: no presence masks were recorded — report the
    // conservative "anything may appear" summary, with the rank mask
    // recovered from the per-rank counts.
    z.kind_mask = (1u << (wire::kMaxEventKind + 1)) - 1;
    for (int r = 0; r < num_ranks_; ++r) {
      if (meta.ranks[static_cast<std::size_t>(r)].count > 0) {
        z.rank_mask |= std::uint64_t{1} << std::min(r, 63);
      }
    }
    z.may_have_wildcard = true;
  }
  return z;
}

void SegmentedTraceStore::for_each_in_segment_cols(
    std::size_t s, ColumnSet cols, const EventVisitor& visit) const {
  TDBG_CHECK(s < footer_.segments.size(), "segment index out of range");
  if (footer_.version != 3) {
    for_each_in_segment(s, visit);
    return;
  }
  const std::size_t base = seg_first_index_[s];
  if (const auto seg = resident_segment(s)) {
    // A full decode is already resident: reuse it, no codec work.
    for (std::size_t k = 0; k < seg->events.size(); ++k) {
      visit(base + k, seg->events[k]);
    }
    return;
  }
  // Fused decode+visit: rows are delivered one L1-sized tile at a time,
  // so the scan never writes and re-reads a multi-MB run of decoded
  // events, and nothing is installed in the cache.
  std::vector<std::byte> block;
  read_block(s, block);
  const auto res = columnar::decode_segment_visit(block, cols, num_ranks_,
                                                  base, visit, path_, s);
  auto& m = DecodeMetrics::get();
  m.decoded_bytes.add(-1, res.decoded_bytes);
  m.columns_skipped.add(
      -1, wire::kNumColumnsV3 -
              static_cast<std::uint64_t>(std::popcount(res.decoded_cols)));
}

Event SegmentedTraceStore::event(std::size_t i) const {
  const std::size_t s = segment_of_index(i);
  return segment(s)->events[i - seg_first_index_[s]];
}

std::pair<std::size_t, std::size_t> SegmentedTraceStore::segment_range(
    std::size_t seg) const {
  TDBG_CHECK(seg < footer_.segments.size(), "segment index out of range");
  return {seg_first_index_[seg], seg_first_index_[seg + 1]};
}

void SegmentedTraceStore::for_each_in_segment(std::size_t s,
                                              const EventVisitor& visit) const {
  TDBG_CHECK(s < footer_.segments.size(), "segment index out of range");
  const auto seg = segment(s);
  const std::size_t base = seg_first_index_[s];
  for (std::size_t k = 0; k < seg->events.size(); ++k) {
    visit(base + k, seg->events[k]);
  }
}

void SegmentedTraceStore::for_each(const EventVisitor& visit) const {
  // On v3 this streams every block through the visitor once: a full
  // pass touches each segment exactly once, so materializing
  // LoadedSegments (row copies, per-rank position indexes, LRU churn)
  // would be pure overhead.  A v2 segment has no columns to prune and
  // goes through the cache.
  for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
    for_each_in_segment_cols(s, kAllEventColumns, visit);
  }
}

void SegmentedTraceStore::for_each_in_window(support::TimeNs t0,
                                             support::TimeNs t1,
                                             const EventVisitor& visit) const {
  // Segment t_min values are nondecreasing (the stream is sorted by
  // t_start): every segment past the last one with t_min <= t1 starts
  // after the window.
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t1](const wire::SegmentMeta& m) { return m.t_min <= t1; });
  const auto nseg =
      static_cast<std::size_t>(hi - footer_.segments.begin());
  for (std::size_t s = 0; s < nseg; ++s) {
    if (footer_.segments[s].t_max < t0) {
      DecodeMetrics::get().segments_skipped.add(-1);  // directory-only skip
      continue;
    }
    const auto seg = segment(s);
    const std::size_t base = seg_first_index_[s];
    for (std::size_t k = 0; k < seg->events.size(); ++k) {
      const Event& e = seg->events[k];
      if (e.t_start > t1) return;  // sorted by start time
      if (e.t_end >= t0) visit(base + k, e);
    }
  }
}

std::size_t SegmentedTraceStore::rank_size(mpi::Rank rank) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  return rank_first_pos_[static_cast<std::size_t>(rank)].back();
}

std::size_t SegmentedTraceStore::rank_event(mpi::Rank rank,
                                            std::size_t pos) const {
  TDBG_CHECK(pos < rank_size(rank), "rank event position out of range");
  const auto& first_pos = rank_first_pos_[static_cast<std::size_t>(rank)];
  const auto it =
      std::upper_bound(first_pos.begin(), first_pos.end(), pos);
  const auto s = static_cast<std::size_t>(it - first_pos.begin()) - 1;
  const auto seg = segment(s);
  const auto& positions = seg->rank_positions[static_cast<std::size_t>(rank)];
  return seg_first_index_[s] + positions[pos - first_pos[s]];
}

void SegmentedTraceStore::for_each_rank_event(mpi::Rank rank,
                                              const EventVisitor& visit) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  const auto r = static_cast<std::size_t>(rank);
  for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
    if (footer_.segments[s].ranks[r].count == 0) continue;
    const auto seg = segment(s);
    const std::size_t base = seg_first_index_[s];
    for (std::uint32_t k : seg->rank_positions[r]) visit(base + k, seg->events[k]);
  }
}

std::optional<std::size_t> SegmentedTraceStore::find_marker(
    mpi::Rank rank, std::uint64_t marker) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  // Per-rank markers are nondecreasing across the stream, so the first
  // segment whose marker_hi reaches `marker` is the only candidate
  // holding its first occurrence.
  for (std::size_t s = 0; s < footer_.segments.size(); ++s) {
    const auto& rk = footer_.segments[s].ranks[static_cast<std::size_t>(rank)];
    if (rk.count == 0 || rk.marker_hi < marker) continue;
    if (rk.marker_lo > marker) return std::nullopt;
    const auto seg = segment(s);
    const auto& positions =
        seg->rank_positions[static_cast<std::size_t>(rank)];
    const auto it = std::lower_bound(
        positions.begin(), positions.end(), marker,
        [&](std::uint32_t p, std::uint64_t m) {
          return seg->events[p].marker < m;
        });
    if (it == positions.end() || seg->events[*it].marker != marker) {
      return std::nullopt;
    }
    return seg_first_index_[s] + *it;
  }
  return std::nullopt;
}

std::optional<std::size_t> SegmentedTraceStore::last_event_at_or_before(
    mpi::Rank rank, support::TimeNs t) const {
  TDBG_CHECK(rank >= 0 && rank < num_ranks_, "rank out of range");
  // Candidate: the last segment with rank events whose t_min <= t.
  // Everything in earlier segments starts no later than that
  // segment's first event, so at most two segment loads resolve the
  // query.
  const auto hi = std::partition_point(
      footer_.segments.begin(), footer_.segments.end(),
      [t](const wire::SegmentMeta& m) { return m.t_min <= t; });
  auto s = static_cast<std::size_t>(hi - footer_.segments.begin());
  while (s > 0) {
    --s;
    const auto& rk = footer_.segments[s].ranks[static_cast<std::size_t>(rank)];
    if (rk.count == 0) continue;
    const auto seg = segment(s);
    const auto& positions =
        seg->rank_positions[static_cast<std::size_t>(rank)];
    const auto it = std::partition_point(
        positions.begin(), positions.end(),
        [&](std::uint32_t p) { return seg->events[p].t_start <= t; });
    if (it == positions.begin()) continue;  // all start after t: step back
    return seg_first_index_[s] + *(it - 1);
  }
  return std::nullopt;
}

}  // namespace tdbg::trace
