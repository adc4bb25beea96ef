#pragma once

#include <cstdint>
#include <vector>

#include "support/clock.hpp"
#include "support/serialize.hpp"
#include "trace/construct_registry.hpp"
#include "trace/event.hpp"

/// \file wire.hpp
/// Shared on-disk encoding of trace files (internal to `src/trace`).
///
/// Two binary versions coexist:
///
///   v1  TDBGTRC1 | i32 num_ranks | event records... | end record
///       end record = u8 kRecordEnd + construct table
///
///   v2  TDBGTRC2 | i32 num_ranks | event records... | footer | trailer
///       footer  = u8 kRecordEnd + construct table
///               + u8 kRecordDirectory + flags + segment directory
///       trailer = u64 footer_offset + "TDBGIDX2"
///
///   v3  TDBGTRC3 | i32 num_ranks | segment blocks... | footer | trailer
///       segment block = u8 kRecordSegment + columnar header + column
///                       payloads (see columnar.hpp)
///       footer  = u8 kRecordEnd + construct table
///               + u8 kRecordDirectoryV3 + flags + extended directory
///                 (per-segment kind/rank presence masks + per-column
///                 zone maps on top of the v2 entry)
///       trailer = u64 footer_offset + "TDBGIDX3"
///
/// Event records are fixed width (kEventRecordBytes, tag byte included)
/// in v1/v2, so the k-th record of a file lives at
/// `kHeaderBytes + k * kEventRecordBytes` — that is what lets the v2
/// directory address segments without any per-event index.  v3 drops
/// the fixed width in favor of per-segment column blocks; its
/// directory carries explicit byte offsets instead.  The v2/v3 trailer
/// is at a fixed distance from the end of the file, so a reader finds
/// the footer in O(1) without scanning the event stream; a file
/// missing the trailer (crash, flush-on-demand snapshot) still parses
/// as a record-stream prefix.

namespace tdbg::trace::wire {

inline constexpr char kMagicV1[8] = {'T', 'D', 'B', 'G', 'T', 'R', 'C', '1'};
inline constexpr char kMagicV2[8] = {'T', 'D', 'B', 'G', 'T', 'R', 'C', '2'};
inline constexpr char kMagicV3[8] = {'T', 'D', 'B', 'G', 'T', 'R', 'C', '3'};
inline constexpr char kFooterMagic[8] = {'T', 'D', 'B', 'G', 'I', 'D', 'X', '2'};
inline constexpr char kFooterMagicV3[8] = {'T', 'D', 'B', 'G',
                                           'I', 'D', 'X', '3'};

inline constexpr std::uint8_t kRecordEvent = 0;
inline constexpr std::uint8_t kRecordEnd = 1;
inline constexpr std::uint8_t kRecordDirectory = 2;
inline constexpr std::uint8_t kRecordSegment = 3;      ///< v3 column block
inline constexpr std::uint8_t kRecordDirectoryV3 = 4;  ///< v3 directory

/// Number of event columns in the v3 layout, in storage order: kind,
/// rank, marker, construct, t_start, t_end, peer, tag, channel_seq,
/// bytes, wildcard.
inline constexpr std::size_t kNumColumnsV3 = 11;

/// magic (8) + i32 num_ranks.
inline constexpr std::uint64_t kHeaderBytes = 12;

/// One event record: tag(1) kind(1) rank(4) marker(8) construct(4)
/// t_start(8) t_end(8) peer(4) tag(4) channel_seq(8) bytes(8)
/// wildcard(1).
inline constexpr std::uint64_t kEventRecordBytes = 59;

/// u64 footer offset + footer magic.
inline constexpr std::uint64_t kTrailerBytes = 16;

/// Events are in global display order: (t_start, rank, marker)
/// nondecreasing over the whole stream.  Required for the segmented
/// store's directory binary searches.
inline constexpr std::uint32_t kFlagDisplaySorted = 1u << 0;

/// Each rank's markers are nondecreasing in stream order.  Required
/// for per-rank marker binary searches on the segmented store.
inline constexpr std::uint32_t kFlagRankMarkersMonotone = 1u << 1;

/// Encodes one event record, tag byte included.
inline void encode_event(support::BinaryWriter& w, const Event& e) {
  w.put<std::uint8_t>(kRecordEvent);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(e.kind));
  w.put<std::int32_t>(e.rank);
  w.put<std::uint64_t>(e.marker);
  w.put<std::uint32_t>(e.construct);
  w.put<std::int64_t>(e.t_start);
  w.put<std::int64_t>(e.t_end);
  w.put<std::int32_t>(e.peer);
  w.put<std::int32_t>(e.tag);
  w.put<std::uint64_t>(e.channel_seq);
  w.put<std::uint64_t>(e.bytes);
  w.put<std::uint8_t>(e.wildcard ? 1 : 0);
}

/// Highest EventKind value the wire format knows.  Readers must treat
/// any kind byte above this as corruption (FormatError naming the
/// offset), never cast it through — a misparsed kind would silently
/// poison every downstream analysis.
inline constexpr std::uint8_t kMaxEventKind =
    static_cast<std::uint8_t>(EventKind::kFaultInjected);

[[nodiscard]] inline constexpr bool valid_event_kind(std::uint8_t kind) {
  return kind <= kMaxEventKind;
}

/// Decodes one event record; the caller has already consumed the tag.
inline Event decode_event(support::BinaryReader& r) {
  Event e;
  e.kind = static_cast<EventKind>(r.get<std::uint8_t>());
  e.rank = r.get<std::int32_t>();
  e.marker = r.get<std::uint64_t>();
  e.construct = r.get<std::uint32_t>();
  e.t_start = r.get<std::int64_t>();
  e.t_end = r.get<std::int64_t>();
  e.peer = r.get<std::int32_t>();
  e.tag = r.get<std::int32_t>();
  e.channel_seq = r.get<std::uint64_t>();
  e.bytes = r.get<std::uint64_t>();
  e.wildcard = r.get<std::uint8_t>() != 0;
  return e;
}

/// Directory entry for one rank within one segment.
struct SegmentRankMeta {
  std::uint64_t count = 0;
  std::uint64_t marker_lo = 0;
  std::uint64_t marker_hi = 0;
};

/// Logical [min, max] of one column's values within one segment (v3
/// zone map).  Signed fields compare as signed; unsigned fields fit
/// because the runtime's counters stay far below 2^63.
struct ColumnZone {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Directory entry for one segment of the event stream.
struct SegmentMeta {
  std::uint64_t offset = 0;    ///< file offset of the first record
  std::uint64_t byte_len = 0;  ///< v2: count * kEventRecordBytes;
                               ///< v3: whole column block, tag included
  std::uint64_t count = 0;     ///< events in the segment
  support::TimeNs t_min = 0;   ///< min t_start
  support::TimeNs t_max = 0;   ///< max t_end
  std::vector<SegmentRankMeta> ranks;  ///< one entry per rank

  // v3 zone maps (empty `zones` on a v2 directory):
  std::uint32_t kind_mask = 0;  ///< bit k set iff EventKind k occurs
  std::uint64_t rank_mask = 0;  ///< bit min(rank, 63) set iff rank occurs
  std::vector<ColumnZone> zones;  ///< kNumColumnsV3 entries
};

/// Parsed v2/v3 footer.
struct Footer {
  std::uint32_t version = 2;  ///< 2 or 3, from the file magic
  std::uint32_t flags = 0;
  std::uint32_t segment_events = 0;  ///< the writer's segment size
  std::uint64_t event_count = 0;
  std::vector<SegmentMeta> segments;
  std::vector<ConstructInfo> constructs;
  /// File offset of the footer itself: where the event region ends.
  /// Filled in by the reader from the trailer; not encoded.
  std::uint64_t offset = 0;

  [[nodiscard]] bool display_sorted() const {
    return (flags & kFlagDisplaySorted) != 0;
  }
  [[nodiscard]] bool rank_markers_monotone() const {
    return (flags & kFlagRankMarkersMonotone) != 0;
  }
};

/// Encodes the construct-table end record shared by v1 and v2.
inline void encode_construct_table(support::BinaryWriter& w,
                                   const std::vector<ConstructInfo>& table) {
  w.put<std::uint8_t>(kRecordEnd);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(table.size()));
  for (const auto& c : table) {
    w.put_string(c.name);
    w.put_string(c.file);
    w.put<std::int32_t>(c.line);
  }
}

/// Decodes the construct table; the caller has consumed the kRecordEnd
/// tag.
inline std::vector<ConstructInfo> decode_construct_table(
    support::BinaryReader& r) {
  const auto n = r.get<std::uint32_t>();
  std::vector<ConstructInfo> table;
  table.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ConstructInfo c;
    c.name = r.get_string();
    c.file = r.get_string();
    c.line = r.get<std::int32_t>();
    table.push_back(std::move(c));
  }
  return table;
}

/// Encodes the v2 directory record (after the construct table).
inline void encode_directory(support::BinaryWriter& w, const Footer& footer) {
  w.put<std::uint8_t>(kRecordDirectory);
  w.put<std::uint32_t>(footer.flags);
  w.put<std::uint32_t>(footer.segment_events);
  w.put<std::uint64_t>(footer.event_count);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(footer.segments.size()));
  for (const auto& seg : footer.segments) {
    w.put<std::uint64_t>(seg.offset);
    w.put<std::uint64_t>(seg.byte_len);
    w.put<std::uint64_t>(seg.count);
    w.put<std::int64_t>(seg.t_min);
    w.put<std::int64_t>(seg.t_max);
    for (const auto& rk : seg.ranks) {
      w.put<std::uint64_t>(rk.count);
      w.put<std::uint64_t>(rk.marker_lo);
      w.put<std::uint64_t>(rk.marker_hi);
    }
  }
}

/// Decodes the v2 directory record; the caller has consumed the
/// kRecordDirectory tag.  `num_ranks` fixes the per-segment rank-table
/// width.
inline void decode_directory(support::BinaryReader& r, int num_ranks,
                             Footer* footer) {
  footer->flags = r.get<std::uint32_t>();
  footer->segment_events = r.get<std::uint32_t>();
  footer->event_count = r.get<std::uint64_t>();
  const auto n = r.get<std::uint32_t>();
  footer->segments.clear();
  footer->segments.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SegmentMeta seg;
    seg.offset = r.get<std::uint64_t>();
    seg.byte_len = r.get<std::uint64_t>();
    seg.count = r.get<std::uint64_t>();
    seg.t_min = r.get<std::int64_t>();
    seg.t_max = r.get<std::int64_t>();
    seg.ranks.resize(static_cast<std::size_t>(num_ranks));
    for (auto& rk : seg.ranks) {
      rk.count = r.get<std::uint64_t>();
      rk.marker_lo = r.get<std::uint64_t>();
      rk.marker_hi = r.get<std::uint64_t>();
    }
    footer->segments.push_back(std::move(seg));
  }
}

/// Encodes the v3 directory record: the v2 entry plus the per-segment
/// kind/rank presence masks and the per-column zone maps.
inline void encode_directory_v3(support::BinaryWriter& w,
                                const Footer& footer) {
  w.put<std::uint8_t>(kRecordDirectoryV3);
  w.put<std::uint32_t>(footer.flags);
  w.put<std::uint32_t>(footer.segment_events);
  w.put<std::uint64_t>(footer.event_count);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(footer.segments.size()));
  for (const auto& seg : footer.segments) {
    w.put<std::uint64_t>(seg.offset);
    w.put<std::uint64_t>(seg.byte_len);
    w.put<std::uint64_t>(seg.count);
    w.put<std::int64_t>(seg.t_min);
    w.put<std::int64_t>(seg.t_max);
    w.put<std::uint32_t>(seg.kind_mask);
    w.put<std::uint64_t>(seg.rank_mask);
    for (const auto& rk : seg.ranks) {
      w.put<std::uint64_t>(rk.count);
      w.put<std::uint64_t>(rk.marker_lo);
      w.put<std::uint64_t>(rk.marker_hi);
    }
    for (std::size_t c = 0; c < kNumColumnsV3; ++c) {
      const ColumnZone z =
          c < seg.zones.size() ? seg.zones[c] : ColumnZone{};
      w.put<std::int64_t>(z.lo);
      w.put<std::int64_t>(z.hi);
    }
  }
}

/// Decodes the v3 directory record; the caller has consumed the
/// kRecordDirectoryV3 tag.
inline void decode_directory_v3(support::BinaryReader& r, int num_ranks,
                                Footer* footer) {
  footer->version = 3;
  footer->flags = r.get<std::uint32_t>();
  footer->segment_events = r.get<std::uint32_t>();
  footer->event_count = r.get<std::uint64_t>();
  const auto n = r.get<std::uint32_t>();
  footer->segments.clear();
  footer->segments.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SegmentMeta seg;
    seg.offset = r.get<std::uint64_t>();
    seg.byte_len = r.get<std::uint64_t>();
    seg.count = r.get<std::uint64_t>();
    seg.t_min = r.get<std::int64_t>();
    seg.t_max = r.get<std::int64_t>();
    seg.kind_mask = r.get<std::uint32_t>();
    seg.rank_mask = r.get<std::uint64_t>();
    seg.ranks.resize(static_cast<std::size_t>(num_ranks));
    for (auto& rk : seg.ranks) {
      rk.count = r.get<std::uint64_t>();
      rk.marker_lo = r.get<std::uint64_t>();
      rk.marker_hi = r.get<std::uint64_t>();
    }
    seg.zones.resize(kNumColumnsV3);
    for (auto& z : seg.zones) {
      z.lo = r.get<std::int64_t>();
      z.hi = r.get<std::int64_t>();
    }
    footer->segments.push_back(std::move(seg));
  }
}

}  // namespace tdbg::trace::wire
