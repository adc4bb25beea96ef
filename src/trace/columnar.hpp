#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "support/serialize.hpp"
#include "trace/event.hpp"
#include "trace/wire.hpp"

/// \file columnar.hpp
/// TDBGTRC3 columnar segment codec (internal to `src/trace`).
///
/// A v3 segment block stores the segment's events field-by-field:
///
///   u8  kRecordSegment
///   u32 count
///   per column (kNumColumnsV3 = 11, fixed order):
///       u8 encoding | u8 width | u64 base | u32 byte_len
///   column payloads, concatenated in column order
///
/// Column order: kind, rank, marker, construct, t_start, t_end, peer,
/// tag, channel_seq, bytes, wildcard.  Each field is first mapped to a
/// u64 *storage value* by a bijective transform (zigzag for signed
/// fields, `t_end` as a delta from the same row's `t_start`,
/// `construct + 1` so the kNoConstruct sentinel packs as 0), then the
/// writer picks the cheapest of five encodings per column:
///
///   kConst        no payload; every row equals `base`
///   kBitPack      (v - base) packed LSB-first at `width` bits
///   kVarint       LEB128
///   kDeltaVarint  LEB128 of zigzag(v[i] - v[i-1]), v[-1] = 0
///   kRaw          fixed 8-byte little-endian
///
/// Decoding runs one tile of rows at a time, each selected column
/// decoding straight into the tile's `Event` fields — no per-record
/// dispatch, no per-field bounds checks.  A streaming reader may decode
/// any subset of columns (`ColumnSet`).  Any inconsistency — a payload
/// that stops short, a varint running past its block, an invalid kind
/// or rank — raises `FormatError` naming the segment and the column.

namespace tdbg::trace::columnar {

/// Column indices in storage order.  `1u << index` is the matching
/// `ColumnSet` bit (the bitmask constants live in store.hpp so query
/// layers can request column subsets without including this header).
enum Column : std::size_t {
  kColKind = 0,
  kColRank,
  kColMarker,
  kColConstruct,
  kColTStart,
  kColTEnd,
  kColPeer,
  kColTag,
  kColChannelSeq,
  kColBytes,
  kColWildcard,
};

static_assert(kColWildcard + 1 == wire::kNumColumnsV3);

/// Bitmask of columns to decode; bit c selects column index c.
using ColumnSet = std::uint32_t;
inline constexpr ColumnSet kAllColumns =
    (1u << wire::kNumColumnsV3) - 1;

/// Human-readable column name ("kind", "rank", ... ).
[[nodiscard]] const char* column_name(std::size_t col);

enum class Encoding : std::uint8_t {
  kConst = 0,
  kBitPack = 1,
  kVarint = 2,
  kDeltaVarint = 3,
  kRaw = 4,
};

/// Human-readable encoding name ("const", "bitpack", ...).
[[nodiscard]] const char* encoding_name(Encoding e);

inline constexpr std::size_t kNumEncodings = 5;

/// Per-column descriptor within one segment header.
struct ColumnMeta {
  Encoding encoding = Encoding::kConst;
  std::uint8_t width = 0;     ///< bits per value (kBitPack only)
  std::uint64_t base = 0;     ///< kConst value / kBitPack bias
  std::uint32_t byte_len = 0; ///< payload bytes of this column
};

/// Parsed segment header (everything between the record tag and the
/// first column payload).
struct SegmentHeader {
  std::uint32_t count = 0;
  std::array<ColumnMeta, wire::kNumColumnsV3> cols;

  /// Total payload bytes across all columns.
  [[nodiscard]] std::uint64_t payload_bytes() const {
    std::uint64_t n = 0;
    for (const auto& c : cols) n += c.byte_len;
    return n;
  }
};

/// On-disk bytes of tag + count + column descriptors.
inline constexpr std::uint64_t kSegmentHeaderBytes =
    1 + 4 + wire::kNumColumnsV3 * (1 + 1 + 8 + 4);

/// Zone/presence summary of one segment, computed while encoding and
/// stored in the directory footer.
struct SegmentZoneInfo {
  std::uint32_t kind_mask = 0;
  std::uint64_t rank_mask = 0;
  std::array<wire::ColumnZone, wire::kNumColumnsV3> zones{};
};

/// Encodes one segment block (tag byte included) for `events`,
/// appending to `w`.  Fills `zone_out` with the segment's presence
/// masks and per-column zone maps.
void encode_segment(std::span<const Event> events, support::BinaryWriter& w,
                    SegmentZoneInfo* zone_out);

/// Result of decoding (part of) one segment block.
struct DecodeResult {
  SegmentHeader header;
  std::uint64_t block_len = 0;      ///< tag + header + all payloads
  std::uint64_t decoded_bytes = 0;  ///< payload bytes actually decoded
  std::uint32_t decoded_cols = 0;   ///< bitmask of columns decoded
};

/// Parses the header of the segment block starting at `blob[0]` (the
/// kRecordSegment tag).  Throws `FormatError` naming `seg` when the
/// header itself is cut short or malformed.
[[nodiscard]] SegmentHeader parse_segment_header(
    std::span<const std::byte> blob, const std::filesystem::path& path,
    std::size_t seg);

/// Decodes every column of the segment block starting at `blob[0]`
/// into `out` (resized to the segment's count).  Kind bytes and ranks
/// are validated (`num_ranks` < 0 skips the rank-range check).  Throws
/// `FormatError` naming the segment and column on truncation or
/// corruption.
DecodeResult decode_segment(std::span<const std::byte> blob, int num_ranks,
                            std::vector<Event>& out,
                            const std::filesystem::path& path,
                            std::size_t seg);

/// Streaming variant for sweeps and column-pruned scans: decodes the
/// columns selected by `cols` one tile at a time into a stack buffer
/// and calls `visit(base_index + i, event)` for each row while the tile
/// is still cache-hot — the segment's events are never materialized as
/// a whole.  Unselected fields keep their `Event` defaults; `t_start`
/// is decoded implicitly whenever `t_end` is requested (its storage
/// form is a row-local delta).  Kind bytes and ranks are validated when
/// their columns are selected; errors as for `decode_segment`.
DecodeResult decode_segment_visit(
    std::span<const std::byte> blob, ColumnSet cols, int num_ranks,
    std::size_t base_index,
    const std::function<void(std::size_t, const Event&)>& visit,
    const std::filesystem::path& path, std::size_t seg);

}  // namespace tdbg::trace::columnar
