#include "trace/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <string>

#include "support/error.hpp"

namespace tdbg::trace::columnar {

namespace {

constexpr const char* kColumnNames[wire::kNumColumnsV3] = {
    "kind", "rank",    "marker", "construct",   "t_start", "t_end",
    "peer", "tag",     "channel_seq", "bytes",  "wildcard"};

constexpr const char* kEncodingNames[kNumEncodings] = {
    "const", "bitpack", "varint", "delta+varint", "raw"};

/// Widest bitpack the single-word decode loop supports: one unaligned
/// 8-byte load always covers a value starting at any bit offset within
/// a byte (7 + 56 <= 64).
constexpr unsigned kMaxBitPackWidth = 56;

inline std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag64(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Storage transform: field -> u64 column value (bijective per row;
/// `t_end` depends on the same row's `t_start`).
std::uint64_t storage_value(const Event& e, std::size_t col) {
  switch (col) {
    case kColKind: return static_cast<std::uint8_t>(e.kind);
    case kColRank: return static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(e.rank));
    case kColMarker: return e.marker;
    case kColConstruct:
      // kNoConstruct (0xffffffff) packs as 0 so runtime-synthesized
      // events const- or bitpack-encode to almost nothing.
      return static_cast<std::uint32_t>(e.construct + 1);
    case kColTStart: return zigzag64(e.t_start);
    case kColTEnd: return zigzag64(e.t_end - e.t_start);
    case kColPeer: return zigzag64(e.peer);
    case kColTag: return zigzag64(e.tag);
    case kColChannelSeq: return e.channel_seq;
    case kColBytes: return e.bytes;
    case kColWildcard: return e.wildcard ? 1 : 0;
    default: return 0;
  }
}

/// Logical value for the zone map (signed, so min/max match the
/// query-level comparisons).
std::int64_t logical_value(const Event& e, std::size_t col) {
  switch (col) {
    case kColKind: return static_cast<std::uint8_t>(e.kind);
    case kColRank: return e.rank;
    case kColMarker: return static_cast<std::int64_t>(e.marker);
    case kColConstruct: return static_cast<std::int64_t>(e.construct);
    case kColTStart: return e.t_start;
    case kColTEnd: return e.t_end;
    case kColPeer: return e.peer;
    case kColTag: return e.tag;
    case kColChannelSeq: return static_cast<std::int64_t>(e.channel_seq);
    case kColBytes: return static_cast<std::int64_t>(e.bytes);
    case kColWildcard: return e.wildcard ? 1 : 0;
    default: return 0;
  }
}

void append_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

[[noreturn]] void column_error(const std::filesystem::path& path,
                               std::size_t seg, std::size_t col,
                               const std::string& what) {
  throw FormatError(what + " in column '" + kColumnNames[col] +
                    "' of segment " + std::to_string(seg) +
                    " in trace file " + path.string());
}

[[noreturn]] void segment_error(const std::filesystem::path& path,
                                std::size_t seg, const std::string& what) {
  throw FormatError(what + " in segment " + std::to_string(seg) +
                    " in trace file " + path.string());
}

/// Rows per decode tile.  The decode loop processes the segment in
/// tiles: for each tile, every selected column decodes its slice and
/// scatters it into the same ~9 KiB run of events — small enough to
/// stay L1-resident across all eleven column passes instead of the
/// whole multi-megabyte segment being re-walked once per column.
constexpr std::size_t kTileRows = 128;

/// Sequential decode state of one varint/delta-varint column, carried
/// across tiles (varints have no random access).
struct VarintCursor {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;
  std::uint64_t prev = 0;
};

/// Converts one stored value (the on-wire u64 logical form, zigzag
/// still applied for signed fields) into the event's field `C`.
template <std::size_t C>
inline void store_field(Event& e, std::uint64_t v) {
  if constexpr (C == kColKind) {
    e.kind = static_cast<EventKind>(static_cast<std::uint8_t>(v));
  } else if constexpr (C == kColRank) {
    e.rank = static_cast<mpi::Rank>(static_cast<std::uint32_t>(v));
  } else if constexpr (C == kColMarker) {
    e.marker = v;
  } else if constexpr (C == kColConstruct) {
    e.construct = static_cast<std::uint32_t>(v) - 1;
  } else if constexpr (C == kColTStart) {
    e.t_start = unzigzag64(v);
  } else if constexpr (C == kColTEnd) {
    // Storage form is a row-local delta; t_start is always decoded
    // first (column order + the implicit-select rule).
    e.t_end = e.t_start + unzigzag64(v);
  } else if constexpr (C == kColPeer) {
    e.peer = static_cast<mpi::Rank>(unzigzag64(v));
  } else if constexpr (C == kColTag) {
    e.tag = static_cast<mpi::Tag>(unzigzag64(v));
  } else if constexpr (C == kColChannelSeq) {
    e.channel_seq = v;
  } else if constexpr (C == kColBytes) {
    e.bytes = v;
  } else {
    static_assert(C == kColWildcard, "unhandled column");
    e.wildcard = v != 0;
  }
}

/// Columns whose stored domain is a strict subset of u64 and must be
/// range-checked before the narrowing cast above.
template <std::size_t C>
constexpr bool kValidatedColumn =
    C == kColKind || C == kColRank || C == kColConstruct;

template <std::size_t C>
void check_max(std::uint64_t vmax, int num_ranks,
               const std::filesystem::path& path, std::size_t seg) {
  if constexpr (C == kColKind) {
    if (vmax > wire::kMaxEventKind) {
      column_error(path, seg, C,
                   "unknown event kind " + std::to_string(vmax));
    }
  } else if constexpr (C == kColRank) {
    if (num_ranks >= 0 && vmax >= static_cast<std::uint64_t>(num_ranks)) {
      column_error(path, seg, C,
                   "event rank " + std::to_string(vmax) + " out of range");
    }
  } else if constexpr (C == kColConstruct) {
    if (vmax > 0xffffffffull) {
      column_error(path, seg, C, "construct id out of range");
    }
  }
}

/// Decodes rows [i0, i0 + cnt) of column `C` straight into the events'
/// field — no intermediate value buffer, so each tile costs one store
/// per (row, column).  Bitpack/raw columns seek directly; varint
/// columns continue from `vc` (tiles are visited in increasing row
/// order).  `n_fast` is the number of leading rows whose unaligned
/// 8-byte bitpack load lies fully inside the payload.
template <std::size_t C>
void decode_column(const ColumnMeta& m, std::span<const std::byte> payload,
                   VarintCursor& vc, std::size_t n_fast, std::size_t i0,
                   std::size_t cnt, Event* e, int num_ranks,
                   const std::filesystem::path& path, std::size_t seg) {
  std::uint64_t vmax = 0;
  switch (m.encoding) {
    case Encoding::kConst: {
      vmax = m.base;
      for (std::size_t i = 0; i < cnt; ++i) store_field<C>(e[i], m.base);
      break;
    }
    case Encoding::kBitPack: {
      const unsigned w = m.width;  // 1..56, validated by the header parse
      const std::uint64_t mask = (1ull << w) - 1;
      const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
      const std::size_t len = payload.size();
      const std::uint64_t base = m.base;
      std::size_t bitpos = i0 * w;
      std::size_t i = 0;
      const std::size_t fast =
          i0 < n_fast ? std::min(cnt, n_fast - i0) : 0;
      // Batched extraction: one 8-byte load yields every value that
      // lies fully inside the loaded word ((64 - bit_offset) / w of
      // them), instead of one load per value.
      while (i < fast) {
        std::uint64_t word;
        std::memcpy(&word, p + (bitpos >> 3), 8);
        const unsigned o = static_cast<unsigned>(bitpos & 7);
        std::uint64_t rest = word >> o;
        const std::size_t take =
            std::min<std::size_t>(fast - i, (64 - o) / w);
        for (std::size_t j = 0; j < take; ++j) {
          const std::uint64_t v = base + (rest & mask);
          rest >>= w;
          if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
          store_field<C>(e[i + j], v);
        }
        i += take;
        bitpos += take * w;
      }
      for (; i < cnt; ++i) {
        std::uint64_t word = 0;
        const std::size_t byteoff = bitpos >> 3;
        std::memcpy(&word, p + byteoff,
                    std::min<std::size_t>(8, len - byteoff));
        const std::uint64_t v = base + ((word >> (bitpos & 7)) & mask);
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
        bitpos += w;
      }
      break;
    }
    case Encoding::kVarint:
    case Encoding::kDeltaVarint: {
      const bool delta = m.encoding == Encoding::kDeltaVarint;
      const unsigned char* p = vc.p;
      const unsigned char* const end = vc.end;
      std::uint64_t prev = vc.prev;
      for (std::size_t i = 0; i < cnt; ++i) {
        std::uint64_t v;
        // Single-byte values dominate every varint column we emit
        // (deltas and sequence gaps are small); peel that case.
        if (p != end && *p < 0x80) {
          v = *p++;
        } else {
          v = 0;
          unsigned shift = 0;
          while (true) {
            if (p == end || shift > 63) {
              column_error(path, seg, C, "corrupt varint");
            }
            const unsigned char b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) break;
            shift += 7;
          }
        }
        if (delta) {
          prev += static_cast<std::uint64_t>(unzigzag64(v));
          v = prev;
        }
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
      }
      vc.p = p;
      vc.prev = prev;
      break;
    }
    case Encoding::kRaw: {
      const auto* p = payload.data() + 8 * i0;
      for (std::size_t i = 0; i < cnt; ++i) {
        std::uint64_t v;
        std::memcpy(&v, p + 8 * i, 8);
        if constexpr (kValidatedColumn<C>) vmax = std::max(vmax, v);
        store_field<C>(e[i], v);
      }
      break;
    }
    default:
      column_error(path, seg, C, "unknown column encoding");
  }
  if constexpr (kValidatedColumn<C>) check_max<C>(vmax, num_ranks, path, seg);
}

/// Runtime-index dispatch into the templated per-column decoder.
void decode_column_dyn(std::size_t c, const ColumnMeta& m,
                       std::span<const std::byte> payload, VarintCursor& vc,
                       std::size_t n_fast, std::size_t i0, std::size_t cnt,
                       Event* e, int num_ranks,
                       const std::filesystem::path& path, std::size_t seg) {
  switch (c) {
    case kColKind:
      decode_column<kColKind>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColRank:
      decode_column<kColRank>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColMarker:
      decode_column<kColMarker>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                                path, seg);
      return;
    case kColConstruct:
      decode_column<kColConstruct>(m, payload, vc, n_fast, i0, cnt, e,
                                   num_ranks, path, seg);
      return;
    case kColTStart:
      decode_column<kColTStart>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                                path, seg);
      return;
    case kColTEnd:
      decode_column<kColTEnd>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColPeer:
      decode_column<kColPeer>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                              path, seg);
      return;
    case kColTag:
      decode_column<kColTag>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                             path, seg);
      return;
    case kColChannelSeq:
      decode_column<kColChannelSeq>(m, payload, vc, n_fast, i0, cnt, e,
                                    num_ranks, path, seg);
      return;
    case kColBytes:
      decode_column<kColBytes>(m, payload, vc, n_fast, i0, cnt, e, num_ranks,
                               path, seg);
      return;
    case kColWildcard:
      decode_column<kColWildcard>(m, payload, vc, n_fast, i0, cnt, e,
                                  num_ranks, path, seg);
      return;
    default:
      return;
  }
}

}  // namespace

const char* column_name(std::size_t col) {
  return col < wire::kNumColumnsV3 ? kColumnNames[col] : "?";
}

const char* encoding_name(Encoding e) {
  const auto i = static_cast<std::size_t>(e);
  return i < kNumEncodings ? kEncodingNames[i] : "?";
}

void encode_segment(std::span<const Event> events, support::BinaryWriter& w,
                    SegmentZoneInfo* zone_out) {
  const std::size_t n = events.size();
  SegmentZoneInfo zi;
  for (const Event& e : events) {
    zi.kind_mask |= 1u << static_cast<std::uint8_t>(e.kind);
    const int bit = e.rank >= 0 ? std::min(e.rank, 63) : 63;
    zi.rank_mask |= 1ull << bit;
  }

  SegmentHeader h;
  h.count = static_cast<std::uint32_t>(n);
  std::array<std::vector<std::byte>, wire::kNumColumnsV3> payloads;
  std::vector<std::uint64_t> vals(n);

  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    auto& zone = zi.zones[c];
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = storage_value(events[i], c);
      const std::int64_t lv = logical_value(events[i], c);
      if (i == 0) {
        zone.lo = zone.hi = lv;
      } else {
        zone.lo = std::min(zone.lo, lv);
        zone.hi = std::max(zone.hi, lv);
      }
    }
    auto& m = h.cols[c];
    auto& payload = payloads[c];
    if (n == 0) {
      m = ColumnMeta{};
      continue;
    }
    std::uint64_t vmin = vals[0];
    std::uint64_t vmax = vals[0];
    for (std::size_t i = 1; i < n; ++i) {
      vmin = std::min(vmin, vals[i]);
      vmax = std::max(vmax, vals[i]);
    }
    if (vmin == vmax) {
      m.encoding = Encoding::kConst;
      m.base = vmin;
      m.byte_len = 0;
      continue;
    }
    const unsigned width =
        static_cast<unsigned>(std::bit_width(vmax - vmin));
    const std::uint64_t size_bp =
        width <= kMaxBitPackWidth
            ? (static_cast<std::uint64_t>(n) * width + 7) / 8
            : ~0ull;
    std::uint64_t size_var = 0;
    std::uint64_t size_delta = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      size_var += varint_size(vals[i]);
      size_delta += varint_size(
          zigzag64(static_cast<std::int64_t>(vals[i] - prev)));
      prev = vals[i];
    }
    const std::uint64_t size_raw = 8ull * n;
    const std::uint64_t best =
        std::min({size_bp, size_var, size_delta, size_raw});

    if (best == size_bp) {
      m.encoding = Encoding::kBitPack;
      m.width = static_cast<std::uint8_t>(width);
      m.base = vmin;
      payload.reserve(size_bp);
      std::uint64_t acc = 0;
      unsigned bits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc |= (vals[i] - vmin) << bits;
        bits += width;
        while (bits >= 8) {
          payload.push_back(static_cast<std::byte>(acc & 0xff));
          acc >>= 8;
          bits -= 8;
        }
      }
      if (bits > 0) payload.push_back(static_cast<std::byte>(acc & 0xff));
    } else if (best == size_var) {
      m.encoding = Encoding::kVarint;
      payload.reserve(size_var);
      for (std::size_t i = 0; i < n; ++i) append_varint(payload, vals[i]);
    } else if (best == size_delta) {
      m.encoding = Encoding::kDeltaVarint;
      payload.reserve(size_delta);
      prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        append_varint(payload,
                      zigzag64(static_cast<std::int64_t>(vals[i] - prev)));
        prev = vals[i];
      }
    } else {
      m.encoding = Encoding::kRaw;
      payload.resize(size_raw);
      std::memcpy(payload.data(), vals.data(), size_raw);
    }
    m.byte_len = static_cast<std::uint32_t>(payload.size());
  }

  w.put<std::uint8_t>(wire::kRecordSegment);
  w.put<std::uint32_t>(h.count);
  for (const auto& m : h.cols) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(m.encoding));
    w.put<std::uint8_t>(m.width);
    w.put<std::uint64_t>(m.base);
    w.put<std::uint32_t>(m.byte_len);
  }
  for (const auto& payload : payloads) {
    w.put_raw(std::span<const std::byte>(payload));
  }
  if (zone_out != nullptr) *zone_out = zi;
}

SegmentHeader parse_segment_header(std::span<const std::byte> blob,
                                   const std::filesystem::path& path,
                                   std::size_t seg) {
  if (blob.size() < kSegmentHeaderBytes) {
    segment_error(path, seg, "truncated segment header");
  }
  if (std::to_integer<std::uint8_t>(blob[0]) != wire::kRecordSegment) {
    segment_error(path, seg, "bad segment record tag");
  }
  SegmentHeader h;
  const auto* p = reinterpret_cast<const unsigned char*>(blob.data()) + 1;
  std::memcpy(&h.count, p, 4);
  p += 4;
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    auto& m = h.cols[c];
    const std::uint8_t enc = *p++;
    if (enc >= kNumEncodings) {
      column_error(path, seg, c, "unknown column encoding " +
                                     std::to_string(enc));
    }
    m.encoding = static_cast<Encoding>(enc);
    m.width = *p++;
    std::memcpy(&m.base, p, 8);
    p += 8;
    std::memcpy(&m.byte_len, p, 4);
    p += 4;
    // Analytic length checks for the fixed-size encodings: a mismatch
    // means the header and payload disagree (corruption) — fail here,
    // before any decode loop trusts the numbers.
    const auto n = static_cast<std::uint64_t>(h.count);
    switch (m.encoding) {
      case Encoding::kConst:
        if (m.byte_len != 0) {
          column_error(path, seg, c, "const column with payload");
        }
        break;
      case Encoding::kBitPack:
        if (m.width == 0 || m.width > kMaxBitPackWidth ||
            m.byte_len != (n * m.width + 7) / 8) {
          column_error(path, seg, c, "bitpack column length mismatch");
        }
        break;
      case Encoding::kRaw:
        if (m.byte_len != 8 * n) {
          column_error(path, seg, c, "raw column length mismatch");
        }
        break;
      case Encoding::kVarint:
      case Encoding::kDeltaVarint:
        break;
    }
  }
  return h;
}

namespace {

/// The shared tiled decode loop.  `dest(i0, cnt, n)` names the Event
/// run a tile decodes into; `done(i0, cnt, events)` runs after the
/// tile's columns have all been scattered, while the run is cache-hot.
template <typename Dest, typename Done>
DecodeResult decode_tiles(std::span<const std::byte> blob, ColumnSet cols,
                          int num_ranks, const std::filesystem::path& path,
                          std::size_t seg, const Dest& dest, const Done& done) {
  DecodeResult res;
  res.header = parse_segment_header(blob, path, seg);
  const std::size_t n = res.header.count;
  res.block_len = kSegmentHeaderBytes + res.header.payload_bytes();

  ColumnSet eff = cols & kAllColumns;
  if ((eff & (1u << kColTEnd)) != 0) eff |= 1u << kColTStart;

  // Locate (and bounds-check) every column payload up front, so a
  // truncated block fails with the offending column's name whether or
  // not that column was selected.
  std::array<std::span<const std::byte>, wire::kNumColumnsV3> payload;
  std::array<VarintCursor, wire::kNumColumnsV3> cursor;
  std::array<std::size_t, wire::kNumColumnsV3> bp_fast{};
  std::uint64_t off = kSegmentHeaderBytes;
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    const auto& m = res.header.cols[c];
    if (off + m.byte_len > blob.size()) {
      column_error(path, seg, c,
                   "truncated column payload (needs " +
                       std::to_string(off + m.byte_len) + " bytes, have " +
                       std::to_string(blob.size()) + ")");
    }
    payload[c] = blob.subspan(off, m.byte_len);
    off += m.byte_len;
    if ((eff & (1u << c)) == 0 || n == 0) continue;
    res.decoded_bytes += m.byte_len;
    res.decoded_cols |= 1u << c;
    switch (m.encoding) {
      case Encoding::kVarint:
      case Encoding::kDeltaVarint: {
        const auto* p =
            reinterpret_cast<const unsigned char*>(payload[c].data());
        cursor[c] = VarintCursor{p, p + payload[c].size(), 0};
        break;
      }
      case Encoding::kBitPack:
        // Leading rows whose unaligned 8-byte load stays in bounds.
        if (payload[c].size() >= 8) {
          bp_fast[c] = std::min<std::size_t>(
              n, (8 * (payload[c].size() - 8) + 7) / m.width + 1);
        }
        break;
      default:
        break;
    }
  }

  // Tiled decode: each ~kTileRows run of events takes all its columns
  // while hot, turning the column-at-a-time scatter into one streaming
  // pass over the segment.
  for (std::size_t i0 = 0; i0 < n; i0 += kTileRows) {
    const std::size_t cnt = std::min(kTileRows, n - i0);
    Event* e = dest(i0, cnt, n);
    for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
      if ((eff & (1u << c)) == 0) continue;
      decode_column_dyn(c, res.header.cols[c], payload[c], cursor[c],
                        bp_fast[c], i0, cnt, e, num_ranks, path, seg);
    }
    done(i0, cnt, e);
  }

  // A varint column must be consumed exactly by its n rows.
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    if ((res.decoded_cols & (1u << c)) == 0) continue;
    const auto enc = res.header.cols[c].encoding;
    if ((enc == Encoding::kVarint || enc == Encoding::kDeltaVarint) &&
        cursor[c].p != cursor[c].end) {
      column_error(path, seg, c, "trailing bytes after varint column");
    }
  }
  return res;
}

}  // namespace

DecodeResult decode_segment(std::span<const std::byte> blob, int num_ranks,
                            std::vector<Event>& out,
                            const std::filesystem::path& path,
                            std::size_t seg) {
  const auto res = decode_tiles(
      blob, kAllColumns, num_ranks, path, seg,
      [&out](std::size_t i0, std::size_t, std::size_t n) {
        // Every field is overwritten, so a resize without clearing is
        // enough.
        if (i0 == 0) out.resize(n);
        return out.data() + i0;
      },
      [](std::size_t, std::size_t, const Event*) {});
  out.resize(res.header.count);  // covers the zero-tile (empty) case
  return res;
}

DecodeResult decode_segment_visit(
    std::span<const std::byte> blob, ColumnSet cols, int num_ranks,
    std::size_t base_index,
    const std::function<void(std::size_t, const Event&)>& visit,
    const std::filesystem::path& path, std::size_t seg) {
  // One tile of events on the stack: a scan never materializes more
  // than kTileRows rows, and each row is visited straight out of L1.
  // Unselected columns are never written, so they keep their defaults.
  std::array<Event, kTileRows> buf;
  return decode_tiles(
      blob, cols, num_ranks, path, seg,
      [&buf](std::size_t, std::size_t, std::size_t) { return buf.data(); },
      [&](std::size_t i0, std::size_t cnt, const Event* e) {
        for (std::size_t k = 0; k < cnt; ++k) {
          visit(base_index + i0 + k, e[k]);
        }
      });
}

}  // namespace tdbg::trace::columnar
