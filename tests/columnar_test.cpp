// TDBGTRC3 columnar trace store tests (ctest label `trace`):
//
//   * v3 round-trips (eager and lazy readers) on synthetic, extreme,
//     and recorded traces,
//   * conversion chains v3 <-> v2 <-> v1 <-> text, including the
//     v2 -> v3 -> v2 byte-identity contract,
//   * truncated/corrupted v3 blocks raise FormatError naming the
//     segment and the column (hand-corrupted regression), and so does a
//     directory that does not describe the file,
//   * zone-map skipping and column pruning advance the trace.decode.*
//     counters without changing any query result, and a v3 sweep or
//     column scan installs nothing in the segment cache,
//   * analysis artifacts (matching, traffic, comm graph, races,
//     critical path, past frontiers, action/trace/call graph DOT) are
//     byte-identical on the storm, deadlock_ring and strassen workloads
//     across both backends, all three binary versions, at 1 and 8
//     threads.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "apps/strassen.hpp"
#include "fault/engine.hpp"
#include "fault/plan.hpp"
#include "graph/export.hpp"
#include "mpi/runtime.hpp"
#include "obs/metrics.hpp"
#include "replay/record.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "trace/columnar.hpp"
#include "trace/store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/wire.hpp"

namespace tdbg {
namespace {

class TempFile {
 public:
  TempFile() {
    path_ = std::filesystem::temp_directory_path() /
            ("tdbg_columnar_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++) + ".trc");
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

bool same_event(const trace::Event& a, const trace::Event& b) {
  return a.kind == b.kind && a.rank == b.rank && a.marker == b.marker &&
         a.construct == b.construct && a.t_start == b.t_start &&
         a.t_end == b.t_end && a.peer == b.peer && a.tag == b.tag &&
         a.channel_seq == b.channel_seq && a.bytes == b.bytes &&
         a.wildcard == b.wildcard;
}

void expect_same_trace(const trace::Trace& a, const trace::Trace& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_event(a.event(i), b.event(i))) << "event " << i;
  }
}

/// Display-sorted synthetic trace with monotone per-rank markers,
/// valid channel sequence numbers, and a mix of computes, sends, and
/// receives — every binary format accepts it, and the v2/v3 writers
/// earn the sorted footer flags (so `open_trace` goes lazy).
std::vector<trace::Event> synth_events(std::size_t n, int ranks,
                                       std::uint64_t seed) {
  auto rng = support::SplitMix64(seed).split(1);
  std::vector<trace::Event> events;
  events.reserve(n);
  std::vector<std::uint64_t> next_marker(static_cast<std::size_t>(ranks), 1);
  std::map<std::pair<int, int>, std::pair<std::uint64_t, std::uint64_t>> chan;
  for (std::size_t i = 0; i < n; ++i) {
    trace::Event e;
    const int rank =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
    e.rank = rank;
    e.marker = next_marker[static_cast<std::size_t>(rank)]++;
    e.t_start = static_cast<support::TimeNs>(i) * 10;
    e.t_end = e.t_start + static_cast<support::TimeNs>(rng.next_below(9));
    const auto roll = rng.next_below(4);
    e.kind = trace::EventKind::kCompute;
    if (roll == 0 && ranks > 1) {
      const int peer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 +
           rng.next_below(static_cast<std::uint64_t>(ranks - 1))) %
          static_cast<std::uint64_t>(ranks));
      e.kind = trace::EventKind::kSend;
      e.peer = peer;
      e.tag = static_cast<mpi::Tag>(rng.next_below(5));
      e.bytes = 8 + rng.next_below(4096);
      ++chan[{rank, peer}].first;
    } else if (roll == 1) {
      const auto start = rng.next_below(static_cast<std::uint64_t>(ranks));
      for (int k = 0; k < ranks; ++k) {
        const int src = static_cast<int>(
            (start + static_cast<std::uint64_t>(k)) %
            static_cast<std::uint64_t>(ranks));
        auto& [sent, received] = chan[{src, rank}];
        if (src == rank || received >= sent) continue;
        e.kind = trace::EventKind::kRecv;
        e.peer = src;
        e.channel_seq = static_cast<mpi::ChannelSeq>(received++);
        e.tag = static_cast<mpi::Tag>(rng.next_below(5));
        e.bytes = 8 + rng.next_below(4096);
        e.wildcard = rng.next_below(2) == 0;
        break;
      }
    }
    events.push_back(e);
  }
  return events;
}

trace::Trace synth_trace(std::size_t n, int ranks, std::uint64_t seed) {
  return trace::Trace(ranks, synth_events(n, ranks, seed), nullptr);
}

std::vector<char> slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// --- round-trips -----------------------------------------------------------

TEST(ColumnarTest, V3RoundTripEagerAndLazy) {
  const auto original = synth_trace(3000, 5, /*seed=*/11);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);

  const auto eager = trace::read_trace(file.path());
  expect_same_trace(original, eager);

  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy()) << "sorted v3 file should open segmented";
  expect_same_trace(original, lazy);

  // Per-rank program order survives the columnar round-trip.
  const auto rank_order = [](const trace::Trace& t, mpi::Rank r) {
    std::vector<std::size_t> seq;
    t.for_each_rank_event(
        r, [&seq](std::size_t i, const trace::Event&) { seq.push_back(i); });
    return seq;
  };
  for (mpi::Rank r = 0; r < original.num_ranks(); ++r) {
    EXPECT_EQ(rank_order(original, r), rank_order(lazy, r)) << "rank " << r;
  }
}

TEST(ColumnarTest, ExtremeFieldValuesRoundTrip) {
  // High-entropy and boundary values force every encoding (raw,
  // zigzag'd negatives, 64-bit maxima) through the codec.
  std::vector<trace::Event> events;
  auto rng = support::SplitMix64(99).split(2);
  for (std::size_t i = 0; i < 300; ++i) {
    trace::Event e;
    e.rank = static_cast<int>(i % 3);
    e.marker = (i < 5) ? ~std::uint64_t{0} - i : rng.next();
    e.kind = static_cast<trace::EventKind>(i % 8);
    e.construct = (i % 7 == 0) ? trace::kNoConstruct
                               : static_cast<trace::ConstructId>(i);
    e.t_start = static_cast<support::TimeNs>(i) * 1000;
    e.t_end = e.t_start - 17;  // end before start: still bijective
    e.peer = (i % 2 == 0) ? -1 : static_cast<int>(rng.next_below(1u << 30));
    e.tag = (i % 3 == 0) ? -1 : static_cast<int>(rng.next_below(1u << 20));
    e.channel_seq = rng.next();
    e.bytes = (i % 5 == 0) ? ~std::uint64_t{0} : rng.next();
    e.wildcard = (i % 2) != 0;
    events.push_back(e);
  }
  TempFile file;
  {
    auto registry = std::make_shared<trace::ConstructRegistry>();
    trace::TraceWriter writer(file.path(), /*num_ranks=*/3, registry,
                              trace::TraceFormat::kBinaryV3,
                              /*segment_events=*/64);
    writer.write_events(events);
    writer.finish();
  }
  const auto loaded = trace::read_trace(file.path());
  ASSERT_EQ(loaded.size(), events.size());
  // t_start is unique and increasing, so display order == input order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(same_event(events[i], loaded.event(i))) << "event " << i;
  }
}

TEST(ColumnarTest, ConversionChainPreservesEvents) {
  const auto original = synth_trace(1500, 4, /*seed=*/21);
  TempFile v3, v2, v1, text, back;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  trace::write_trace(v2.path(), trace::read_trace(v3.path()),
                     trace::TraceFormat::kBinary, /*segment_events=*/128);
  trace::write_trace(v1.path(), trace::read_trace(v2.path()),
                     trace::TraceFormat::kBinaryV1);
  trace::write_trace(text.path(), trace::read_trace(v1.path()),
                     trace::TraceFormat::kText);
  trace::write_trace(back.path(), trace::read_trace(text.path()),
                     trace::TraceFormat::kBinaryV3, /*segment_events=*/128);
  expect_same_trace(original, trace::read_trace(back.path()));
}

TEST(ColumnarTest, V2ToV3ToV2IsByteIdentical) {
  const auto original = synth_trace(2000, 4, /*seed=*/31);
  TempFile v2a, v3, v2b;
  trace::write_trace(v2a.path(), original, trace::TraceFormat::kBinary,
                     /*segment_events=*/256);
  trace::write_trace(v3.path(), trace::read_trace(v2a.path()),
                     trace::TraceFormat::kBinaryV3, /*segment_events=*/256);
  trace::write_trace(v2b.path(), trace::read_trace(v3.path()),
                     trace::TraceFormat::kBinary, /*segment_events=*/256);
  EXPECT_EQ(slurp(v2a.path()), slurp(v2b.path()));
}

TEST(ColumnarTest, V3IsSmallerThanV2) {
  const auto original = synth_trace(20000, 6, /*seed=*/41);
  TempFile v2, v3;
  trace::write_trace(v2.path(), original, trace::TraceFormat::kBinary);
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3);
  const auto s2 = std::filesystem::file_size(v2.path());
  const auto s3 = std::filesystem::file_size(v3.path());
  EXPECT_LT(s3, s2 / 2) << "v3=" << s3 << " v2=" << s2;
}

TEST(ColumnarTest, InspectReportsColumnsAndCompression) {
  const auto original = synth_trace(2000, 4, /*seed=*/51);
  TempFile v3;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/512);
  const auto info = trace::inspect_trace(v3.path());
  EXPECT_EQ(info.format, "binary-v3");
  EXPECT_EQ(info.event_count, original.size());
  EXPECT_TRUE(info.has_footer);

  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(footer->footer.version, 3u);
  const auto columns = trace::inspect_columns(v3.path(), *footer);
  ASSERT_EQ(columns.size(), trace::wire::kNumColumnsV3);
  EXPECT_EQ(columns[0].name, "kind");
  std::uint64_t payload = 0;
  for (const auto& c : columns) {
    EXPECT_FALSE(c.encodings.empty()) << c.name;
    payload += c.bytes;
  }
  EXPECT_LT(payload, original.size() * trace::wire::kEventRecordBytes);
}

// --- failure modes ---------------------------------------------------------

void truncate_copy(const std::filesystem::path& from,
                   const std::filesystem::path& to, std::uint64_t keep) {
  const auto bytes = slurp(from);
  ASSERT_LE(keep, bytes.size());
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(keep));
}

TEST(ColumnarTest, TruncatedMidColumnNamesSegmentAndColumn) {
  const auto original = synth_trace(600, 4, /*seed=*/61);
  TempFile v3, cut;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  ASSERT_GE(footer->footer.segments.size(), 3u);
  const auto& seg2 = footer->footer.segments[2];

  // Cut three bytes into segment 2's last column payload.
  truncate_copy(v3.path(), cut.path(), seg2.offset + seg2.byte_len - 3);
  try {
    (void)trace::read_trace(cut.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("segment 2"), std::string::npos) << what;
    EXPECT_NE(what.find("in column '"), std::string::npos) << what;
  }

  // Cut inside segment 2's header: still named, still FormatError.
  truncate_copy(v3.path(), cut.path(),
                seg2.offset + trace::columnar::kSegmentHeaderBytes - 2);
  try {
    (void)trace::read_trace(cut.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("segment 2"), std::string::npos)
        << e.what();
  }

  // A cut at a block boundary before the footer is a readable prefix
  // (flush-snapshot semantics), not an error.
  truncate_copy(v3.path(), cut.path(), seg2.offset);
  const auto prefix = trace::read_trace(cut.path());
  EXPECT_EQ(prefix.size(),
            footer->footer.segments[0].count + footer->footer.segments[1].count);
}

TEST(ColumnarTest, CorruptEncodingByteNamesColumn) {
  const auto original = synth_trace(300, 3, /*seed=*/71);
  TempFile v3;
  trace::write_trace(v3.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/128);
  const auto footer = trace::try_read_footer(v3.path());
  ASSERT_TRUE(footer.has_value());
  // Column 0 ("kind")'s encoding byte sits right after tag + count.
  const auto pos = footer->footer.segments[0].offset + 1 + 4;
  {
    std::fstream f(v3.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(pos));
    const char bad = static_cast<char>(0xee);
    f.write(&bad, 1);
  }
  try {
    (void)trace::read_trace(v3.path());
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("column 'kind'"), std::string::npos) << what;
    EXPECT_NE(what.find("segment 0"), std::string::npos) << what;
  }
}

/// Re-encodes `path`'s footer after `edit` has changed its directory;
/// the bytes before the footer stay as written.
void rewrite_directory(const std::filesystem::path& path,
                       const std::function<void(trace::wire::Footer&)>& edit) {
  auto parsed = trace::try_read_footer(path);
  ASSERT_TRUE(parsed.has_value());
  auto& footer = parsed->footer;
  const std::uint64_t offset = footer.offset;
  edit(footer);
  support::BinaryWriter w;
  trace::wire::encode_construct_table(w, footer.constructs);
  const char* magic = trace::wire::kFooterMagic;
  if (footer.version == 3) {
    trace::wire::encode_directory_v3(w, footer);
    magic = trace::wire::kFooterMagicV3;
  } else {
    trace::wire::encode_directory(w, footer);
  }
  w.put<std::uint64_t>(offset);
  w.put_raw(std::as_bytes(std::span(magic, sizeof trace::wire::kFooterMagic)));
  auto bytes = slurp(path);
  bytes.resize(offset);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
}

/// Runs `read` and expects a FormatError naming `path` and segment `seg`.
void expect_directory_error(const std::filesystem::path& path,
                            std::size_t seg,
                            const std::function<void()>& read) {
  try {
    read();
    ADD_FAILURE() << "expected FormatError";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("segment " + std::to_string(seg)), std::string::npos)
        << what;
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
  }
}

TEST(ColumnarTest, DirectoryCountShortOfBlockIsFormatError) {
  // The last segment's directory count (and the event total) one short
  // of what its block holds: every read of that block must refuse it
  // rather than hand a visitor an index past size().
  const auto original = synth_trace(1000, 4, /*seed=*/101);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);
  rewrite_directory(file.path(), [](trace::wire::Footer& f) {
    --f.segments.back().count;
    --f.event_count;
  });
  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy());
  ASSERT_EQ(lazy.size(), original.size() - 1);
  const std::size_t last = lazy.segment_count() - 1;
  const auto ignore = [](std::size_t, const trace::Event&) {};
  expect_directory_error(file.path(), last, [&] {
    lazy.for_each_in_segment_cols(last, trace::kColRank, ignore);
  });
  expect_directory_error(file.path(), last,
                         [&] { lazy.for_each_event(ignore); });
  expect_directory_error(file.path(), last,
                         [&] { (void)lazy.event(lazy.size() - 1); });
}

TEST(ColumnarTest, DirectoryRankCountMismatchIsFormatError) {
  // Segment 0's per-rank counts moved by one between two ranks (the
  // totals still agree): a program-order lookup must not index past the
  // rank's events in the block.
  const auto original = synth_trace(1000, 4, /*seed=*/109);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);
  std::uint64_t rank0_count = 0;
  rewrite_directory(file.path(), [&](trace::wire::Footer& f) {
    auto& ranks = f.segments[0].ranks;
    ASSERT_GT(ranks[1].count, 0u);
    rank0_count = ranks[0].count++;
    --ranks[1].count;
  });
  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy());
  expect_directory_error(file.path(), 0, [&] {
    (void)lazy.rank_event(0, static_cast<std::size_t>(rank0_count));
  });
}

TEST(ColumnarTest, SegmentPastFooterIsFormatError) {
  // A byte length of 2^44 must fail at open, not as an allocation on
  // the first read.
  const auto original = synth_trace(1000, 4, /*seed=*/103);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);
  std::size_t last = 0;
  rewrite_directory(file.path(), [&](trace::wire::Footer& f) {
    f.segments.back().byte_len = std::uint64_t{1} << 44;
    last = f.segments.size() - 1;
  });
  expect_directory_error(file.path(), last,
                         [&] { (void)trace::open_trace(file.path()); });
}

TEST(ColumnarTest, V2SegmentLengthMismatchIsFormatError) {
  // A v2 segment one record shorter than its count claims.
  const auto original = synth_trace(1000, 4, /*seed=*/107);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinary,
                     /*segment_events=*/256);
  std::size_t last = 0;
  rewrite_directory(file.path(), [&](trace::wire::Footer& f) {
    f.segments.back().byte_len -= trace::wire::kEventRecordBytes;
    last = f.segments.size() - 1;
  });
  expect_directory_error(file.path(), last,
                         [&] { (void)trace::open_trace(file.path()); });
}

// --- zone maps, column pruning, counters -----------------------------------

TEST(ColumnarTest, QueriesMatchEagerAcrossVersionsAndCountersAdvance) {
  const auto original = synth_trace(4000, 5, /*seed=*/81);
  auto& reg = obs::MetricsRegistry::global();
  for (const auto format :
       {trace::TraceFormat::kBinary, trace::TraceFormat::kBinaryV3}) {
    TempFile file;
    trace::write_trace(file.path(), original, format, /*segment_events=*/256);
    const auto lazy = trace::open_trace(file.path());
    ASSERT_TRUE(lazy.is_lazy());

    // Zones exist on both segmented versions; v3's are exact.
    const auto zones = lazy.segment_zones(0);
    ASSERT_TRUE(zones.has_value());
    EXPECT_NE(zones->rank_mask, 0u);
    EXPECT_NE(zones->kind_mask, 0u);

    // Window queries (the server's `window` op) match the in-memory
    // reference.
    const auto t_hi = original.t_max();
    const auto skipped_before =
        reg.counter("trace.decode.segments_skipped").total();
    for (const auto& [t0, t1] :
         std::vector<std::pair<support::TimeNs, support::TimeNs>>{
             {t_hi - 500, t_hi},
             {0, 500},
             {t_hi / 2, t_hi / 2 + 1000},
             {0, t_hi}}) {
      EXPECT_EQ(lazy.events_in_window(t0, t1),
                original.events_in_window(t0, t1))
          << "window [" << t0 << ", " << t1 << "]";
    }
    // The late windows skip every early segment via the directory
    // (counters compile to no-ops under TDBG_METRICS=OFF).
    if constexpr (obs::kMetricsEnabled) {
      EXPECT_GT(reg.counter("trace.decode.segments_skipped").total(),
                skipped_before);
    }
  }
}

TEST(ColumnarTest, ColumnPruningCountsSkippedColumns) {
  const auto original = synth_trace(2000, 4, /*seed=*/91);
  TempFile file;
  trace::write_trace(file.path(), original, trace::TraceFormat::kBinaryV3,
                     /*segment_events=*/256);
  const auto lazy = trace::open_trace(file.path());
  ASSERT_TRUE(lazy.is_lazy());
  exec::ScopedExecutor pool(4);

  auto& reg = obs::MetricsRegistry::global();
  const auto cols_before = reg.counter("trace.decode.columns_skipped").total();
  const auto bytes_before = reg.counter("trace.decode.decoded_bytes").total();

  // Ask for rank + marker only: those fields match the original; the
  // columns the caller promised not to read stay encoded.
  std::size_t visited = 0;
  lazy.for_each_in_segment_cols(
      0, trace::kColRank | trace::kColMarker,
      [&](std::size_t i, const trace::Event& e) {
        const auto want = original.event(i);
        EXPECT_EQ(e.rank, want.rank) << "event " << i;
        EXPECT_EQ(e.marker, want.marker) << "event " << i;
        ++visited;
      });
  EXPECT_EQ(visited, lazy.segment_range(0).second);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GT(reg.counter("trace.decode.columns_skipped").total(),
              cols_before);
    EXPECT_GT(reg.counter("trace.decode.decoded_bytes").total(), bytes_before);
  }

  // A v3 sweep and column scans of every segment, on a parallel pool,
  // decode straight into their visitors and install nothing.
  std::size_t swept = 0;
  lazy.for_each_event([&](std::size_t, const trace::Event&) { ++swept; });
  EXPECT_EQ(swept, original.size());
  std::atomic<std::size_t> scanned{0};
  lazy.parallel_for_each_segment("test.cols", [&](std::size_t seg) {
    lazy.for_each_in_segment_cols(
        seg, trace::kColKind | trace::kColTStart,
        [&](std::size_t, const trace::Event&) { scanned.fetch_add(1); });
  });
  EXPECT_EQ(scanned.load(), original.size());
  const auto* seg_store = dynamic_cast<const trace::SegmentedTraceStore*>(
      lazy.store().get());
  ASSERT_NE(seg_store, nullptr);
  const auto stats = seg_store->cache_stats();
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.resident_segments, 0u);
}

// --- workload artifact identity --------------------------------------------

struct StormPlan {
  std::vector<std::vector<std::array<int, 3>>> sends;  // (dest, tag, payload)
  std::vector<int> recv_count;
};

StormPlan make_storm_plan(int ranks, int msgs_per_rank, std::uint64_t seed) {
  StormPlan plan;
  plan.sends.resize(static_cast<std::size_t>(ranks));
  plan.recv_count.assign(static_cast<std::size_t>(ranks), 0);
  const support::SplitMix64 root(seed);
  for (int s = 0; s < ranks; ++s) {
    auto rng = root.split(static_cast<std::uint64_t>(s));
    for (int m = 0; m < msgs_per_rank; ++m) {
      const int dest =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
      const int tag = static_cast<int>(rng.next_below(5));
      const int payload = static_cast<int>(rng.next_below(100000));
      plan.sends[static_cast<std::size_t>(s)].push_back({dest, tag, payload});
      ++plan.recv_count[static_cast<std::size_t>(dest)];
    }
  }
  return plan;
}

mpi::RankBody storm_body(const StormPlan& plan) {
  return [plan](mpi::Comm& comm) {
    const auto& mine = plan.sends[static_cast<std::size_t>(comm.rank())];
    for (const auto& [dest, tag, payload] : mine) {
      comm.send_value<int>(payload, dest, tag, "storm_send");
    }
    const int quota = plan.recv_count[static_cast<std::size_t>(comm.rank())];
    for (int i = 0; i < quota; ++i) {
      comm.recv_value<int>(mpi::kAnySource, mpi::kAnyTag, nullptr,
                           "storm_recv");
    }
  };
}

mpi::RankBody ring_body(int n) {
  return [n](mpi::Comm& comm) {
    const mpi::Rank r = comm.rank();
    const mpi::Rank next = (r + 1) % n;
    const mpi::Rank prev = (r + n - 1) % n;
    if (r == 0) {
      comm.send_value<int>(42, next, /*tag=*/1);
      comm.recv_value<int>(prev, /*tag=*/1);
    } else {
      const int token = comm.recv_value<int>(prev, /*tag=*/1);
      comm.send_value<int>(token, next, /*tag=*/1);
    }
  };
}

/// Canonical artifact bundle: everything stringified, so "identical"
/// means byte-identical.
struct Artifacts {
  std::string matches;
  std::string traffic;
  std::string graph;
  std::string races;
  std::string critical_path;
  std::string past_frontiers;  ///< every event's
  std::string action_graph;
  std::string trace_graph;     ///< at merge limits 16 and 2
  std::string call_graph;
};

Artifacts artifacts_of(const trace::Trace& t, std::size_t threads) {
  exec::ScopedExecutor pool(threads);
  analysis::Session session(t);
  Artifacts a;
  const auto& report = session.match_report();
  std::string m;
  for (const auto& mm : report.matches) {
    m += std::to_string(mm.send_index) + ">" + std::to_string(mm.recv_index) +
         ";";
  }
  for (const auto i : report.unmatched_sends) {
    m += "s" + std::to_string(i) + ";";
  }
  for (const auto i : report.unmatched_recvs) {
    m += "r" + std::to_string(i) + ";";
  }
  a.matches = std::move(m);
  a.traffic = session.traffic().to_string();
  a.graph = graph::to_dot(session.comm_graph().to_export());
  for (const auto& race : session.races().races) {
    a.races += std::to_string(race.recv_index) + "<" +
               std::to_string(race.matched_send) + ":";
    for (const auto c : race.candidates) a.races += std::to_string(c) + ",";
    a.races += ";";
  }
  const auto& path = session.critical_path();
  a.critical_path = std::to_string(path.total) + " " +
                    std::to_string(path.rank_switches) + ":";
  for (std::size_t i = 0; i < path.events.size(); ++i) {
    a.critical_path += std::to_string(path.events[i]) + "=" +
                       std::to_string(path.durations[i]) + ";";
  }
  const auto& order = session.causal_order();
  for (std::size_t e = 0; e < t.size(); ++e) {
    for (const auto& f : order.past_frontier(e)) {
      a.past_frontiers += f ? std::to_string(*f) + "," : "-,";
    }
    a.past_frontiers += ";";
  }
  const auto& constructs = t.constructs();
  a.action_graph = graph::to_dot(session.action_graph().to_export(constructs));
  for (const std::size_t limit : {std::size_t{16}, std::size_t{2}}) {
    a.trace_graph +=
        graph::to_dot(session.trace_graph(limit).to_export(constructs));
  }
  a.call_graph = graph::to_dot(session.call_graph().to_export(constructs));
  return a;
}

void expect_identical_artifacts_across_everything(const trace::Trace& rec) {
  const auto baseline = artifacts_of(rec, 1);
  for (const auto format :
       {trace::TraceFormat::kBinaryV1, trace::TraceFormat::kBinary,
        trace::TraceFormat::kBinaryV3}) {
    TempFile file;
    trace::write_trace(file.path(), rec, format, /*segment_events=*/256);
    for (const bool lazy : {false, true}) {
      const auto t = lazy ? trace::open_trace(file.path())
                          : trace::read_trace(file.path());
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto got = artifacts_of(t, threads);
        const auto tag = std::string(lazy ? "lazy" : "eager") + " v" +
                         std::to_string(static_cast<int>(format)) + " x" +
                         std::to_string(threads);
        EXPECT_EQ(baseline.matches, got.matches) << tag;
        EXPECT_EQ(baseline.traffic, got.traffic) << tag;
        EXPECT_EQ(baseline.graph, got.graph) << tag;
        EXPECT_EQ(baseline.races, got.races) << tag;
        EXPECT_EQ(baseline.critical_path, got.critical_path) << tag;
        EXPECT_EQ(baseline.past_frontiers, got.past_frontiers) << tag;
        EXPECT_EQ(baseline.action_graph, got.action_graph) << tag;
        EXPECT_EQ(baseline.trace_graph, got.trace_graph) << tag;
        EXPECT_EQ(baseline.call_graph, got.call_graph) << tag;
      }
    }
  }
}

TEST(ColumnarTest, StormArtifactsIdenticalAcrossBackendsVersionsThreads) {
  const auto plan = make_storm_plan(8, 40, /*seed=*/55);
  const auto rec = replay::record(8, storm_body(plan));
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  expect_identical_artifacts_across_everything(rec.trace);
}

TEST(ColumnarTest, DeadlockRingArtifactsIdenticalAcrossBackendsVersionsThreads) {
  constexpr int kRanks = 6;
  fault::FaultEngine engine(fault::FaultPlan::named("deadlock_ring",
                                                    /*seed=*/3),
                            kRanks);
  replay::RecordOptions options;
  options.fault_engine = &engine;
  const auto rec = replay::record(kRanks, ring_body(kRanks), options);
  ASSERT_FALSE(rec.trace.empty());
  expect_identical_artifacts_across_everything(rec.trace);
}

// Storm and the held ring have no enter/exit events, so only a traced
// application exercises the call arcs and nested runs of the graphs.
TEST(ColumnarTest, StrassenArtifactsIdenticalAcrossBackendsVersionsThreads) {
  apps::strassen::Options opts;
  opts.n = 32;
  opts.cutoff = 8;
  const auto rec = replay::record(
      8, [&](mpi::Comm& comm) { apps::strassen::rank_body(comm, opts); });
  ASSERT_TRUE(rec.result.completed) << rec.result.abort_detail;
  expect_identical_artifacts_across_everything(rec.trace);
}

}  // namespace
}  // namespace tdbg
