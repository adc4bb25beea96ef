#pragma once

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "support/serialize.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"

namespace tdbg::trace {

/// On-disk encodings of a trace.
enum class TraceFormat : std::uint8_t {
  kBinary,    ///< segmented + indexed, row-major records (v2, default)
  kBinaryV1,  ///< flat record stream (pre-segment format)
  kText,      ///< tab-separated, human-greppable
  kBinaryV3,  ///< segmented, columnar compressed, zone-mapped (v3)
};

/// Default events per v2/v3 segment (~64Ki; ~3.7 MiB of v2 records).
inline constexpr std::uint32_t kDefaultSegmentEvents = 1u << 16;

/// Streams trace records to a file.
///
/// The event stream is written incrementally, and `flush()` makes
/// everything written so far readable — this is what makes the
/// collector's flush-on-demand useful: the debugger can read a
/// consistent prefix of the history while the program is still
/// running.  The footer (construct table, and for v2 the segment
/// directory + trailer) is appended by `finish()` (or the destructor).
///
/// For v2 the writer accumulates one directory entry per
/// `segment_events` records — byte offset, count, [t_min, t_max], and
/// per-rank counts/marker ranges — and tracks whether the stream it
/// saw was in display order with monotone per-rank markers; the
/// resulting footer flags decide whether `open_trace` may use the
/// lazy segmented store.
///
/// For v3 the writer buffers the open segment and seals it as one
/// columnar block (see columnar.hpp) when it reaches `segment_events`
/// records, or earlier when `flush()` is called; the directory entry
/// additionally carries the segment's kind/rank presence masks and
/// per-column zone maps.
///
/// Records reach the file only through the stream's buffer (and, on
/// v3, the open segment): until `flush()` or `finish()`, a crash can
/// lose any record written since the last flush, on every format.
///
/// Stream failures (full disk, failed flush) throw `IoError` naming
/// the path.
class TraceWriter {
 public:
  TraceWriter(const std::filesystem::path& path, int num_ranks,
              std::shared_ptr<const ConstructRegistry> constructs,
              TraceFormat format = TraceFormat::kBinary,
              std::uint32_t segment_events = kDefaultSegmentEvents);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Flushes and closes, writing the footer if needed.
  ~TraceWriter();

  /// Appends one record.  Thread-safe.
  void write_event(const Event& event);

  /// Appends a batch of records under a single lock acquisition,
  /// encoding them into one reused scratch buffer and writing them
  /// with one stream call.  This is the collector's flush path; the
  /// per-record cost is a fraction of `write_event`'s.  Thread-safe.
  void write_events(std::span<const Event> events);

  /// Makes every record written so far readable from the file as a
  /// footer-less prefix: on v3 it seals the open segment as a (short)
  /// block, then it flushes the stream.  Throws `IoError` if the
  /// stream failed.  No-op after `finish()`.  Thread-safe.
  void flush();

  /// Writes the construct table, segment directory (v2), and
  /// end-of-stream trailer, then closes.  Idempotent.
  void finish();

  /// Records written so far.
  [[nodiscard]] std::uint64_t events_written() const { return count_; }

 private:
  void note_event(const Event& e);   ///< directory bookkeeping, under mu_
  void close_segment();              ///< seals the open segment, under mu_
  void close_segment_v3();           ///< encodes + writes a v3 block, under mu_
  void check_stream(const char* op); ///< throws IoError on failure

  std::filesystem::path path_;
  std::shared_ptr<const ConstructRegistry> constructs_;
  TraceFormat format_;
  int num_ranks_ = 0;
  std::uint32_t segment_events_ = kDefaultSegmentEvents;
  std::ofstream out_;
  std::mutex mu_;
  support::BinaryWriter scratch_;  ///< reused encode buffer (under mu_)
  std::uint64_t count_ = 0;
  bool finished_ = false;

  // v2/v3 directory state (under mu_).
  std::vector<wire::SegmentMeta> segments_;
  wire::SegmentMeta cur_;
  bool display_sorted_ = true;
  bool markers_monotone_ = true;
  Event prev_;                      ///< last event seen (display order check)
  std::vector<std::uint64_t> last_marker_;  ///< per rank, monotonicity check
  std::vector<bool> rank_seen_;

  // v3 state (under mu_): the open segment's buffered events and the
  // running file offset (v3 blocks are variable-width, so offsets
  // cannot be derived from the record count).
  std::vector<Event> seg_buf_;
  std::uint64_t file_bytes_ = 0;
};

/// Reads a trace file eagerly (any format, detected by magic) into an
/// in-memory trace.  Throws `IoError` / `FormatError` on problems; a
/// file truncated mid-record is rejected with a `FormatError` naming
/// the path and offset, while a file cut at a record boundary before
/// the footer (flush-on-demand snapshot) still yields the event
/// prefix.
Trace read_trace(const std::filesystem::path& path);

/// Options for `open_trace`.
struct TraceOpenOptions {
  /// Max segments the lazy store keeps resident (LRU).
  std::size_t cache_segments = 8;
};

/// Opens a trace for querying.  A v2/v3 file whose footer marks the
/// stream as display-sorted with monotone per-rank markers is opened
/// lazily through a `SegmentedTraceStore` in O(footer) time (a
/// directory that does not describe the file is a `FormatError`);
/// anything else falls back to `read_trace`.
Trace open_trace(const std::filesystem::path& path,
                 const TraceOpenOptions& options = {});

/// Footer-level description of a trace file, for `tdbg_trace info`.
/// For a v2/v3 file this comes from the footer alone (no event data
/// is read); for v1/text the event region is scanned for counts and
/// the time span is left unset.
struct TraceFileInfo {
  std::string format;  ///< "binary-v3", "binary-v2", "binary-v1", or "text"
  int num_ranks = 0;
  std::uint64_t event_count = 0;
  std::uint64_t file_bytes = 0;
  std::size_t construct_count = 0;
  bool has_footer = false;        ///< v2/v3 directory present
  std::uint64_t segment_count = 0;    ///< v2/v3 only
  std::uint32_t segment_events = 0;   ///< v2/v3 only
  bool display_sorted = false;        ///< v2/v3 only
  bool rank_markers_monotone = false; ///< v2/v3 only
  bool has_time_span = false;
  support::TimeNs t_min = 0;  ///< valid when has_time_span
  support::TimeNs t_max = 0;  ///< valid when has_time_span
};

/// Describes `path` without building a `Trace`.
TraceFileInfo inspect_trace(const std::filesystem::path& path);

/// A v2/v3 footer together with the file-header rank count.
struct TraceFooter {
  int num_ranks = 0;
  wire::Footer footer;  ///< `footer.version` distinguishes v2 from v3
};

/// Reads the v2/v3 footer of `path` via the end-of-file trailer,
/// touching only the header and footer bytes.  Returns nullopt when
/// the file has neither magic or carries no (complete) trailer.
/// Throws `IoError` if the file cannot be opened.
std::optional<TraceFooter> try_read_footer(const std::filesystem::path& path);

/// Aggregated storage description of one v3 column across all
/// segments, for `tdbg_trace info`.
struct ColumnStorageInfo {
  std::string name;          ///< column name ("kind", "t_start", ...)
  std::uint64_t bytes = 0;   ///< payload bytes across all segments
  /// (encoding name, number of segments using it), most-used first.
  std::vector<std::pair<std::string, std::size_t>> encodings;
};

/// Reads the per-segment column headers of a v3 file (one small read
/// per segment) and aggregates them per column.  Returns an empty
/// vector unless `footer.footer.version == 3`.
std::vector<ColumnStorageInfo> inspect_columns(
    const std::filesystem::path& path, const TraceFooter& footer);

/// Writes a complete trace to `path`.  Events are emitted in display
/// order, so a v2/v3 file written here always earns the sorted footer
/// flags (and thus lazy reopening).
void write_trace(const std::filesystem::path& path, const Trace& trace,
                 TraceFormat format = TraceFormat::kBinary,
                 std::uint32_t segment_events = kDefaultSegmentEvents);

}  // namespace tdbg::trace
