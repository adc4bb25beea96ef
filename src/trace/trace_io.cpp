#include "trace/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "support/error.hpp"
#include "support/serialize.hpp"
#include "support/strings.hpp"
#include "trace/columnar.hpp"
#include "trace/store.hpp"

namespace tdbg::trace {

namespace {

std::string text_event_line(const Event& e) {
  std::ostringstream os;
  os << "E\t" << static_cast<int>(e.kind) << '\t' << e.rank << '\t'
     << e.marker << '\t' << e.construct << '\t' << e.t_start << '\t'
     << e.t_end << '\t' << e.peer << '\t' << e.tag << '\t' << e.channel_seq
     << '\t' << e.bytes << '\t' << (e.wildcard ? 1 : 0);
  return os.str();
}

bool display_before_or_equal(const Event& a, const Event& b) {
  if (a.t_start != b.t_start) return a.t_start < b.t_start;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.marker <= b.marker;
}

}  // namespace

TraceWriter::TraceWriter(const std::filesystem::path& path, int num_ranks,
                         std::shared_ptr<const ConstructRegistry> constructs,
                         TraceFormat format, std::uint32_t segment_events)
    : path_(path), constructs_(std::move(constructs)), format_(format),
      num_ranks_(num_ranks),
      segment_events_(std::max<std::uint32_t>(1, segment_events)),
      out_(path, format == TraceFormat::kText
                     ? std::ios::trunc
                     : std::ios::binary | std::ios::trunc) {
  TDBG_CHECK(constructs_ != nullptr, "trace writer needs a construct table");
  if (!out_) {
    throw IoError("cannot open trace file for writing: " + path_.string());
  }
  if (format_ == TraceFormat::kText) {
    out_ << "#tdbg-trace v1\n";
    out_ << "R\t" << num_ranks << "\n";
  } else {
    const char* magic = wire::kMagicV1;
    if (format_ == TraceFormat::kBinary) magic = wire::kMagicV2;
    if (format_ == TraceFormat::kBinaryV3) magic = wire::kMagicV3;
    out_.write(magic, sizeof wire::kMagicV2);
    support::BinaryWriter w;
    w.put<std::int32_t>(num_ranks);
    out_.write(reinterpret_cast<const char*>(w.bytes().data()),
               static_cast<std::streamsize>(w.size()));
  }
  check_stream("header write");
  if (format_ == TraceFormat::kBinary || format_ == TraceFormat::kBinaryV3) {
    TDBG_CHECK(num_ranks_ > 0, "trace needs at least one rank");
    cur_.offset = wire::kHeaderBytes;
    cur_.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
    last_marker_.assign(static_cast<std::size_t>(num_ranks_), 0);
    rank_seen_.assign(static_cast<std::size_t>(num_ranks_), false);
    file_bytes_ = wire::kHeaderBytes;
    if (format_ == TraceFormat::kBinaryV3) {
      seg_buf_.reserve(segment_events_);
    }
  }
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; a failed footer leaves a truncated
    // but detectable file.
  }
}

void TraceWriter::check_stream(const char* op) {
  if (!out_) {
    throw IoError(std::string("trace ") + op + " failed: " + path_.string());
  }
}

void TraceWriter::note_event(const Event& e) {
  TDBG_CHECK(e.rank >= 0 && e.rank < num_ranks_, "event rank out of range");
  const auto r = static_cast<std::size_t>(e.rank);
  if (count_ > 0 && !display_before_or_equal(prev_, e)) {
    display_sorted_ = false;
  }
  if (rank_seen_[r] && e.marker < last_marker_[r]) {
    markers_monotone_ = false;
  }
  rank_seen_[r] = true;
  last_marker_[r] = e.marker;
  prev_ = e;

  if (cur_.count == 0) {
    cur_.t_min = e.t_start;
    cur_.t_max = e.t_end;
  } else {
    cur_.t_min = std::min(cur_.t_min, e.t_start);
    cur_.t_max = std::max(cur_.t_max, e.t_end);
  }
  auto& rk = cur_.ranks[r];
  if (rk.count == 0) {
    rk.marker_lo = e.marker;
    rk.marker_hi = e.marker;
  } else {
    rk.marker_lo = std::min(rk.marker_lo, e.marker);
    rk.marker_hi = std::max(rk.marker_hi, e.marker);
  }
  ++rk.count;
  ++cur_.count;
  ++count_;
  if (cur_.count >= segment_events_) close_segment();
}

void TraceWriter::close_segment() {
  if (format_ == TraceFormat::kBinaryV3) {
    close_segment_v3();
    return;
  }
  if (cur_.count == 0) return;
  cur_.byte_len = cur_.count * wire::kEventRecordBytes;
  segments_.push_back(std::move(cur_));
  cur_ = wire::SegmentMeta{};
  cur_.offset = wire::kHeaderBytes + count_ * wire::kEventRecordBytes;
  cur_.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
}

void TraceWriter::close_segment_v3() {
  if (seg_buf_.empty()) return;
  scratch_.clear();
  columnar::SegmentZoneInfo zones;
  columnar::encode_segment(seg_buf_, scratch_, &zones);
  cur_.byte_len = scratch_.size();
  cur_.kind_mask = zones.kind_mask;
  cur_.rank_mask = zones.rank_mask;
  cur_.zones.assign(zones.zones.begin(), zones.zones.end());
  out_.write(reinterpret_cast<const char*>(scratch_.bytes().data()),
             static_cast<std::streamsize>(scratch_.size()));
  check_stream("segment write");
  file_bytes_ += scratch_.size();
  segments_.push_back(std::move(cur_));
  cur_ = wire::SegmentMeta{};
  cur_.offset = file_bytes_;
  cur_.ranks.assign(static_cast<std::size_t>(num_ranks_), {});
  seg_buf_.clear();
}

void TraceWriter::write_event(const Event& event) {
  write_events({&event, 1});
}

void TraceWriter::write_events(std::span<const Event> events) {
  if (events.empty()) return;
  std::lock_guard lk(mu_);
  TDBG_CHECK(!finished_, "write_event after finish");
  if (format_ == TraceFormat::kText) {
    for (const Event& e : events) out_ << text_event_line(e) << '\n';
    count_ += events.size();
  } else if (format_ == TraceFormat::kBinaryV3) {
    // Columnar blocks are sealed a segment at a time: buffer the
    // events and let `note_event` close (encode + write) full
    // segments as they fill.
    for (const Event& e : events) {
      seg_buf_.push_back(e);
      note_event(e);
    }
  } else {
    scratch_.clear();
    for (const Event& e : events) {
      wire::encode_event(scratch_, e);
      if (format_ == TraceFormat::kBinary) {
        note_event(e);
      }
    }
    if (format_ != TraceFormat::kBinary) count_ += events.size();
    out_.write(reinterpret_cast<const char*>(scratch_.bytes().data()),
               static_cast<std::streamsize>(scratch_.size()));
  }
  check_stream("write");
}

void TraceWriter::flush() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  // A v3 file that ends at a block boundary reads as the prefix of
  // sealed segments, so the open segment is sealed short.
  if (format_ == TraceFormat::kBinaryV3) close_segment_v3();
  out_.flush();
  check_stream("flush");
}

void TraceWriter::finish() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  finished_ = true;
  const auto table = constructs_->snapshot();
  if (format_ == TraceFormat::kText) {
    for (std::size_t id = 0; id < table.size(); ++id) {
      out_ << "C\t" << id << '\t' << table[id].line << '\t' << table[id].name
           << '\t' << table[id].file << '\n';
    }
  } else {
    // The v3 tail segment writes its own block (and uses scratch_), so
    // it must be sealed before the footer encoding starts.
    if (format_ == TraceFormat::kBinaryV3) close_segment();
    scratch_.clear();
    wire::encode_construct_table(scratch_, table);
    if (format_ == TraceFormat::kBinary) {
      close_segment();
      wire::Footer footer;
      footer.flags = (display_sorted_ ? wire::kFlagDisplaySorted : 0u) |
                     (markers_monotone_ ? wire::kFlagRankMarkersMonotone : 0u);
      footer.segment_events = segment_events_;
      footer.event_count = count_;
      footer.segments = std::move(segments_);
      wire::encode_directory(scratch_, footer);
      // Trailer: fixed-width records make the footer offset computable.
      scratch_.put<std::uint64_t>(wire::kHeaderBytes +
                                  count_ * wire::kEventRecordBytes);
      scratch_.put_raw(std::as_bytes(std::span(wire::kFooterMagic)));
    } else if (format_ == TraceFormat::kBinaryV3) {
      wire::Footer footer;
      footer.version = 3;
      footer.flags = (display_sorted_ ? wire::kFlagDisplaySorted : 0u) |
                     (markers_monotone_ ? wire::kFlagRankMarkersMonotone : 0u);
      footer.segment_events = segment_events_;
      footer.event_count = count_;
      footer.segments = std::move(segments_);
      wire::encode_directory_v3(scratch_, footer);
      // Trailer: v3 blocks are variable-width, so the footer offset is
      // the tracked running byte count.
      scratch_.put<std::uint64_t>(file_bytes_);
      scratch_.put_raw(std::as_bytes(std::span(wire::kFooterMagicV3)));
    }
    out_.write(reinterpret_cast<const char*>(scratch_.bytes().data()),
               static_cast<std::streamsize>(scratch_.size()));
  }
  out_.flush();
  check_stream("finish");
  out_.close();
}

namespace {

Trace read_binary(const std::vector<std::byte>& bytes,
                  const std::filesystem::path& path) {
  support::BinaryReader r(bytes);
  r.seek(sizeof wire::kMagicV1);
  const auto num_ranks = r.get<std::int32_t>();
  std::vector<Event> events;
  bool saw_end = false;
  while (!r.exhausted()) {
    const auto record_offset = r.position();
    const auto tag = r.get<std::uint8_t>();
    if (tag == wire::kRecordEnd) {
      saw_end = true;
      break;
    }
    if (tag != wire::kRecordEvent) {
      throw FormatError("unknown record tag in trace file " + path.string());
    }
    if (r.remaining() + 1 < wire::kEventRecordBytes) {
      throw FormatError("truncated event record in trace file " +
                        path.string() + " at offset " +
                        std::to_string(record_offset));
    }
    // The kind byte follows the record tag; validate it before the
    // decode so a corrupt byte can never masquerade as a real kind.
    const auto kind = std::to_integer<std::uint8_t>(bytes[r.position()]);
    if (!wire::valid_event_kind(kind)) {
      throw FormatError("unknown event kind " + std::to_string(kind) +
                        " in trace file " + path.string() + " at offset " +
                        std::to_string(record_offset + 1));
    }
    events.push_back(wire::decode_event(r));
  }
  auto registry = std::make_shared<ConstructRegistry>();
  if (saw_end) {
    try {
      registry->restore(wire::decode_construct_table(r));
    } catch (const FormatError& e) {
      throw FormatError("truncated construct table in trace file " +
                        path.string() + ": " + e.what());
    }
    // Anything after the construct table is the v2 directory +
    // trailer; the eager reader rebuilds its own indexes, so it is
    // skipped (and may be truncated) here.
  }
  return Trace(num_ranks, std::move(events), std::move(registry));
}

/// Eager v3 reader: walks the segment blocks sequentially.  A file cut
/// at a block boundary before the footer yields the segment-aligned
/// event prefix; a cut inside a block is corruption (`FormatError`
/// naming the segment and column, from the columnar decoder).
Trace read_binary_v3(const std::vector<std::byte>& bytes,
                     const std::filesystem::path& path) {
  support::BinaryReader r(bytes);
  r.seek(sizeof wire::kMagicV3);
  const auto num_ranks = r.get<std::int32_t>();
  std::vector<Event> events;
  std::vector<Event> seg_events;
  bool saw_end = false;
  std::size_t seg = 0;
  while (!r.exhausted()) {
    const auto tag = std::to_integer<std::uint8_t>(bytes[r.position()]);
    if (tag == wire::kRecordEnd) {
      r.seek(r.position() + 1);
      saw_end = true;
      break;
    }
    if (tag != wire::kRecordSegment) {
      throw FormatError("unknown record tag in trace file " + path.string());
    }
    const auto res =
        columnar::decode_segment(std::span(bytes).subspan(r.position()),
                                 num_ranks, seg_events, path, seg);
    events.insert(events.end(), seg_events.begin(), seg_events.end());
    r.seek(r.position() + static_cast<std::size_t>(res.block_len));
    ++seg;
  }
  auto registry = std::make_shared<ConstructRegistry>();
  if (saw_end) {
    try {
      registry->restore(wire::decode_construct_table(r));
    } catch (const FormatError& e) {
      throw FormatError("truncated construct table in trace file " +
                        path.string() + ": " + e.what());
    }
    // The v3 directory + trailer follow; the eager reader rebuilds its
    // own indexes, so they are skipped here.
  }
  return Trace(num_ranks, std::move(events), std::move(registry));
}

Trace read_text(const std::string& content) {
  int num_ranks = 0;
  std::vector<Event> events;
  std::vector<std::pair<std::size_t, ConstructInfo>> constructs;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto fields = support::split(line, '\t');
    if (fields[0] == "R") {
      if (fields.size() != 2) throw FormatError("bad R line");
      num_ranks = std::stoi(fields[1]);
    } else if (fields[0] == "E") {
      if (fields.size() != 12) throw FormatError("bad E line: " + line);
      const int kind = std::stoi(fields[1]);
      if (kind < 0 || !wire::valid_event_kind(static_cast<std::uint8_t>(kind))) {
        throw FormatError("unknown event kind " + std::to_string(kind) +
                          " in trace line: " + line);
      }
      Event e;
      e.kind = static_cast<EventKind>(kind);
      e.rank = std::stoi(fields[2]);
      e.marker = std::stoull(fields[3]);
      e.construct = static_cast<ConstructId>(std::stoul(fields[4]));
      e.t_start = std::stoll(fields[5]);
      e.t_end = std::stoll(fields[6]);
      e.peer = std::stoi(fields[7]);
      e.tag = std::stoi(fields[8]);
      e.channel_seq = std::stoull(fields[9]);
      e.bytes = std::stoull(fields[10]);
      e.wildcard = std::stoi(fields[11]) != 0;
      events.push_back(e);
    } else if (fields[0] == "C") {
      if (fields.size() != 5) throw FormatError("bad C line: " + line);
      ConstructInfo c;
      c.line = std::stoi(fields[2]);
      c.name = fields[3];
      c.file = fields[4];
      constructs.emplace_back(std::stoul(fields[1]), std::move(c));
    } else {
      throw FormatError("unknown trace line type: " + fields[0]);
    }
  }
  if (num_ranks == 0) throw FormatError("text trace missing R line");
  std::vector<ConstructInfo> table;
  for (auto& [id, info] : constructs) {
    if (table.size() <= id) table.resize(id + 1);
    table[id] = std::move(info);
  }
  auto registry = std::make_shared<ConstructRegistry>();
  registry->restore(std::move(table));
  return Trace(num_ranks, std::move(events), std::move(registry));
}

bool has_magic(const std::string& content, const char (&magic)[8]) {
  return content.size() >= sizeof magic &&
         std::memcmp(content.data(), magic, sizeof magic) == 0;
}

}  // namespace

Trace read_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (has_magic(content, wire::kMagicV1) || has_magic(content, wire::kMagicV2)) {
    std::vector<std::byte> bytes(content.size());
    std::memcpy(bytes.data(), content.data(), content.size());
    return read_binary(bytes, path);
  }
  if (has_magic(content, wire::kMagicV3)) {
    std::vector<std::byte> bytes(content.size());
    std::memcpy(bytes.data(), content.data(), content.size());
    return read_binary_v3(bytes, path);
  }
  return read_text(content);
}

std::optional<TraceFooter> try_read_footer(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size < wire::kHeaderBytes + wire::kTrailerBytes) {
    return std::nullopt;
  }

  char header[wire::kHeaderBytes];
  in.seekg(0);
  in.read(header, sizeof header);
  if (!in) return std::nullopt;
  const bool v2 =
      std::memcmp(header, wire::kMagicV2, sizeof wire::kMagicV2) == 0;
  const bool v3 =
      std::memcmp(header, wire::kMagicV3, sizeof wire::kMagicV3) == 0;
  if (!v2 && !v3) return std::nullopt;
  std::int32_t num_ranks = 0;
  std::memcpy(&num_ranks, header + sizeof wire::kMagicV2, sizeof num_ranks);

  char trailer[wire::kTrailerBytes];
  in.seekg(static_cast<std::streamoff>(file_size - wire::kTrailerBytes));
  in.read(trailer, sizeof trailer);
  const char* footer_magic = v2 ? wire::kFooterMagic : wire::kFooterMagicV3;
  if (!in || std::memcmp(trailer + sizeof(std::uint64_t), footer_magic,
                         sizeof wire::kFooterMagic) != 0) {
    return std::nullopt;  // no trailer: flush-on-demand prefix or crash
  }
  std::uint64_t footer_offset = 0;
  std::memcpy(&footer_offset, trailer, sizeof footer_offset);
  if (footer_offset < wire::kHeaderBytes ||
      footer_offset > file_size - wire::kTrailerBytes) {
    throw FormatError("trace footer offset out of range in " + path.string());
  }

  std::vector<std::byte> footer_bytes(
      static_cast<std::size_t>(file_size - wire::kTrailerBytes - footer_offset));
  in.seekg(static_cast<std::streamoff>(footer_offset));
  in.read(reinterpret_cast<char*>(footer_bytes.data()),
          static_cast<std::streamsize>(footer_bytes.size()));
  if (!in) throw IoError("trace footer read failed: " + path.string());

  try {
    support::BinaryReader r(footer_bytes);
    TraceFooter result;
    result.num_ranks = num_ranks;
    result.footer.offset = footer_offset;
    if (r.get<std::uint8_t>() != wire::kRecordEnd) {
      throw FormatError("footer does not start with the construct table");
    }
    result.footer.constructs = wire::decode_construct_table(r);
    const auto dir_tag = r.get<std::uint8_t>();
    if (v3) {
      if (dir_tag != wire::kRecordDirectoryV3) {
        throw FormatError("footer is missing the v3 segment directory");
      }
      wire::decode_directory_v3(r, num_ranks, &result.footer);
    } else {
      if (dir_tag != wire::kRecordDirectory) {
        throw FormatError("footer is missing the segment directory");
      }
      wire::decode_directory(r, num_ranks, &result.footer);
    }
    return result;
  } catch (const FormatError& e) {
    throw FormatError("corrupt trace footer in " + path.string() + ": " +
                      e.what());
  }
}

Trace open_trace(const std::filesystem::path& path,
                 const TraceOpenOptions& options) {
  auto footer = try_read_footer(path);
  if (footer && footer->footer.display_sorted() &&
      footer->footer.rank_markers_monotone()) {
    return Trace(std::make_shared<SegmentedTraceStore>(
        path, footer->num_ranks, std::move(footer->footer),
        options.cache_segments));
  }
  // v1, text, footerless prefix, or an unsorted stream: the directory
  // binary searches would be wrong, so fall back to the eager store.
  return read_trace(path);
}

TraceFileInfo inspect_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  TraceFileInfo info;
  info.file_bytes = file_size;

  char magic[8] = {};
  if (file_size >= sizeof magic) {
    in.read(magic, sizeof magic);
  }
  const bool v1 = std::memcmp(magic, wire::kMagicV1, sizeof magic) == 0;
  const bool v2 = std::memcmp(magic, wire::kMagicV2, sizeof magic) == 0;
  const bool v3 = std::memcmp(magic, wire::kMagicV3, sizeof magic) == 0;

  if (v2 || v3) {
    info.format = v3 ? "binary-v3" : "binary-v2";
    if (auto footer = try_read_footer(path)) {
      info.has_footer = true;
      info.num_ranks = footer->num_ranks;
      info.event_count = footer->footer.event_count;
      info.segment_count = footer->footer.segments.size();
      info.segment_events = footer->footer.segment_events;
      info.display_sorted = footer->footer.display_sorted();
      info.rank_markers_monotone = footer->footer.rank_markers_monotone();
      info.construct_count = footer->footer.constructs.size();
      if (!footer->footer.segments.empty()) {
        info.has_time_span = true;
        info.t_min = footer->footer.segments.front().t_min;
        for (const auto& seg : footer->footer.segments) {
          info.t_max = std::max(info.t_max, seg.t_max);
        }
      }
      return info;
    }
  } else if (v1) {
    info.format = "binary-v1";
  } else {
    // Text traces have no magic; count record lines.
    info.format = "text";
    in.clear();
    in.seekg(0);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (line[0] == 'E') ++info.event_count;
      else if (line[0] == 'C') ++info.construct_count;
      else if (line[0] == 'R' && line.size() > 2) {
        info.num_ranks = std::atoi(line.c_str() + 2);
      }
    }
    return info;
  }

  // Binary stream without a usable footer: walk the records counting
  // tags (no event decode).
  std::string content;
  in.clear();
  in.seekg(0);
  content.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(content.size());
  std::memcpy(bytes.data(), content.data(), content.size());
  support::BinaryReader r(bytes);
  r.seek(sizeof magic);
  info.num_ranks = r.get<std::int32_t>();
  if (v3) {
    // v3: hop over the segment blocks via their headers.
    while (!r.exhausted()) {
      const auto tag = std::to_integer<std::uint8_t>(bytes[r.position()]);
      if (tag == wire::kRecordEnd) {
        r.seek(r.position() + 1);
        info.construct_count = r.get<std::uint32_t>();
        break;
      }
      if (tag != wire::kRecordSegment) break;
      columnar::SegmentHeader h;
      try {
        h = columnar::parse_segment_header(
            std::span(bytes).subspan(r.position()), path, info.segment_count);
      } catch (const FormatError&) {
        break;  // truncated header: report the prefix count
      }
      const auto block =
          columnar::kSegmentHeaderBytes + h.payload_bytes();
      if (block > r.remaining()) break;  // truncated mid-block
      r.seek(r.position() + static_cast<std::size_t>(block));
      info.event_count += h.count;
      ++info.segment_count;
    }
    return info;
  }
  while (!r.exhausted()) {
    const auto tag = r.get<std::uint8_t>();
    if (tag == wire::kRecordEnd) {
      info.construct_count = r.get<std::uint32_t>();
      break;
    }
    if (tag != wire::kRecordEvent ||
        r.remaining() + 1 < wire::kEventRecordBytes) {
      break;  // truncated or foreign record: report the prefix count
    }
    r.seek(r.position() + wire::kEventRecordBytes - 1);
    ++info.event_count;
  }
  return info;
}

std::vector<ColumnStorageInfo> inspect_columns(
    const std::filesystem::path& path, const TraceFooter& footer) {
  std::vector<ColumnStorageInfo> out;
  if (footer.footer.version != 3) return out;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path.string());

  out.resize(wire::kNumColumnsV3);
  std::vector<std::array<std::size_t, columnar::kNumEncodings>> used(
      wire::kNumColumnsV3);
  for (auto& u : used) u.fill(0);
  std::vector<std::byte> buf(columnar::kSegmentHeaderBytes);
  for (std::size_t s = 0; s < footer.footer.segments.size(); ++s) {
    const auto& meta = footer.footer.segments[s];
    in.seekg(static_cast<std::streamoff>(meta.offset));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    if (!in) throw IoError("trace segment header read failed: " + path.string());
    const auto h = columnar::parse_segment_header(buf, path, s);
    for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
      out[c].bytes += h.cols[c].byte_len;
      ++used[c][static_cast<std::size_t>(h.cols[c].encoding)];
    }
  }
  for (std::size_t c = 0; c < wire::kNumColumnsV3; ++c) {
    out[c].name = columnar::column_name(c);
    for (std::size_t e = 0; e < columnar::kNumEncodings; ++e) {
      if (used[c][e] == 0) continue;
      out[c].encodings.emplace_back(
          columnar::encoding_name(static_cast<columnar::Encoding>(e)),
          used[c][e]);
    }
    std::stable_sort(out[c].encodings.begin(), out[c].encodings.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
  }
  return out;
}

void write_trace(const std::filesystem::path& path, const Trace& trace,
                 TraceFormat format, std::uint32_t segment_events) {
  TraceWriter writer(path, trace.num_ranks(), trace.constructs_ptr(), format,
                     segment_events);
  // Stream in display order through a bounded batch buffer: a lazy
  // source trace is never fully materialized.
  std::vector<Event> batch;
  batch.reserve(8192);
  trace.for_each_event([&](std::size_t, const Event& e) {
    batch.push_back(e);
    if (batch.size() == batch.capacity()) {
      writer.write_events(batch);
      batch.clear();
    }
  });
  writer.write_events(batch);
  writer.finish();
}

}  // namespace tdbg::trace
