#include "server/protocol.hpp"

#include <cstring>

#include "support/error.hpp"
#include "trace/wire.hpp"

namespace tdbg::server {

namespace {

/// Throws a FormatError naming the protocol field that failed.
[[noreturn]] void bad(const std::string& what) {
  throw FormatError("tdbg.server protocol: " + what);
}

void put_bytes(support::BinaryWriter& w, std::span<const std::byte> bytes) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(bytes.size()));
  w.put_raw(bytes);
}

/// Reads a u32-length-prefixed blob by slicing `all` (the span the
/// reader was constructed over) — one memcpy, not a per-byte loop.
std::vector<std::byte> get_bytes(support::BinaryReader& r,
                                 std::span<const std::byte> all) {
  const auto n = r.get<std::uint32_t>();
  if (n > r.remaining()) bad("byte blob length exceeds frame");
  const auto at = r.position();
  std::vector<std::byte> out(all.begin() + static_cast<std::ptrdiff_t>(at),
                             all.begin() + static_cast<std::ptrdiff_t>(at + n));
  r.seek(at + n);
  return out;
}

/// Prepends the u32 length prefix to an encoded body.
std::vector<std::byte> frame(const support::BinaryWriter& body) {
  support::BinaryWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(body.size()));
  w.put_raw(body.bytes());
  return w.bytes();
}

}  // namespace

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kOpenTrace: return "open_trace";
    case Op::kMatchReport: return "match_report";
    case Op::kTraffic: return "traffic";
    case Op::kRaces: return "races";
    case Op::kDeadlock: return "deadlock";
    case Op::kWindow: return "window";
    case Op::kGraphDot: return "graph_dot";
    case Op::kSessionStats: return "session_stats";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

std::string_view status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kBadRequest: return "bad_request";
    case Status::kOverloaded: return "overloaded";
    case Status::kTimeout: return "timeout";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "?";
}

// --- Frame layer -----------------------------------------------------------

std::vector<std::byte> encode_request(const Request& request) {
  support::BinaryWriter body;
  body.put<std::uint32_t>(kRequestMagic);
  body.put<std::uint16_t>(kProtocolVersion);
  body.put<std::uint16_t>(static_cast<std::uint16_t>(request.op));
  body.put<std::uint64_t>(request.id);
  body.put<std::uint32_t>(request.deadline_ms);
  put_bytes(body, request.args);
  return frame(body);
}

std::vector<std::byte> encode_response(const Response& response) {
  support::BinaryWriter body;
  body.put<std::uint32_t>(kResponseMagic);
  body.put<std::uint16_t>(kProtocolVersion);
  body.put<std::uint16_t>(static_cast<std::uint16_t>(response.status));
  body.put<std::uint64_t>(response.id);
  body.put<std::uint32_t>(0);  // reserved
  put_bytes(body, response.payload);
  return frame(body);
}

Request decode_request(std::span<const std::byte> body) {
  support::BinaryReader r(body);
  if (r.get<std::uint32_t>() != kRequestMagic) bad("bad request magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kProtocolVersion) {
    bad("unsupported protocol version " + std::to_string(version));
  }
  const auto op = r.get<std::uint16_t>();
  if (op > static_cast<std::uint16_t>(Op::kShutdown)) {
    bad("unknown op " + std::to_string(op));
  }
  Request req;
  req.op = static_cast<Op>(op);
  req.id = r.get<std::uint64_t>();
  req.deadline_ms = r.get<std::uint32_t>();
  req.args = get_bytes(r, body);
  if (!r.exhausted()) bad("trailing bytes after request args");
  return req;
}

Response decode_response(std::span<const std::byte> body) {
  support::BinaryReader r(body);
  if (r.get<std::uint32_t>() != kResponseMagic) bad("bad response magic");
  const auto version = r.get<std::uint16_t>();
  if (version != kProtocolVersion) {
    bad("unsupported protocol version " + std::to_string(version));
  }
  const auto status = r.get<std::uint16_t>();
  if (status > static_cast<std::uint16_t>(Status::kShuttingDown)) {
    bad("unknown status " + std::to_string(status));
  }
  Response resp;
  resp.status = static_cast<Status>(status);
  resp.id = r.get<std::uint64_t>();
  (void)r.get<std::uint32_t>();  // reserved
  resp.payload = get_bytes(r, body);
  if (!r.exhausted()) bad("trailing bytes after response payload");
  return resp;
}

void FrameAssembler::feed(std::span<const std::byte> bytes) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow the buffer without bound.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::byte>> FrameAssembler::next() {
  if (buffered() < sizeof(std::uint32_t)) return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  if (len > kMaxFrameBytes) {
    bad("frame length " + std::to_string(len) + " exceeds cap");
  }
  if (buffered() < sizeof(std::uint32_t) + len) return std::nullopt;
  const auto* begin = buf_.data() + pos_ + sizeof(std::uint32_t);
  std::vector<std::byte> body(begin, begin + len);
  pos_ += sizeof(std::uint32_t) + len;
  return body;
}

// --- Op argument payloads --------------------------------------------------

std::vector<std::byte> encode_trace_arg(std::string_view path) {
  support::BinaryWriter w;
  w.put_string(path);
  return w.bytes();
}

std::string decode_trace_arg(std::span<const std::byte> args) {
  support::BinaryReader r(args);
  auto path = r.get_string();
  if (!r.exhausted()) bad("trailing bytes after trace path");
  return path;
}

std::vector<std::byte> encode_window_args(std::string_view path,
                                          support::TimeNs t0,
                                          support::TimeNs t1) {
  support::BinaryWriter w;
  w.put_string(path);
  w.put<std::int64_t>(t0);
  w.put<std::int64_t>(t1);
  return w.bytes();
}

WindowArgs decode_window_args(std::span<const std::byte> args) {
  support::BinaryReader r(args);
  WindowArgs out;
  out.path = r.get_string();
  out.t0 = r.get<std::int64_t>();
  out.t1 = r.get<std::int64_t>();
  if (!r.exhausted()) bad("trailing bytes after window args");
  return out;
}

std::vector<std::byte> encode_graph_args(std::string_view path,
                                         GraphKind kind) {
  support::BinaryWriter w;
  w.put_string(path);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(kind));
  return w.bytes();
}

GraphArgs decode_graph_args(std::span<const std::byte> args) {
  support::BinaryReader r(args);
  GraphArgs out;
  out.path = r.get_string();
  const auto kind = r.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(GraphKind::kCall)) {
    bad("unknown graph kind " + std::to_string(kind));
  }
  out.kind = static_cast<GraphKind>(kind);
  if (!r.exhausted()) bad("trailing bytes after graph args");
  return out;
}

// --- Result payloads -------------------------------------------------------

std::vector<std::byte> encode_open_info(const OpenInfo& info) {
  support::BinaryWriter w;
  w.put_string(info.fingerprint);
  w.put<std::int32_t>(info.num_ranks);
  w.put<std::uint64_t>(info.events);
  w.put<std::uint64_t>(info.segments);
  w.put<std::int64_t>(info.t_min);
  w.put<std::int64_t>(info.t_max);
  return w.bytes();
}

OpenInfo decode_open_info(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  OpenInfo info;
  info.fingerprint = r.get_string();
  info.num_ranks = r.get<std::int32_t>();
  info.events = r.get<std::uint64_t>();
  info.segments = r.get<std::uint64_t>();
  info.t_min = r.get<std::int64_t>();
  info.t_max = r.get<std::int64_t>();
  return info;
}

std::vector<std::byte> encode_match_report(const trace::MatchReport& report) {
  support::BinaryWriter w;
  w.put<std::uint64_t>(report.matches.size());
  for (const auto& m : report.matches) {
    w.put<std::uint64_t>(m.send_index);
    w.put<std::uint64_t>(m.recv_index);
  }
  w.put<std::uint64_t>(report.unmatched_sends.size());
  for (const auto i : report.unmatched_sends) w.put<std::uint64_t>(i);
  w.put<std::uint64_t>(report.unmatched_recvs.size());
  for (const auto i : report.unmatched_recvs) w.put<std::uint64_t>(i);
  return w.bytes();
}

trace::MatchReport decode_match_report(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  trace::MatchReport report;
  const auto nm = r.get<std::uint64_t>();
  report.matches.reserve(nm);
  for (std::uint64_t i = 0; i < nm; ++i) {
    trace::MessageMatch m;
    m.send_index = r.get<std::uint64_t>();
    m.recv_index = r.get<std::uint64_t>();
    report.matches.push_back(m);
  }
  const auto nus = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nus; ++i) {
    report.unmatched_sends.push_back(r.get<std::uint64_t>());
  }
  const auto nur = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nur; ++i) {
    report.unmatched_recvs.push_back(r.get<std::uint64_t>());
  }
  return report;
}

std::vector<std::byte> encode_traffic(const analysis::TrafficReport& report) {
  support::BinaryWriter w;
  w.put<std::uint64_t>(report.channels.size());
  for (const auto& c : report.channels) {
    w.put<std::int32_t>(c.src);
    w.put<std::int32_t>(c.dst);
    w.put<std::uint64_t>(c.messages);
    w.put<std::uint64_t>(c.bytes);
    w.put<std::int64_t>(c.min_latency);
    w.put<std::int64_t>(c.max_latency);
    w.put<double>(c.mean_latency);
  }
  w.put<std::uint64_t>(report.ranks.size());
  for (const auto& t : report.ranks) {
    w.put<std::int32_t>(t.rank);
    w.put<std::uint64_t>(t.sends);
    w.put<std::uint64_t>(t.recvs);
    w.put<std::uint64_t>(t.bytes_out);
    w.put<std::uint64_t>(t.bytes_in);
  }
  w.put<std::uint64_t>(report.irregularities.size());
  for (const auto& irr : report.irregularities) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(irr.kind));
    w.put<std::int32_t>(irr.rank);
    w.put<std::uint64_t>(irr.event);
    w.put_string(irr.description);
  }
  return w.bytes();
}

analysis::TrafficReport decode_traffic(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  analysis::TrafficReport report;
  const auto nc = r.get<std::uint64_t>();
  report.channels.reserve(nc);
  for (std::uint64_t i = 0; i < nc; ++i) {
    analysis::ChannelStats c;
    c.src = r.get<std::int32_t>();
    c.dst = r.get<std::int32_t>();
    c.messages = r.get<std::uint64_t>();
    c.bytes = r.get<std::uint64_t>();
    c.min_latency = r.get<std::int64_t>();
    c.max_latency = r.get<std::int64_t>();
    c.mean_latency = r.get<double>();
    report.channels.push_back(c);
  }
  const auto nr = r.get<std::uint64_t>();
  report.ranks.reserve(nr);
  for (std::uint64_t i = 0; i < nr; ++i) {
    analysis::RankTraffic t;
    t.rank = r.get<std::int32_t>();
    t.sends = r.get<std::uint64_t>();
    t.recvs = r.get<std::uint64_t>();
    t.bytes_out = r.get<std::uint64_t>();
    t.bytes_in = r.get<std::uint64_t>();
    report.ranks.push_back(t);
  }
  const auto ni = r.get<std::uint64_t>();
  report.irregularities.reserve(ni);
  for (std::uint64_t i = 0; i < ni; ++i) {
    analysis::Irregularity irr;
    const auto kind = r.get<std::uint8_t>();
    if (kind > static_cast<std::uint8_t>(
                   analysis::Irregularity::Kind::kRecvCountOutlier)) {
      bad("unknown irregularity kind " + std::to_string(kind));
    }
    irr.kind = static_cast<analysis::Irregularity::Kind>(kind);
    irr.rank = r.get<std::int32_t>();
    irr.event = r.get<std::uint64_t>();
    irr.description = r.get_string();
    report.irregularities.push_back(std::move(irr));
  }
  return report;
}

std::vector<std::byte> encode_races(const analysis::RaceReport& report) {
  support::BinaryWriter w;
  w.put<std::uint64_t>(report.races.size());
  for (const auto& race : report.races) {
    w.put<std::uint64_t>(race.recv_index);
    w.put<std::uint64_t>(race.matched_send);
    w.put<std::uint64_t>(race.candidates.size());
    for (const auto c : race.candidates) w.put<std::uint64_t>(c);
  }
  return w.bytes();
}

analysis::RaceReport decode_races(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  analysis::RaceReport report;
  const auto n = r.get<std::uint64_t>();
  report.races.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    analysis::MessageRace race;
    race.recv_index = r.get<std::uint64_t>();
    race.matched_send = r.get<std::uint64_t>();
    const auto nc = r.get<std::uint64_t>();
    race.candidates.reserve(nc);
    for (std::uint64_t c = 0; c < nc; ++c) {
      race.candidates.push_back(r.get<std::uint64_t>());
    }
    report.races.push_back(std::move(race));
  }
  return report;
}

std::vector<std::byte> encode_deadlock(const DeadlockInfo& info) {
  support::BinaryWriter w;
  w.put<std::uint8_t>(info.stalled ? 1 : 0);
  w.put_string(info.description);
  w.put<std::uint64_t>(info.unmatched_send_indices.size());
  for (const auto i : info.unmatched_send_indices) w.put<std::uint64_t>(i);
  w.put<std::uint64_t>(info.last_marker_per_rank.size());
  for (const auto m : info.last_marker_per_rank) w.put<std::uint64_t>(m);
  return w.bytes();
}

DeadlockInfo decode_deadlock(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  DeadlockInfo info;
  info.stalled = r.get<std::uint8_t>() != 0;
  info.description = r.get_string();
  const auto nu = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nu; ++i) {
    info.unmatched_send_indices.push_back(r.get<std::uint64_t>());
  }
  const auto nm = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nm; ++i) {
    info.last_marker_per_rank.push_back(r.get<std::uint64_t>());
  }
  return info;
}

std::vector<std::byte> encode_events(const std::vector<trace::Event>& events) {
  support::BinaryWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) trace::wire::encode_event(w, e);
  return w.bytes();
}

std::vector<trace::Event> decode_events(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  const auto n = r.get<std::uint32_t>();
  std::vector<trace::Event> events;
  events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (r.get<std::uint8_t>() != trace::wire::kRecordEvent) {
      bad("event record tag mismatch");
    }
    // Reject unknown kind bytes before the cast, mirroring the trace
    // readers' contract.
    const auto at = r.position();
    auto e = trace::wire::decode_event(r);
    if (!trace::wire::valid_event_kind(static_cast<std::uint8_t>(e.kind))) {
      bad("invalid event kind at payload offset " + std::to_string(at));
    }
    events.push_back(e);
  }
  return events;
}

std::vector<std::byte> encode_text(std::string_view text) {
  support::BinaryWriter w;
  w.put_string(text);
  return w.bytes();
}

std::string decode_text(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  return r.get_string();
}

std::vector<std::byte> encode_session_stats(const SessionStatsInfo& info) {
  support::BinaryWriter w;
  w.put_string(info.fingerprint);
  w.put<std::uint64_t>(info.events);
  w.put<std::uint64_t>(info.watermark);
  w.put<std::uint64_t>(info.cache_hits);
  w.put<std::uint64_t>(info.cache_misses);
  w.put<std::uint64_t>(info.cache_evictions);
  w.put<std::uint64_t>(info.resident_sessions);
  w.put_string(info.passes_text);
  return w.bytes();
}

SessionStatsInfo decode_session_stats(std::span<const std::byte> payload) {
  support::BinaryReader r(payload);
  SessionStatsInfo info;
  info.fingerprint = r.get_string();
  info.events = r.get<std::uint64_t>();
  info.watermark = r.get<std::uint64_t>();
  info.cache_hits = r.get<std::uint64_t>();
  info.cache_misses = r.get<std::uint64_t>();
  info.cache_evictions = r.get<std::uint64_t>();
  info.resident_sessions = r.get<std::uint64_t>();
  info.passes_text = r.get_string();
  return info;
}

Response make_error_response(std::uint64_t id, Status status,
                             std::string_view message) {
  Response resp;
  resp.status = status;
  resp.id = id;
  resp.payload = encode_text(message);
  return resp;
}

void cap_response(Response& response) {
  // magic, version, status, id, reserved word, payload length, payload
  const std::size_t body = 4 + 2 + 2 + 8 + 4 + 4 + response.payload.size();
  if (body <= kMaxFrameBytes) return;
  response = make_error_response(
      response.id, Status::kError,
      "response of " + std::to_string(body) + " bytes exceeds the " +
          std::to_string(kMaxFrameBytes) + "-byte frame cap");
}

}  // namespace tdbg::server
