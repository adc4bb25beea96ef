#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/races.hpp"
#include "analysis/traffic.hpp"
#include "support/serialize.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

/// \file protocol.hpp
/// `tdbg::server` wire protocol — the pure codec layer.
///
/// The trace-analysis service speaks a length-prefixed binary protocol
/// (DeWiz's "analysis modules behind a socket" idea, AADEBUG 2003):
///
///   frame    := u32 body_len | body            (little-endian)
///   request  := magic 'TDRQ' | u16 version | u16 op | u64 id
///               | u32 deadline_ms | u32 arg_len | args
///   response := magic 'TDRS' | u16 version | u16 status | u64 id
///               | u32 reserved | u32 payload_len | payload
///
/// Everything in this file is *pure*: encoding and decoding operate on
/// byte buffers only, never on sockets, so the codec unit-tests
/// in-process and a malformed frame is rejected with a `FormatError`
/// naming the offending field — never by crashing the server.
///
/// Per-op argument and result payload encodings live here too, so the
/// client library and the server share one definition and the
/// "N clients see byte-identical responses" contract is meaningful.

namespace tdbg::server {

/// Protocol revision.  Bumped on any incompatible layout change; a
/// server rejects frames from a different major version with
/// `Status::kBadRequest`.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Request/response body magics ("TDRQ" / "TDRS" as little-endian u32).
inline constexpr std::uint32_t kRequestMagic = 0x51524454u;
inline constexpr std::uint32_t kResponseMagic = 0x53524454u;

/// Hard cap on a frame body.  A length prefix beyond this is treated
/// as garbage (corrupt stream or hostile peer) and rejected before any
/// allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Request operations.
enum class Op : std::uint16_t {
  kPing = 0,          ///< liveness probe; empty args, empty payload
  kOpenTrace = 1,     ///< warm a session; returns `OpenInfo`
  kMatchReport = 2,   ///< send/receive matching (`trace::MatchReport`)
  kTraffic = 3,       ///< traffic statistics (`analysis::TrafficReport`)
  kRaces = 4,         ///< wildcard-receive races (`analysis::RaceReport`)
  kDeadlock = 5,      ///< terminal-stall explanation (`DeadlockInfo`)
  kWindow = 6,        ///< events intersecting [t0, t1]
  kGraphDot = 7,      ///< comm/call graph rendered as DOT text
  kSessionStats = 8,  ///< per-session + cache observability
  kShutdown = 9,      ///< graceful drain-then-stop
};

/// Response statuses.  Everything except `kOk` carries a
/// length-prefixed human-readable message as its payload.
enum class Status : std::uint16_t {
  kOk = 0,
  kError = 1,         ///< op failed (bad trace path, analysis error, ...)
  kBadRequest = 2,    ///< frame decoded but the request is malformed
  kOverloaded = 3,    ///< pending queue full — explicit backpressure
  kTimeout = 4,       ///< request deadline expired before dispatch
  kShuttingDown = 5,  ///< server is draining; no new work admitted
};

[[nodiscard]] std::string_view op_name(Op op);
[[nodiscard]] std::string_view status_name(Status status);

/// One decoded request.
struct Request {
  Op op = Op::kPing;
  std::uint64_t id = 0;
  /// Queue-wait budget: if the request is still pending this many
  /// milliseconds after admission, the server answers `kTimeout`
  /// instead of computing.  0 = no deadline.
  std::uint32_t deadline_ms = 0;
  std::vector<std::byte> args;
};

/// One decoded response.
struct Response {
  Status status = Status::kOk;
  std::uint64_t id = 0;
  std::vector<std::byte> payload;
};

// --- Frame layer -----------------------------------------------------------

/// Encodes a complete wire frame (length prefix included).
[[nodiscard]] std::vector<std::byte> encode_request(const Request& request);
[[nodiscard]] std::vector<std::byte> encode_response(const Response& response);

/// Decodes a frame *body* (the bytes after the length prefix).
/// Throws `FormatError` on bad magic, version, op/status, or length.
[[nodiscard]] Request decode_request(std::span<const std::byte> body);
[[nodiscard]] Response decode_response(std::span<const std::byte> body);

/// Incremental frame reassembly over a byte stream.  Feed whatever
/// the socket produced; `next()` hands back one complete frame body at
/// a time.  A length prefix above `kMaxFrameBytes` throws
/// `FormatError` immediately (the stream is unrecoverable).
class FrameAssembler {
 public:
  void feed(std::span<const std::byte> bytes);
  /// The next complete frame body, if one is buffered.
  [[nodiscard]] std::optional<std::vector<std::byte>> next();
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

// --- Op argument payloads --------------------------------------------------

/// Which graph `Op::kGraphDot` renders.
enum class GraphKind : std::uint8_t { kComm = 0, kCall = 1 };

/// Most ops take just the trace path (the session key).
[[nodiscard]] std::vector<std::byte> encode_trace_arg(std::string_view path);
[[nodiscard]] std::string decode_trace_arg(std::span<const std::byte> args);

[[nodiscard]] std::vector<std::byte> encode_window_args(std::string_view path,
                                                        support::TimeNs t0,
                                                        support::TimeNs t1);
struct WindowArgs {
  std::string path;
  support::TimeNs t0 = 0;
  support::TimeNs t1 = 0;
};
[[nodiscard]] WindowArgs decode_window_args(std::span<const std::byte> args);

[[nodiscard]] std::vector<std::byte> encode_graph_args(std::string_view path,
                                                       GraphKind kind);
struct GraphArgs {
  std::string path;
  GraphKind kind = GraphKind::kComm;
};
[[nodiscard]] GraphArgs decode_graph_args(std::span<const std::byte> args);

// --- Result payloads -------------------------------------------------------

/// `Op::kOpenTrace` result: the session identity and trace shape.
/// Deterministic for a given file, so concurrent opens are
/// byte-identical.
struct OpenInfo {
  std::string fingerprint;  ///< session-cache key, hex
  std::int32_t num_ranks = 0;
  std::uint64_t events = 0;
  std::uint64_t segments = 0;
  support::TimeNs t_min = 0;
  support::TimeNs t_max = 0;

  friend bool operator==(const OpenInfo&, const OpenInfo&) = default;
};
[[nodiscard]] std::vector<std::byte> encode_open_info(const OpenInfo& info);
[[nodiscard]] OpenInfo decode_open_info(std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_match_report(
    const trace::MatchReport& report);
[[nodiscard]] trace::MatchReport decode_match_report(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_traffic(
    const analysis::TrafficReport& report);
[[nodiscard]] analysis::TrafficReport decode_traffic(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_races(
    const analysis::RaceReport& report);
[[nodiscard]] analysis::RaceReport decode_races(
    std::span<const std::byte> payload);

/// `Op::kDeadlock` result — the terminal-stall explanation derivable
/// from a recorded history: messages still in flight when the trace
/// ends (sent, never received) plus each rank's last recorded marker.
/// A live run's wait-snapshot deadlock cycle is the debugger's job;
/// the service explains what the *trace* shows.
struct DeadlockInfo {
  bool stalled = false;  ///< unmatched traffic at end of history
  std::string description;
  std::vector<std::uint64_t> unmatched_send_indices;
  std::vector<std::uint64_t> last_marker_per_rank;

  friend bool operator==(const DeadlockInfo&, const DeadlockInfo&) = default;
};
[[nodiscard]] std::vector<std::byte> encode_deadlock(const DeadlockInfo& info);
[[nodiscard]] DeadlockInfo decode_deadlock(std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_events(
    const std::vector<trace::Event>& events);
[[nodiscard]] std::vector<trace::Event> decode_events(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_text(std::string_view text);
[[nodiscard]] std::string decode_text(std::span<const std::byte> payload);

/// `Op::kSessionStats` result.  Includes live cache/timing numbers, so
/// (unlike the analysis ops) it is *not* byte-stable across requests.
struct SessionStatsInfo {
  std::string fingerprint;
  std::uint64_t events = 0;
  std::uint64_t watermark = 0;       ///< events the artifacts cover (== events)
  std::uint64_t cache_hits = 0;       ///< session-cache hits
  std::uint64_t cache_misses = 0;     ///< session-cache loads
  std::uint64_t cache_evictions = 0;
  std::uint64_t resident_sessions = 0;
  std::string passes_text;  ///< `analysis::Session::describe()`
};
[[nodiscard]] std::vector<std::byte> encode_session_stats(
    const SessionStatsInfo& info);
[[nodiscard]] SessionStatsInfo decode_session_stats(
    std::span<const std::byte> payload);

/// Builds a non-`kOk` response carrying `message` as its payload.
[[nodiscard]] Response make_error_response(std::uint64_t id, Status status,
                                           std::string_view message);

/// Keeps `response` within one frame: when its frame body would pass
/// `kMaxFrameBytes`, which every peer refuses together with the rest of
/// its stream, it becomes a `kError` naming the body size and the cap.
void cap_response(Response& response);

}  // namespace tdbg::server
