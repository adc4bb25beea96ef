#include "server/ops.hpp"

#include <sstream>

#include "graph/call_graph.hpp"
#include "graph/comm_graph.hpp"
#include "graph/export.hpp"
#include "support/error.hpp"

namespace tdbg::server {

namespace {

Response ok(std::uint64_t id, std::vector<std::byte> payload) {
  Response resp;
  resp.status = Status::kOk;
  resp.id = id;
  resp.payload = std::move(payload);
  return resp;
}

}  // namespace

DeadlockInfo deadlock_from_trace(analysis::Session& session) {
  const auto& report = session.match_report();
  const auto& trace = session.trace();
  DeadlockInfo info;
  info.stalled = !report.unmatched_sends.empty();
  info.unmatched_send_indices.assign(report.unmatched_sends.begin(),
                                     report.unmatched_sends.end());
  info.last_marker_per_rank.resize(
      static_cast<std::size_t>(trace.num_ranks()), 0);
  for (int r = 0; r < trace.num_ranks(); ++r) {
    const auto n = trace.rank_size(r);
    if (n > 0) {
      info.last_marker_per_rank[static_cast<std::size_t>(r)] =
          trace.event(trace.rank_event(r, n - 1)).marker;
    }
  }

  std::ostringstream out;
  if (!info.stalled) {
    out << "no messages in flight at end of history ("
        << report.matches.size() << " matched)\n";
  } else {
    out << report.unmatched_sends.size()
        << " message(s) sent but never received:\n";
    std::size_t shown = 0;
    for (const auto idx : report.unmatched_sends) {
      if (shown++ == 16) {
        out << "  ... (" << report.unmatched_sends.size() - 16 << " more)\n";
        break;
      }
      const auto e = trace.event(idx);
      out << "  send #" << idx << ": rank " << e.rank << " -> " << e.peer
          << " tag " << e.tag << " (" << e.bytes << " bytes)\n";
    }
    out << "receivers of in-flight messages are candidates for blocked "
           "or dead ranks\n";
  }
  info.description = out.str();
  return info;
}

Response execute_on_session(const Request& request,
                            SessionCache::Entry& entry,
                            const CacheView& cache) {
  auto& session = *entry.session;
  const auto& trace = entry.trace;
  try {
    switch (request.op) {
      case Op::kOpenTrace: {
        OpenInfo info;
        info.fingerprint = entry.key.hex();
        info.num_ranks = trace.num_ranks();
        info.events = trace.size();
        info.segments = trace.segment_count();
        info.t_min = trace.t_min();
        info.t_max = trace.t_max();
        return ok(request.id, encode_open_info(info));
      }
      case Op::kMatchReport:
        return ok(request.id, encode_match_report(session.match_report()));
      case Op::kTraffic:
        return ok(request.id, encode_traffic(session.traffic()));
      case Op::kRaces:
        return ok(request.id, encode_races(session.races()));
      case Op::kDeadlock:
        return ok(request.id, encode_deadlock(deadlock_from_trace(session)));
      case Op::kWindow: {
        const auto args = decode_window_args(request.args);
        std::vector<trace::Event> events;
        trace.for_each_in_window(
            args.t0, args.t1,
            [&](std::size_t, const trace::Event& e) { events.push_back(e); });
        return ok(request.id, encode_events(events));
      }
      case Op::kGraphDot: {
        const auto args = decode_graph_args(request.args);
        std::string dot;
        if (args.kind == GraphKind::kComm) {
          dot = graph::to_dot(session.comm_graph().to_export());
        } else {
          dot = graph::to_dot(
              session.call_graph(std::nullopt).to_export(trace.constructs()));
        }
        return ok(request.id, encode_text(dot));
      }
      case Op::kSessionStats: {
        SessionStatsInfo info;
        info.fingerprint = entry.key.hex();
        info.events = trace.size();
        info.watermark = session.trace().size();
        info.cache_hits = cache.hits;
        info.cache_misses = cache.misses;
        info.cache_evictions = cache.evictions;
        info.resident_sessions = cache.resident;
        info.passes_text = session.describe();
        return ok(request.id, encode_session_stats(info));
      }
      case Op::kPing:
      case Op::kShutdown:
        break;
    }
    return make_error_response(request.id, Status::kBadRequest,
                               "op does not take a session");
  } catch (const FormatError& e) {
    return make_error_response(request.id, Status::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return make_error_response(request.id, Status::kError, e.what());
  }
}

}  // namespace tdbg::server
