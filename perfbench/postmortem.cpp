// Workloads `postmortem` and `postmortem-mem`: cold open of a stored
// history, then every bounded `analysis::Session` artifact in pipeline
// order.  Both read the same events; `postmortem` goes through the v3
// file and the segment LRU, `postmortem-mem` through the in-memory
// store, so the pair separates storage access from pass compute.

#include <filesystem>
#include <functional>
#include <optional>

#include "analysis/session.hpp"
#include "graph/export.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "server/protocol.hpp"
#include "support/executor.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using namespace tdbg;

namespace {

constexpr int kRanks = 8;

/// 2^19 events in 32 segments of 2^14: the trace is four times the
/// store's default 8-segment cache, as in the 2.1M-event bench it
/// scales down (a full-size run takes ~10 s, too long to repeat).
/// One receive in 384 is a wildcard, ~124 in all.
struct Size {
  std::size_t events;
  std::uint32_t segment_events;
  std::size_t wildcard_every;
};
Size size_of(const Args& args) {
  return args.tiny ? Size{1u << 13, 1u << 8, 32}
                   : Size{1u << 19, 1u << 14, 384};
}

/// Per-artifact hashes of the canonical encodings.
using Digest = std::vector<std::pair<const char*, std::uint64_t>>;

std::uint64_t hash_bytes(const std::vector<std::byte>& b) {
  return fnv1a(b.data(), b.size());
}
std::uint64_t hash_text(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

Digest digest_of(analysis::Session& s, const std::string& comm_dot) {
  const auto& constructs = s.trace().constructs();
  const auto& cp = s.critical_path();
  std::uint64_t cp_hash = fnv1a(cp.events.data(),
                                cp.events.size() * sizeof(cp.events[0]));
  cp_hash = fnv1a(cp.durations.data(),
                  cp.durations.size() * sizeof(cp.durations[0]), cp_hash);
  cp_hash = fnv1a(&cp.total, sizeof cp.total, cp_hash);
  cp_hash = fnv1a(&cp.rank_switches, sizeof cp.rank_switches, cp_hash);
  return {
      {"match", hash_bytes(server::encode_match_report(s.match_report()))},
      {"traffic", hash_bytes(server::encode_traffic(s.traffic()))},
      {"races", hash_bytes(server::encode_races(s.races()))},
      {"comm_dot", hash_text(comm_dot)},
      {"critical_path", cp_hash},
      {"action_graph",
       hash_text(graph::to_dot(s.action_graph().to_export(constructs)))},
      {"trace_graph",
       hash_text(graph::to_dot(s.trace_graph().to_export(constructs)))},
      {"call_graph",
       hash_text(graph::to_dot(s.call_graph().to_export(constructs)))},
  };
}

struct Answer {
  double first_ms = 0;  ///< open -> match_report
  double total_ms = 0;  ///< open -> every bounded artifact
  Digest digest;
  std::size_t matches = 0;
  bool unmatched = false;
};

/// One cold open plus every bounded artifact, each call in its span.
/// `intertwined` is left out: it is unbounded on this trace.
Answer analyze(const std::function<trace::Trace()>& open, Tracer& tr) {
  Answer a;
  std::optional<trace::Trace> trace;
  std::optional<analysis::Session> s;
  std::string comm_dot;
  const auto t0 = Clock::now();
  tr.span("postmortem.analyze", [&] {
    trace.emplace(tr.span(layer::kOpen, open));
    s.emplace(*trace);
    tr.span(layer::kSweep, [&] { s->sweep(); });
    tr.span(layer::kMatch, [&] { s->match_report(); });
    a.first_ms = seconds_since(t0) * 1e3;
    tr.span(layer::kRankIndex, [&] { s->rank_index(); });
    tr.span(layer::kTraffic, [&] { s->traffic(); });
    tr.span(layer::kCausalOrder, [&] { s->causal_order(); });
    tr.span(layer::kRaces, [&] { s->races(); });
    tr.span(layer::kCommGraph, [&] { s->comm_graph(); });
    comm_dot = tr.span(layer::kCommDot, [&] {
      return graph::to_dot(s->comm_graph().to_export());
    });
    tr.span(layer::kCriticalPath, [&] { s->critical_path(); });
    tr.span(layer::kActionGraph, [&] { s->action_graph(); });
    tr.span(layer::kTraceGraph, [&] { s->trace_graph(); });
    tr.span(layer::kCallGraph, [&] { s->call_graph(); });
  });
  a.total_ms = seconds_since(t0) * 1e3;
  const auto& report = s->match_report();
  a.matches = report.matches.size();
  a.unmatched = !report.unmatched_sends.empty() ||
                !report.unmatched_recvs.empty();
  a.digest = digest_of(*s, comm_dot);
  return a;
}

struct Inputs {
  trace::Trace mem;
  std::filesystem::path file;
  std::uint64_t file_bytes = 0;
  std::size_t sends = 0;
  Digest reference;
};

/// Generates the events, writes the v3 file and builds the reference
/// digest over the in-memory store.
Inputs set_up(const Args& args) {
  const auto size = size_of(args);
  auto synth = synth_trace(args.seed, size.events, kRanks, size.wildcard_every);
  Inputs in;
  in.mem = std::move(synth.trace);
  in.sends = synth.sends;
  in.file = args.workdir / "postmortem.v3";
  trace::write_trace(in.file, in.mem, trace::TraceFormat::kBinaryV3,
                     size.segment_events);
  in.file_bytes = std::filesystem::file_size(in.file);
  Tracer off(false);
  in.reference =
      analyze([&] { return trace::Trace(in.mem.store()); }, off).digest;
  return in;
}

}  // namespace

void run_postmortem(const Args& args, bool in_memory, Result& result) {
  exec::ScopedExecutor pool(pool_threads());
  auto inputs = timed_set_up([&] { return set_up(args); });
  auto& in = inputs.first;
  const double setup_s = inputs.second;
  const auto events = static_cast<double>(in.mem.size());
  const auto open = [&]() -> trace::Trace {
    if (in_memory) return trace::Trace(in.mem.store());
    return trace::open_trace(in.file);
  };
  if (!in_memory) in.mem = trace::Trace();  // the file path reads the file only

  const auto check = [&](Answer& a) {
    if (args.corrupt == "digest") a.digest.front().second ^= 0x80;
    for (std::size_t i = 0; i < a.digest.size(); ++i) {
      result.check(a.digest[i].second == in.reference[i].second,
                   std::string("artifact digest differs: ") +
                       a.digest[i].first);
    }
    result.check(a.matches == in.sends && !a.unmatched,
                 "match count differs from the sends generated, or a "
                 "message is unmatched");
  };

  // Warm-up: page faults and allocator growth of the first passes are
  // not what a user waiting on a recorded trace pays every time.  The
  // set-up's reference builds have warmed the allocator already.
  Tracer off(false);
  auto warm = analyze(open, off);
  check(warm);

  Tracer tr(args.trace);
  LayerCounters counters;
  std::vector<double> first, total, traced, untraced;
  std::vector<std::vector<double>> deltas;
  const auto deadline = Clock::now() + std::chrono::duration<double>(
                                           args.seconds);
  for (int i = 0; i == 0 || Clock::now() < deadline; ++i) {
    // The traced run alternates traced and untraced iterations, so the
    // difference of their medians is the cost of the spans.
    tr.set_active(i % 2 == 0);
    const auto before = counters.read();
    auto a = analyze(open, tr);
    if (tr.enabled() && i % 2 == 0) deltas.push_back(counters.since(before));
    check(a);
    first.push_back(a.first_ms);
    total.push_back(a.total_ms);
    (i % 2 == 0 ? traced : untraced).push_back(a.total_ms);
  }

  if (!args.trace) {
    emit_end_to_end({setup_s, total, first, events / median(total) * 1e3,
                     static_cast<double>(in.file_bytes) / events},
                    result);
    return;
  }
  auto values = counters.medians(deltas);
  values["trace.file_bytes"] = static_cast<double>(in.file_bytes);
  values["tracing.overhead_ms"] = median(traced) - median(untraced);
  emit_layers(args, tr, std::move(values), result);
}

}  // namespace perfbench
