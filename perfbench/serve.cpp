// Workload `serve`: an in-process trace-analysis server on a Unix
// socket, eight stored traces against a four-session cache, and a
// closed loop of two client connections.  It exercises the protocol,
// dispatch, the session cache with its evictions and cold opens; most
// artifacts are cached, so the passes do little.

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "analysis/session.hpp"
#include "graph/export.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/ops.hpp"
#include "server/server.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using namespace tdbg;

namespace {

constexpr int kTraces = 8;        // twice the session cache
constexpr std::size_t kSessions = 4;
constexpr int kClients = 2;
constexpr int kRanks = 8;
constexpr std::size_t kWindows = 32;  // distinct windows per trace

/// Request kinds; `window` is half the mix, the rest a tenth each.
enum Kind { kWindow, kMatch, kTraffic, kRaces, kDeadlock, kCommDot, kKinds };
const char* const kKindNames[kKinds] = {"window", "match",    "traffic",
                                        "races",  "deadlock", "comm_dot"};

/// One served trace with the request arguments and the expected
/// payloads, encoded from a direct session over the same file.
struct Served {
  std::string path;
  std::array<std::vector<std::byte>, kKinds> args;
  std::array<std::vector<std::byte>, kKinds> expected;
  std::vector<std::vector<std::byte>> window_args;
  std::vector<std::vector<std::byte>> window_expected;
};

struct Inputs {
  std::vector<Served> traces;
  double file_bytes = 0;
  double events = 0;
};

Served make_served(const Args& args, int k, Inputs& in) {
  const std::size_t events = args.tiny ? 4000 : 120'000;
  const auto seed = support::SplitMix64(args.seed).split(
      static_cast<std::uint64_t>(k)).next();
  Served s;
  s.path = std::filesystem::absolute(args.workdir /
                                     ("serve-" + std::to_string(k) + ".v3"))
               .string();
  trace::write_trace(s.path, synth_trace(seed, events, kRanks, 384).trace,
                     trace::TraceFormat::kBinaryV3);
  in.file_bytes += static_cast<double>(std::filesystem::file_size(s.path));

  const auto t = trace::open_trace(s.path);
  in.events += static_cast<double>(t.size());
  analysis::Session session(t);
  const auto path_arg = server::encode_trace_arg(s.path);
  for (const Kind kind : {kMatch, kTraffic, kRaces, kDeadlock}) {
    s.args[kind] = path_arg;
  }
  s.args[kCommDot] = server::encode_graph_args(s.path, server::GraphKind::kComm);
  s.expected[kMatch] = server::encode_match_report(session.match_report());
  s.expected[kTraffic] = server::encode_traffic(session.traffic());
  s.expected[kRaces] = server::encode_races(session.races());
  s.expected[kDeadlock] =
      server::encode_deadlock(server::deadlock_from_trace(session));
  s.expected[kCommDot] =
      server::encode_text(graph::to_dot(session.comm_graph().to_export()));

  // Windows of 1% of the time span at seeded offsets.
  support::SplitMix64 rng(seed ^ 0x5eed);
  const auto span = t.t_max() - t.t_min();
  const auto width = std::max<support::TimeNs>(span / 100, 1);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto t0 =
        t.t_min() + static_cast<support::TimeNs>(rng.next_below(
                        static_cast<std::uint64_t>(span - width + 1)));
    std::vector<trace::Event> hits;
    t.for_each_in_window(t0, t0 + width, [&](std::size_t,
                                             const trace::Event& e) {
      hits.push_back(e);
    });
    s.window_args.push_back(server::encode_window_args(s.path, t0, t0 + width));
    s.window_expected.push_back(server::encode_events(hits));
  }
  return s;
}

Inputs set_up(const Args& args) {
  Inputs in;
  for (int k = 0; k < kTraces; ++k) in.traces.push_back(make_served(args, k, in));
  return in;
}

constexpr server::Op kOps[kKinds] = {
    server::Op::kWindow, server::Op::kMatchReport, server::Op::kTraffic,
    server::Op::kRaces,  server::Op::kDeadlock,    server::Op::kGraphDot};

/// What one client connection saw.
struct ClientLog {
  std::array<std::vector<double>, kKinds> ms;  ///< measured requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  Clock::time_point last_end;
};

/// Closed loop: the next request goes out when the previous answer is
/// in.  Trace k is picked with weight 1/(k+1).
void client_loop(const std::string& endpoint, const Inputs& in,
                 std::uint64_t seed, Clock::time_point measure_from,
                 Clock::time_point deadline, bool corrupt, Tracer& tr,
                 ClientLog& log) {
  const auto fail = [&](const std::string& what) {
    ++log.failed;
    if (log.first_failure.empty()) log.first_failure = what;
  };
  try {
    server::Client client(endpoint);
    support::SplitMix64 rng(seed);
    double weight_sum = 0;
    for (int k = 0; k < kTraces; ++k) weight_sum += 1.0 / (k + 1);
    tr.span("serve.client", [&] {
      for (auto start = Clock::now(); start < deadline; start = Clock::now()) {
        double pick = rng.next_double() * weight_sum;
        int k = 0;
        while (k + 1 < kTraces && (pick -= 1.0 / (k + 1)) >= 0) ++k;
        const auto& served = in.traces[static_cast<std::size_t>(k)];
        const auto u = rng.next_below(10);
        const Kind kind = u < 5 ? kWindow : static_cast<Kind>(u - 4);
        const auto w = rng.next_below(kWindows);
        const auto& args = kind == kWindow ? served.window_args[w]
                                           : served.args[kind];
        const auto& expected = kind == kWindow ? served.window_expected[w]
                                               : served.expected[kind];
        const auto response = tr.span(layer::kClientCall, [&] {
          return client.call(kOps[kind], args);
        });
        const auto end = Clock::now();
        auto payload = response.payload;
        if (corrupt && !payload.empty()) payload[0] ^= std::byte{0x80};
        ++log.attempted;
        if (response.status != server::Status::kOk) {
          fail(std::string(kKindNames[kind]) + " answered " +
               std::string(server::status_name(response.status)));
        } else if (payload != expected) {
          fail(std::string(kKindNames[kind]) +
               " response differs from the direct session's encoding");
        }
        if (start >= measure_from) {
          log.ms[kind].push_back(
              std::chrono::duration<double, std::milli>(end - start).count());
          log.last_end = end;
        }
      }
    });
  } catch (const std::exception& e) {
    ++log.attempted;
    fail(std::string("client: ") + e.what());
  }
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  // Requests run on the dispatcher threads only: with two clients and
  // two dispatchers the run stays within four busy threads.
  exec::ScopedExecutor pool(1);
  const auto inputs = timed_set_up([&] { return set_up(args); });
  const auto& in = inputs.first;

  // A relative socket path keeps within the sun_path limit wherever
  // the checkout lives.
  server::ServerOptions options;
  options.unix_path =
      std::filesystem::relative(args.workdir / "serve.sock").string();
  options.max_sessions = kSessions;
  options.dispatch_threads = 2;
  std::filesystem::remove(options.unix_path);
  server::Server srv(options);
  srv.start();

  Tracer tr(args.trace);
  LayerCounters counters;
  const auto warm = std::chrono::duration<double>(args.tiny ? 0.2 : 1.0);
  const auto measure_from =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(warm);
  const auto deadline =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::array<ClientLog, kClients> logs;
  std::vector<std::jthread> clients;  // joined on every path
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, "unix:" + options.unix_path,
                         std::cref(in), args.seed * kClients + c,
                         measure_from, deadline, args.corrupt == "response",
                         std::ref(tr), std::ref(logs[c]));
  }
  std::this_thread::sleep_until(measure_from);
  const auto before = counters.read();
  for (auto& t : clients) t.join();
  const auto deltas = counters.since(before);
  srv.shutdown();
  srv.wait();

  std::vector<double> all;
  std::array<std::vector<double>, kKinds> by_kind;
  Clock::time_point last_end = measure_from;
  for (const auto& log : logs) {
    result.count(log.attempted, log.failed, log.first_failure);
    for (int k = 0; k < kKinds; ++k) {
      all.insert(all.end(), log.ms[k].begin(), log.ms[k].end());
      by_kind[k].insert(by_kind[k].end(), log.ms[k].begin(), log.ms[k].end());
    }
    last_end = std::max(last_end, log.last_end);
  }

  if (!args.trace) {
    const double window_s =
        std::chrono::duration<double>(last_end - measure_from).count();
    emit_end_to_end({inputs.second, all, by_kind[kWindow],
                     static_cast<double>(all.size()) / window_s,
                     in.file_bytes / in.events},
                    result);
    return;
  }
  auto values = counters.medians({deltas});
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = std::string("server.") + kKindNames[k];
    values[name + "_p50_ms"] = median(by_kind[k]);
    values[name + "_tail_ms"] = percentile(by_kind[k], 90);
  }
  values["server.request_p99_ms"] = percentile(all, 99);
  values["trace.file_bytes"] = in.file_bytes;
  values["server.queue_depth_peak"] = static_cast<double>(
      obs::MetricsRegistry::global().gauge("server.queue_depth_peak").max());
  emit_layers(args, tr, std::move(values), result);
}

}  // namespace perfbench
