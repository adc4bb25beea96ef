// tdbg::server tests (ctest label `server`):
//
//   * protocol codec round-trips and malformed-frame rejection, with
//     no sockets involved,
//   * served responses byte-identical to `execute_on_session` on a
//     direct local `analysis::Session` over the same trace file,
//   * session-cache sharing (N clients, one load) and LRU eviction,
//   * admission control: queue-full returns `kOverloaded`, an expired
//     deadline returns `kTimeout` — explicit statuses, never a hang,
//   * graceful shutdown drains admitted work before closing, and a
//     peer that stops reading cannot hold the drain up,
//   * an answer too large for one frame becomes a typed error, and the
//     stream after it stays usable,
//   * an 8-client stress mix (also run under TSan and ASan/UBSan by
//     `scripts/verify.sh`).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/ops.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session_cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/store.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace tdbg {
namespace {

using namespace tdbg::server;

// --- helpers ---------------------------------------------------------------

/// Deterministic synthetic workload (the session_test generator):
/// monotone per-rank markers, valid channel sequence numbers, a mix of
/// matched and in-flight messages.
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
    e.t_end = e.t_start + 6;
    const auto roll = rng.next_below(4);
    e.kind = trace::EventKind::kCompute;
    if (roll == 0 && ranks > 1) {
      const int peer = static_cast<int>(
          (static_cast<std::uint64_t>(rank) + 1 +
           rng.next_below(static_cast<std::uint64_t>(ranks - 1))) %
          static_cast<std::uint64_t>(ranks));
      e.kind = trace::EventKind::kSend;
      e.peer = peer;
      e.tag = static_cast<mpi::Tag>(rng.next_below(3));
      e.bytes = 8 + rng.next_below(64);
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
        e.tag = static_cast<mpi::Tag>(rng.next_below(3));
        e.bytes = 8 + rng.next_below(64);
        e.wildcard = rng.next_below(2) == 0;
        break;
      }
    }
    events.push_back(e);
  }
  return events;
}

/// Short-lived scratch directory with a *short* absolute path, so
/// Unix-domain socket paths stay under sun_path's ~108-byte cap.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("tdbg_sv_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string write_synth_trace(const TempDir& dir, const std::string& name,
                              std::size_t n, int ranks, std::uint64_t seed) {
  const auto file = dir.file(name);
  trace::write_trace(file, trace::Trace(ranks, synth_events(n, ranks, seed),
                                        nullptr));
  return file;
}

/// Direct local execution — the reference the served bytes must equal.
std::vector<std::byte> local_payload(const std::string& trace_path, Op op,
                                     std::vector<std::byte> args) {
  SessionCache::Entry entry;
  entry.key = fingerprint_trace_file(trace_path);
  entry.trace = trace::open_trace(trace_path);
  entry.session = std::make_unique<analysis::Session>(entry.trace);
  Request request;
  request.op = op;
  request.id = 1;
  request.args = std::move(args);
  const auto response = execute_on_session(request, entry, CacheView{});
  EXPECT_EQ(response.status, Status::kOk) << op_name(op);
  return response.payload;
}

// --- protocol codec --------------------------------------------------------

TEST(ServerProtocolTest, RequestRoundTrip) {
  Request request;
  request.op = Op::kWindow;
  request.id = 0xdeadbeefcafe1234ull;
  request.deadline_ms = 750;
  request.args = encode_window_args("/tmp/x.trc", 100, 900);

  const auto frame = encode_request(request);
  // Strip the length prefix the way the assembler would.
  FrameAssembler assembler;
  assembler.feed(frame);
  const auto body = assembler.next();
  ASSERT_TRUE(body.has_value());
  EXPECT_FALSE(assembler.next().has_value());

  const auto decoded = decode_request(*body);
  EXPECT_EQ(decoded.op, Op::kWindow);
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.deadline_ms, 750u);
  const auto args = decode_window_args(decoded.args);
  EXPECT_EQ(args.path, "/tmp/x.trc");
  EXPECT_EQ(args.t0, 100);
  EXPECT_EQ(args.t1, 900);
}

TEST(ServerProtocolTest, ResponseRoundTrip) {
  const auto resp = make_error_response(7, Status::kOverloaded, "queue full");
  const auto frame = encode_response(resp);
  FrameAssembler assembler;
  assembler.feed(frame);
  const auto body = assembler.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = decode_response(*body);
  EXPECT_EQ(decoded.status, Status::kOverloaded);
  EXPECT_EQ(decoded.id, 7u);
  EXPECT_EQ(decode_text(decoded.payload), "queue full");
}

TEST(ServerProtocolTest, ResponsePastTheFrameCapBecomesTypedError) {
  const std::size_t header =
      encode_response(Response{}).size() - sizeof(std::uint32_t);
  {
    Response fits;  // a frame body of exactly the cap
    fits.payload.resize(kMaxFrameBytes - header);
    cap_response(fits);
    EXPECT_EQ(fits.status, Status::kOk);
    EXPECT_EQ(fits.payload.size(), kMaxFrameBytes - header);
  }
  Response big;
  big.id = 6;
  big.payload.resize(std::size_t{kMaxFrameBytes} + 1);
  cap_response(big);
  EXPECT_EQ(big.status, Status::kError);
  EXPECT_EQ(big.id, 6u);
  EXPECT_EQ(decode_text(big.payload),
            "response of " + std::to_string(kMaxFrameBytes + 1 + header) +
                " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                "-byte frame cap");

  // The stream stays usable: the next frame after the error decodes.
  Response next;
  next.id = 7;
  next.payload = encode_text("after");
  FrameAssembler assembler;
  assembler.feed(encode_response(big));
  assembler.feed(encode_response(next));
  const auto first = assembler.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(decode_response(*first).status, Status::kError);
  const auto second = assembler.next();
  ASSERT_TRUE(second.has_value());
  const auto decoded = decode_response(*second);
  EXPECT_EQ(decoded.id, 7u);
  EXPECT_EQ(decode_text(decoded.payload), "after");
}

TEST(ServerProtocolTest, FrameAssemblerReassemblesByteAtATime) {
  Request request;
  request.op = Op::kMatchReport;
  request.id = 42;
  request.args = encode_trace_arg("t.trc");
  const auto frame = encode_request(request);

  FrameAssembler assembler;
  std::size_t frames = 0;
  // Two copies of the frame, delivered one byte at a time.
  for (int copy = 0; copy < 2; ++copy) {
    for (const auto b : frame) {
      assembler.feed({&b, 1});
      while (auto body = assembler.next()) {
        const auto decoded = decode_request(*body);
        EXPECT_EQ(decoded.id, 42u);
        ++frames;
      }
    }
  }
  EXPECT_EQ(frames, 2u);
}

TEST(ServerProtocolTest, MalformedFramesRejected) {
  Request request;
  request.op = Op::kPing;
  request.id = 1;
  const auto frame = encode_request(request);
  std::vector<std::byte> body(frame.begin() + 4, frame.end());

  {  // bad magic
    auto bad = body;
    bad[0] = std::byte{0xff};
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // wrong version
    auto bad = body;
    bad[4] = std::byte{0x77};
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // unknown op
    auto bad = body;
    bad[6] = std::byte{0x99};
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // trailing junk after the args blob
    auto bad = body;
    bad.push_back(std::byte{0});
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // truncated mid-header
    std::vector<std::byte> bad(body.begin(), body.begin() + 6);
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // args length pointing past the end of the frame
    auto bad = body;
    // The u32 arg_len sits at offset 20 (after magic, version, op,
    // id, deadline); inflate it past the frame end.
    bad[20] = std::byte{0xff};
    bad[21] = std::byte{0xff};
    EXPECT_THROW((void)decode_request(bad), FormatError);
  }
  {  // a length prefix beyond the frame cap poisons the stream
    FrameAssembler assembler;
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::byte prefix[4];
    std::memcpy(prefix, &huge, 4);
    assembler.feed(prefix);
    EXPECT_THROW((void)assembler.next(), FormatError);
  }
  // Responses get the same treatment.
  EXPECT_THROW((void)decode_response(body), FormatError);  // request magic
}

TEST(ServerProtocolTest, PayloadCodecsRoundTrip) {
  OpenInfo open;
  open.fingerprint = "123-abc";
  open.num_ranks = 4;
  open.events = 999;
  open.segments = 3;
  open.t_min = -5;
  open.t_max = 77;
  EXPECT_EQ(decode_open_info(encode_open_info(open)), open);

  DeadlockInfo dl;
  dl.stalled = true;
  dl.description = "one in flight\n";
  dl.unmatched_send_indices = {3, 9};
  dl.last_marker_per_rank = {4, 4, 2};
  EXPECT_EQ(decode_deadlock(encode_deadlock(dl)), dl);

  const auto events = synth_events(64, 3, 11);
  const auto decoded = decode_events(encode_events(events));
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].marker, events[i].marker);
    EXPECT_EQ(decoded[i].kind, events[i].kind);
    EXPECT_EQ(decoded[i].rank, events[i].rank);
  }

  EXPECT_EQ(decode_text(encode_text("dot dot dot")), "dot dot dot");

  SessionStatsInfo stats;
  stats.fingerprint = "1-2";
  stats.events = 10;
  stats.watermark = 10;
  stats.cache_hits = 5;
  stats.cache_misses = 1;
  stats.cache_evictions = 0;
  stats.resident_sessions = 1;
  stats.passes_text = "12 passes";
  const auto back = decode_session_stats(encode_session_stats(stats));
  EXPECT_EQ(back.fingerprint, stats.fingerprint);
  EXPECT_EQ(back.cache_hits, 5u);
  EXPECT_EQ(back.passes_text, stats.passes_text);
}

// --- served == local -------------------------------------------------------

TEST(ServerTest, ServedResponsesMatchDirectSession) {
  TempDir dir("match");
  const auto trace_path = write_synth_trace(dir, "a.trc", 600, 4, 17);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  Server srv(options);
  srv.start();
  {
    Client client("unix:" + options.unix_path);

    const std::vector<std::pair<Op, std::vector<std::byte>>> calls = {
        {Op::kOpenTrace, encode_trace_arg(trace_path)},
        {Op::kMatchReport, encode_trace_arg(trace_path)},
        {Op::kTraffic, encode_trace_arg(trace_path)},
        {Op::kRaces, encode_trace_arg(trace_path)},
        {Op::kDeadlock, encode_trace_arg(trace_path)},
        {Op::kWindow, encode_window_args(trace_path, 100, 2000)},
        {Op::kGraphDot, encode_graph_args(trace_path, GraphKind::kComm)},
        {Op::kGraphDot, encode_graph_args(trace_path, GraphKind::kCall)},
    };
    for (const auto& [op, args] : calls) {
      const auto served = client.call(op, args);
      ASSERT_EQ(served.status, Status::kOk) << op_name(op);
      EXPECT_EQ(served.payload, local_payload(trace_path, op, args))
          << "served payload diverges for " << op_name(op);
    }

    // Typed helpers agree with the trace too.
    const auto info = client.open_trace(trace_path);
    EXPECT_EQ(info.num_ranks, 4);
    EXPECT_EQ(info.events, 600u);
  }
  srv.shutdown();
  srv.wait();
}

TEST(ServerTest, EightClientsShareOneSessionByteIdentical) {
  TempDir dir("eight");
  const auto trace_path = write_synth_trace(dir, "a.trc", 800, 4, 23);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 4;
  Server srv(options);
  srv.start();

  const std::vector<Op> ops = {Op::kMatchReport, Op::kTraffic, Op::kRaces,
                               Op::kDeadlock};
  constexpr int kClients = 8;
  std::vector<std::map<Op, std::vector<std::byte>>> results(kClients);
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          Client client("unix:" + options.unix_path);
          for (const auto op : ops) {
            auto response = client.call(op, encode_trace_arg(trace_path));
            if (response.status != Status::kOk) {
              failures[static_cast<std::size_t>(c)] =
                  std::string("status ") +
                  std::string(status_name(response.status));
              return;
            }
            results[static_cast<std::size_t>(c)][op] =
                std::move(response.payload);
          }
        } catch (const std::exception& e) {
          failures[static_cast<std::size_t>(c)] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  }
  // Byte-identical across clients AND vs the direct local session.
  for (const auto op : ops) {
    const auto reference = local_payload(trace_path, op,
                                         encode_trace_arg(trace_path));
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(results[static_cast<std::size_t>(c)][op], reference)
          << "client " << c << " diverges on " << op_name(op);
    }
  }
  // All 32 requests shared ONE session load.
  const auto cache = srv.cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, static_cast<std::uint64_t>(kClients) * ops.size() - 1);
  srv.shutdown();
  srv.wait();
}

// --- session cache ---------------------------------------------------------

TEST(ServerSessionCacheTest, SharesAndEvicts) {
  TempDir dir("cache");
  const auto a = write_synth_trace(dir, "a.trc", 200, 3, 1);
  const auto b = write_synth_trace(dir, "b.trc", 200, 3, 2);

  SessionCache cache(/*max_sessions=*/1);
  const auto first = cache.open(a);
  const auto again = cache.open(a);
  EXPECT_EQ(first.get(), again.get());  // same Entry shared
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto other = cache.open(b);  // evicts `a`
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident, 1u);
  // The evicted entry stays alive for holders of the shared_ptr.
  EXPECT_EQ(first->trace.size(), 200u);

  const auto reload = cache.open(a);  // cold again
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_NE(reload.get(), first.get());
  (void)other;
}

TEST(ServerSessionCacheTest, FingerprintTracksContent) {
  TempDir dir("fp");
  const auto path = write_synth_trace(dir, "a.trc", 100, 3, 1);
  const auto key1 = fingerprint_trace_file(path);
  // Same content -> same key.
  EXPECT_EQ(fingerprint_trace_file(path), key1);
  // Different content in the same path -> different key.
  trace::write_trace(path,
                     trace::Trace(3, synth_events(101, 3, 9), nullptr));
  const auto key2 = fingerprint_trace_file(path);
  EXPECT_NE(key1, key2);
  EXPECT_THROW((void)fingerprint_trace_file(dir.file("missing.trc")),
               IoError);
}

// --- admission control -----------------------------------------------------

TEST(ServerTest, QueueFullReturnsOverloadedNeverHangs) {
  TempDir dir("ovl");
  const auto trace_path = write_synth_trace(dir, "a.trc", 100, 3, 5);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 1;
  options.max_pending = 1;
  options.debug_dispatch_delay_ns = 300'000'000;  // 300 ms per dispatch
  Server srv(options);
  srv.start();

  constexpr int kCallers = 4;
  std::vector<Status> statuses(kCallers, Status::kOk);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        Client client("unix:" + options.unix_path);
        statuses[static_cast<std::size_t>(c)] =
            client.call(Op::kMatchReport, encode_trace_arg(trace_path))
                .status;
      });
    }
    // While the queue is saturated, ping still answers (reader-side).
    Client prober("unix:" + options.unix_path);
    prober.ping();
    for (auto& t : threads) t.join();
  }
  int ok = 0;
  int overloaded = 0;
  for (const auto s : statuses) {
    if (s == Status::kOk) ++ok;
    if (s == Status::kOverloaded) ++overloaded;
  }
  // 1 in flight + 1 queued; with 4 near-simultaneous callers at least
  // one must have been bounced with explicit backpressure.
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, kCallers);
  srv.shutdown();
  srv.wait();
}

TEST(ServerTest, ExpiredDeadlineReturnsTimeout) {
  TempDir dir("to");
  const auto trace_path = write_synth_trace(dir, "a.trc", 100, 3, 5);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 1;
  options.debug_dispatch_delay_ns = 50'000'000;  // 50 ms >> 1 ms budget
  Server srv(options);
  srv.start();
  {
    Client client("unix:" + options.unix_path);
    const auto response = client.call(
        Op::kMatchReport, encode_trace_arg(trace_path), /*deadline_ms=*/1);
    EXPECT_EQ(response.status, Status::kTimeout);
    // Without a deadline the same request computes fine.
    const auto unbounded =
        client.call(Op::kMatchReport, encode_trace_arg(trace_path));
    EXPECT_EQ(unbounded.status, Status::kOk);
  }
  srv.shutdown();
  srv.wait();
}

TEST(ServerTest, GracefulShutdownDrainsInFlight) {
  TempDir dir("drain");
  const auto trace_path = write_synth_trace(dir, "a.trc", 400, 3, 5);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 1;
  options.debug_dispatch_delay_ns = 150'000'000;  // 150 ms
  Server srv(options);
  srv.start();

  Status slow_status = Status::kError;
  std::thread slow([&] {
    Client client("unix:" + options.unix_path);
    slow_status =
        client.call(Op::kMatchReport, encode_trace_arg(trace_path)).status;
  });
  // Let the slow request get admitted, then ask for the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  {
    Client killer("unix:" + options.unix_path);
    killer.shutdown_server();
    // Post-shutdown requests are refused explicitly (or the socket is
    // already gone) — never silently queued.
    try {
      const auto refused =
          killer.call(Op::kMatchReport, encode_trace_arg(trace_path));
      EXPECT_EQ(refused.status, Status::kShuttingDown);
    } catch (const IoError&) {
      // drain finished first and closed the connection — acceptable
    }
  }
  slow.join();
  // The in-flight request was completed, not dropped.
  EXPECT_EQ(slow_status, Status::kOk);
  srv.wait();
  EXPECT_TRUE(srv.finished());
}

TEST(ServerTest, DrainDropsAPeerThatStopsReading) {
  TempDir dir("stall");
  // ~1.2 MB of window events: far more than a socket buffer holds.
  const auto trace_path = write_synth_trace(dir, "a.trc", 20000, 3, 5);

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 1;
  Server srv(options);
  srv.start();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Request request;
  request.op = Op::kWindow;
  request.id = 1;
  request.args = encode_window_args(trace_path, 0, 20000 * 10);
  const auto frame = encode_request(request);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  // Never read the answer; let the dispatcher start writing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  srv.shutdown();
  auto drained = std::async(std::launch::async, [&] { srv.wait(); });
  const bool in_time =
      drained.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(fd);  // frees a server still blocked on the write
  drained.wait();
  EXPECT_TRUE(in_time) << "drain waited on a peer that stopped reading";
  EXPECT_TRUE(srv.finished());
}

// --- transports ------------------------------------------------------------

TEST(ServerTest, TcpEndpointServes) {
  TempDir dir("tcp");
  const auto trace_path = write_synth_trace(dir, "a.trc", 200, 3, 3);

  ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  Server srv(options);
  srv.start();
  ASSERT_GT(srv.tcp_port(), 0);
  {
    Client client("tcp:127.0.0.1:" + std::to_string(srv.tcp_port()));
    client.ping();
    const auto report = client.match_report(trace_path);
    const auto direct = decode_match_report(local_payload(
        trace_path, Op::kMatchReport, encode_trace_arg(trace_path)));
    EXPECT_EQ(report.matches.size(), direct.matches.size());
    EXPECT_EQ(report.unmatched_sends, direct.unmatched_sends);
  }
  srv.shutdown();
  srv.wait();
}

TEST(ServerTest, GarbageBytesGetBadRequestNotCrash) {
  TempDir dir("junk");
  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  Server srv(options);
  srv.start();

  // Raw socket: a well-framed body that is not a valid request.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::uint32_t len = 8;
  char junk[12];
  std::memcpy(junk, &len, 4);
  std::memset(junk + 4, 0x5a, 8);
  ASSERT_EQ(::send(fd, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  // The server answers kBadRequest (id 0) and closes the connection.
  FrameAssembler assembler;
  Response response;
  bool got = false;
  char buf[512];
  while (!got) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed without a response";
    assembler.feed({reinterpret_cast<const std::byte*>(buf),
                    static_cast<std::size_t>(n)});
    if (auto body = assembler.next()) {
      response = decode_response(*body);
      got = true;
    }
  }
  EXPECT_EQ(response.status, Status::kBadRequest);
  ::close(fd);

  // And the server still serves well-formed clients afterwards.
  Client client("unix:" + options.unix_path);
  client.ping();
  srv.shutdown();
  srv.wait();
}

// --- stress (also run under TSan / ASan via scripts/verify.sh) -------------

TEST(ServerStressTest, EightClientsMixedOpsTwoTraces) {
  TempDir dir("stress");
  const std::vector<std::string> traces = {
      write_synth_trace(dir, "a.trc", 500, 4, 101),
      write_synth_trace(dir, "b.trc", 500, 4, 202),
  };

  ServerOptions options;
  options.unix_path = dir.file("s.sock");
  options.dispatch_threads = 4;
  options.max_sessions = 2;
  Server srv(options);
  srv.start();

  const std::vector<Op> ops = {Op::kMatchReport, Op::kTraffic, Op::kRaces,
                               Op::kDeadlock};
  // Reference payloads per (trace, op), computed locally.
  std::map<std::pair<std::string, Op>, std::vector<std::byte>> reference;
  for (const auto& t : traces) {
    for (const auto op : ops) {
      reference[{t, op}] = local_payload(t, op, encode_trace_arg(t));
    }
  }

  constexpr int kClients = 8;
  constexpr int kRounds = 6;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client("unix:" + options.unix_path);
        for (int round = 0; round < kRounds; ++round) {
          const auto& t = traces[static_cast<std::size_t>(c + round) %
                                 traces.size()];
          const auto op = ops[static_cast<std::size_t>(c * kRounds + round) %
                              ops.size()];
          auto response = client.call(op, encode_trace_arg(t));
          if (response.status != Status::kOk) {
            failures[static_cast<std::size_t>(c)] =
                std::string(status_name(response.status));
            return;
          }
          if (response.payload != reference[{t, op}]) {
            failures[static_cast<std::size_t>(c)] =
                "payload diverges on " + std::string(op_name(op));
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  }
  // Both traces were loaded exactly once despite 48 requests.
  EXPECT_EQ(srv.cache_stats().misses, 2u);
  srv.shutdown();
  srv.wait();
}

// --- trace.cache.* observability (satellite) -------------------------------

TEST(TraceCacheMetricsTest, SegmentCacheCountersExported) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "TDBG_METRICS=OFF";
  auto& reg = obs::MetricsRegistry::global();
  const auto loads0 = reg.counter("trace.cache.loads").total();
  const auto hits0 = reg.counter("trace.cache.hits").total();
  const auto evict0 = reg.counter("trace.cache.evictions").total();

  TempDir dir("obs");
  const auto path = dir.file("seg.trc");
  trace::write_trace(path, trace::Trace(3, synth_events(1000, 3, 7), nullptr),
                     trace::TraceFormat::kBinary, /*segment_events=*/64);

  trace::TraceOpenOptions open_options;
  open_options.cache_segments = 2;
  const auto trace = trace::open_trace(path, open_options);
  ASSERT_GT(trace.segment_count(), 4u);
  trace.for_each_event([](std::size_t, const trace::Event&) {});
  (void)trace.event(0);  // reload after eviction...
  (void)trace.event(0);  // ...then a warm hit

  EXPECT_GT(reg.counter("trace.cache.loads").total(), loads0);
  EXPECT_GT(reg.counter("trace.cache.hits").total(), hits0);
  EXPECT_GT(reg.counter("trace.cache.evictions").total(), evict0);
  EXPECT_GT(reg.gauge("trace.cache.resident_segments").max(), 0u);
  // The store's own stats agree in spirit with the exported counters.
  const auto* store =
      dynamic_cast<const trace::SegmentedTraceStore*>(trace.store().get());
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->cache_stats().loads, 0u);
  EXPECT_GT(store->cache_stats().evictions, 0u);
}

}  // namespace
}  // namespace tdbg
