#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "support/rng.hpp"

namespace perfbench {

using namespace tdbg;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

// --- Probes ----------------------------------------------------------------

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t heap_bytes() {
  const auto info = ::mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Spans -------------------------------------------------------------

namespace {

thread_local int t_open_span = -1;

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), active_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(tracer), outer_(t_open_span) {
  Span s;
  s.name = std::string(name);
  s.parent = outer_;
  s.thread = thread_number();
  s.cpu_ns = process_cpu_ns();
  s.heap_delta = heap_bytes();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - tracer_.epoch_)
                   .count();
  const std::lock_guard lock(tracer_.mu_);
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(s));
  t_open_span = static_cast<int>(index_);
}

Tracer::Scope::~Scope() {
  const auto end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - tracer_.epoch_)
                       .count();
  const auto cpu = process_cpu_ns();
  const auto heap = heap_bytes();
  t_open_span = outer_;
  const std::lock_guard lock(tracer_.mu_);
  auto& s = tracer_.spans_[index_];
  s.end_ns = end;
  s.cpu_ns = cpu - s.cpu_ns;
  s.heap_delta = heap - s.heap_delta;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace

void Tracer::write(
    const std::filesystem::path& path,
    const std::vector<std::pair<std::string, double>>& counters) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":"
        << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"cpu_ms\":" << json_number(static_cast<double>(s.cpu_ns) / 1e6)
        << ",\"heap_delta_bytes\":" << s.heap_delta << "}}";
  }
  out << "\n],\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i ? "," : "") << "\"" << counters[i].first
        << "\":" << json_number(counters[i].second);
  }
  out << "}}\n";
}

std::map<std::string, SpanStats> summarize(const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  for (const auto& s : spans) {
    auto& st = out[s.name];
    st.wall_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    st.cpu_ms.push_back(static_cast<double>(s.cpu_ns) / 1e6);
    st.heap_growth_mib.push_back(static_cast<double>(s.heap_delta) /
                                 (1024.0 * 1024.0));
  }
  return out;
}

double layer_coverage(const std::vector<Span>& spans) {
  // Layer spans nest one level under their end-to-end span and do not
  // overlap, so the sum of their self times is the sum of their
  // durations.  A root without children is a standalone layer call
  // (the uninstrumented mpi.run base), not an end-to-end operation.
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::int64_t total = 0;
  std::int64_t layers = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && covered[i] > 0) {
      total += spans[i].end_ns - spans[i].start_ns;
      layers += covered[i];
    }
  }
  return total > 0 ? static_cast<double>(layers) / static_cast<double>(total)
                   : 0.0;
}

// --- Statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// --- Inputs ------------------------------------------------------------

SynthTrace synth_trace(std::uint64_t seed, std::size_t events, int ranks,
                       std::size_t wildcard_every) {
  auto registry = std::make_shared<trace::ConstructRegistry>();
  const auto c_work = registry->intern("work", "perfbench", 1);
  const auto c_msg = registry->intern("msg", "perfbench", 2);

  support::SplitMix64 rng(seed);
  const auto nr = static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> marker(nr, 0);
  std::vector<support::TimeNs> clock(nr, 0);
  std::vector<std::vector<mpi::ChannelSeq>> chan_seq(
      nr, std::vector<mpi::ChannelSeq>(nr, 0));
  SynthTrace out;
  std::vector<trace::Event> evs;
  evs.reserve(events + 1);
  auto advance = [&](std::size_t r, trace::Event& e) {
    e.rank = static_cast<mpi::Rank>(r);
    e.marker = ++marker[r];
    e.t_start = clock[r];
    clock[r] += static_cast<support::TimeNs>(1 + rng.next_below(20));
    e.t_end = clock[r];
  };
  while (evs.size() < events) {
    const auto r = static_cast<std::size_t>(rng.next_below(nr));
    if (rng.next_below(10) == 0) {
      const auto dst = (r + 1 + rng.next_below(nr - 1)) % nr;
      const auto seq = chan_seq[r][dst]++;
      trace::Event send;
      advance(r, send);
      send.kind = trace::EventKind::kSend;
      send.construct = c_msg;
      send.peer = static_cast<mpi::Rank>(dst);
      send.tag = 1;
      send.channel_seq = seq;
      send.bytes = 256;
      evs.push_back(send);
      trace::Event recv;
      advance(dst, recv);
      recv.kind = trace::EventKind::kRecv;
      recv.construct = c_msg;
      recv.peer = static_cast<mpi::Rank>(r);
      recv.tag = 1;
      recv.channel_seq = seq;
      recv.bytes = 256;
      recv.wildcard = ++out.sends % wildcard_every == 0;
      evs.push_back(recv);
    } else {
      trace::Event e;
      advance(r, e);
      e.kind = trace::EventKind::kCompute;
      e.construct = c_work;
      evs.push_back(e);
    }
  }
  out.trace = trace::Trace(ranks, std::move(evs), std::move(registry));
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- Result ------------------------------------------------------------

void Result::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 5) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Result::count(std::uint64_t attempted, std::uint64_t failed,
                   std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Result::metric(const std::string& name, double value, std::string unit) {
  metrics_.emplace_back(name, std::pair(value, std::move(unit)));
}

void emit_end_to_end(const EndToEnd& e2e, Result& result) {
  result.metric("setup_s", e2e.setup_s, "s");
  result.metric("answer_ms", median(e2e.answer_ms), "ms");
  result.metric("first_answer_ms", median(e2e.first_answer_ms), "ms");
  result.metric("throughput_per_s", e2e.throughput_per_s, "1/s");
  result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  result.metric("trace_bytes_per_event", e2e.trace_bytes_per_event, "B");
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": "
      << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? ", " : "") << "\"" << name
        << "\": {\"value\": " << json_number(vu.first) << ", \"unit\": \""
        << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
