#include "telemetry/chrome_trace.hpp"

#include <cstdio>
#include <sstream>

namespace tdbg::telemetry {

namespace {

/// JSON string escaping for names (site names are identifiers, but a
/// user-provided construct name could contain anything).
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// ns -> µs with three decimals (keeps full ns precision in the µs
/// unit the format mandates).
std::string us(support::TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? -(ns % 1000) : ns % 1000));
  return buf;
}

}  // namespace

void ChromeTraceWriter::set_process_name(int pid, std::string_view name) {
  std::ostringstream os;
  os << R"({"name":"process_name","ph":"M","pid":)" << pid
     << R"(,"tid":0,"args":{"name":")" << escape(name) << R"("}})";
  events_.push_back(os.str());
}

void ChromeTraceWriter::set_thread_name(int pid, int tid,
                                        std::string_view name) {
  std::ostringstream os;
  os << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
     << tid << R"(,"args":{"name":")" << escape(name) << R"("}})";
  events_.push_back(os.str());
}

void ChromeTraceWriter::add_complete(int pid, int tid, std::string_view name,
                                     support::TimeNs t_start,
                                     support::TimeNs dur_ns,
                                     std::string_view args_json) {
  if (t_start < 0) t_start = 0;
  if (dur_ns < 0) dur_ns = 0;
  std::ostringstream os;
  os << R"({"name":")" << escape(name) << R"(","ph":"X","ts":)" << us(t_start)
     << R"(,"dur":)" << us(dur_ns) << R"(,"pid":)" << pid << R"(,"tid":)"
     << tid;
  if (!args_json.empty()) os << R"(,"args":{)" << args_json << "}";
  os << "}";
  events_.push_back(os.str());
}

void ChromeTraceWriter::add_instant(int pid, int tid, std::string_view name,
                                    support::TimeNs t,
                                    std::string_view args_json) {
  if (t < 0) t = 0;
  std::ostringstream os;
  os << R"({"name":")" << escape(name) << R"(","ph":"i","s":"t","ts":)"
     << us(t) << R"(,"pid":)" << pid << R"(,"tid":)" << tid;
  if (!args_json.empty()) os << R"(,"args":{)" << args_json << "}";
  os << "}";
  events_.push_back(os.str());
}

void ChromeTraceWriter::add_spans(const std::vector<SpanRecord>& spans,
                                  int pid) {
  for (const auto& span : spans) {
    // Rank threads keep their rank as the tid; utility threads
    // (driver, runtime, flusher) share row 99 below the ranks.
    const int tid = span.rank < 0 ? 99 : span.rank;
    add_complete(pid, tid, site_name(span.name), span.t_start,
                 span.t_end - span.t_start);
  }
}

std::string ChromeTraceWriter::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void ChromeTraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n" << events_[i];
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace tdbg::telemetry
