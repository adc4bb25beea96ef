#include "support/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace tdbg::support {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string human_duration(std::int64_t ns) {
  char buf[64];
  const double abs_ns = std::abs(static_cast<double>(ns));
  if (abs_ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%lld ns", static_cast<long long>(ns));
  } else if (abs_ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.3f us", static_cast<double>(ns) / 1e3);
  } else if (abs_ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.3f ms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string human_bytes(std::size_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (b < 1024) {
    std::snprintf(buf, sizeof buf, "%zu B", bytes);
  } else if (b < 1024.0 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
  } else if (b < 1024.0 * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", b / (1024.0 * 1024));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f GiB", b / (1024.0 * 1024 * 1024));
  }
  return buf;
}

std::string escape_label(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

void append_escaped(std::string& out, std::string_view s) {
  // Copies each run of plain characters in one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string_view rep;
    switch (s[i]) {
      case '"': rep = "\\\""; break;
      case '\\': rep = "\\\\"; break;
      case '<': rep = "&lt;"; break;
      case '>': rep = "&gt;"; break;
      case '&': rep = "&amp;"; break;
      case '\n': rep = "\\n"; break;
      default: continue;
    }
    out.append(s, run, i - run);
    out.append(rep);
    run = i + 1;
  }
  out.append(s, run);
}

}  // namespace tdbg::support
