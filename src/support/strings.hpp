#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

/// \file strings.hpp
/// Small string utilities shared by the text trace format, the graph
/// exporters, and the report printers.

namespace tdbg::support {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Formats a nanosecond duration for humans ("1.234 ms", "12.3 s").
std::string human_duration(std::int64_t ns);

/// Formats a byte count for humans ("1.5 KiB", "3.2 MiB").
std::string human_bytes(std::size_t bytes);

/// Escapes a string for embedding in DOT/VCG labels and SVG text.
std::string escape_label(std::string_view s);

/// Appends `escape_label(s)` to `out` without a temporary.
void append_escaped(std::string& out, std::string_view s);

/// A part for `append` that is escaped as by `escape_label`.
struct Escaped {
  std::string_view text;
};

/// Appends each part to `out`: integers in decimal (`std::to_chars`),
/// `Escaped` text escaped, anything else as it is.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_same_v<T, Escaped>) {
      append_escaped(out, part.text);
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else {
      out += part;
    }
  };
  (one(parts), ...);
}

}  // namespace tdbg::support
