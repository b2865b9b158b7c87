#include "support/flags.h"

#include <charconv>
#include <cstdlib>
#include <iostream>

namespace grover {

std::optional<std::uint64_t> parseCount(std::string_view value,
                                        std::uint64_t min,
                                        std::uint64_t max) {
  // from_chars takes no sign, blank or base prefix for an unsigned type,
  // and reports overflow instead of wrapping.
  std::uint64_t n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc() || ptr != end || n < min || n > max) {
    return std::nullopt;
  }
  return n;
}

std::uint64_t parseCountFlag(const char* tool, const char* flag,
                             std::string_view value, std::uint64_t max,
                             bool allowZero) {
  const std::uint64_t min = allowZero ? 0 : 1;
  if (const auto n = parseCount(value, min, max)) return *n;
  std::cerr << tool << ": bad " << flag << " value '" << value
            << "' (expected an integer from " << min << " to " << max
            << ")\n";
  std::exit(1);
}

}  // namespace grover
