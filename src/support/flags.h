// Strict parsing of the tools' integer command-line flags, shared by
// groverc and groverd so both accept the same values and reject the
// rest with the same one-line diagnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace grover {

/// The number `value` names, or nullopt unless it is all decimal digits
/// (no sign, no blanks) and lies in [min, max].
[[nodiscard]] std::optional<std::uint64_t> parseCount(std::string_view value,
                                                      std::uint64_t min,
                                                      std::uint64_t max);

/// parseCount with the tools' error contract: a value outside
/// [allowZero ? 0 : 1, max] prints one line to stderr, "<tool>: bad
/// <flag> value '<value>' (expected an integer from <lo> to <max>)", and
/// exits 1. Pass the largest value the flag's destination can hold, so
/// the narrowing cast after the call never wraps.
std::uint64_t parseCountFlag(const char* tool, const char* flag,
                             std::string_view value, std::uint64_t max,
                             bool allowZero = false);

}  // namespace grover
