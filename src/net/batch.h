// The --serve-batch request grammar, shared between groverc's local
// batch mode and the groverd wire protocol (one request frame carries
// exactly one grammar line):
//
//   <app-id> [<platform>|none] [test|bench]   # built-in app
//   <path/to/kernel.cl> [<kernel-name>]       # raw kernel, transform only
//                                             # (name picks one __kernel
//                                             #  out of a multi-kernel file)
//
// `#` starts a comment; blank lines are skipped. Malformed lines are
// reported with file name + line number so a bad request in a thousand-
// line batch file (or a bad frame in a long-lived connection) is
// attributable.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "service/artifact.h"

namespace grover::net {

/// One parsed request line.
struct BatchEntry {
  std::string text;      ///< normalized line text, for reporting
  std::size_t line = 0;  ///< 1-based line number in the source file
  service::Request request;
  bool valid = false;
  /// One-line reason when !valid. Prefixed "<file>:<line>: " when the
  /// entry came from parseBatchFile with a non-empty file name.
  std::string error;
};

/// Whether a grammar line names a kernel source file: its first word
/// ends in `.cl`. Parsing such a line reads the file, so groverd's event
/// loop leaves it to a worker.
[[nodiscard]] bool namesSourceFile(std::string_view line);

/// Parse one grammar line (already comment-stripped or not — `#` is
/// handled here too). Returns an entry with valid=false and a bare,
/// unprefixed error for malformed input; an entry with empty `text`
/// when the line is blank/comment-only. `.cl` sources are read from the
/// local filesystem — over the wire that is the *daemon's* filesystem.
[[nodiscard]] BatchEntry parseRequestLine(const std::string& line);

/// Parse a whole request file. Comment-only and blank lines produce no
/// entry. When `fileName` is non-empty, malformed entries carry a
/// "<file>:<line>: " diagnostic prefix.
[[nodiscard]] std::vector<BatchEntry> parseBatchFile(
    const std::string& contents, const std::string& fileName = {});

}  // namespace grover::net
