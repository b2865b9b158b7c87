#include "net/batch.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/io.h"
#include "support/str.h"

namespace grover::net {

bool namesSourceFile(std::string_view line) {
  // The first word as parseRequestLine() splits it: whitespace-separated,
  // and `#` starts a comment.
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  const auto begin = std::find_if_not(line.begin(), line.end(), space);
  const auto end = std::find_if(begin, line.end(), [&](char c) {
    return space(c) || c == '#';
  });
  const std::string_view word(begin, end);
  return word.size() > 3 && word.ends_with(".cl");
}

BatchEntry parseRequestLine(const std::string& line) {
  BatchEntry e;
  std::string stripped = line;
  if (const std::size_t hash = stripped.find('#');
      hash != std::string::npos) {
    stripped = stripped.substr(0, hash);
  }
  std::istringstream tokens(stripped);
  std::vector<std::string> words;
  for (std::string w; tokens >> w;) words.push_back(w);
  if (words.empty()) return e;  // blank/comment-only: text stays empty
  e.text = join(words, " ");
  if (namesSourceFile(words[0])) {
    if (words.size() > 2) {
      e.error = "too many arguments (expected <path.cl> [<kernel-name>])";
    } else if (std::string err;
               !readTextFile(words[0], e.request.source, err)) {
      e.error = "cannot read '" + words[0] + "': " + err;
    } else {
      // Optional second word picks one __kernel out of a multi-kernel
      // source; without it every kernel in the file is transformed.
      if (words.size() == 2) e.request.kernelName = words[1];
      e.valid = true;
    }
  } else {
    e.request.appId = words[0];
    if (words.size() > 1 && words[1] != "none") {
      e.request.platform = words[1];
    }
    if (words.size() > 2) {
      if (words[2] != "test" && words[2] != "bench") {
        e.error = "bad scale '" + words[2] + "' (expected test or bench)";
      }
      e.request.scale = words[2] == "bench" ? apps::Scale::Bench
                                            : apps::Scale::Test;
    }
    if (words.size() > 3) {
      e.error = "too many arguments (expected <app> [<platform>|none] "
                "[test|bench])";
    }
    e.valid = e.error.empty();
  }
  return e;
}

std::vector<BatchEntry> parseBatchFile(const std::string& contents,
                                       const std::string& fileName) {
  std::vector<BatchEntry> entries;
  std::istringstream in(contents);
  std::string line;
  for (std::size_t lineNo = 1; std::getline(in, line); ++lineNo) {
    BatchEntry e = parseRequestLine(line);
    if (e.text.empty()) continue;
    e.line = lineNo;
    if (!e.valid && !fileName.empty()) {
      e.error = cat(fileName, ":", lineNo, ": ", e.error);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace grover::net
