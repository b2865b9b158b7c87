// String helpers, hashing, checksummed records, diagnostics, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "support/diagnostics.h"
#include "support/flags.h"
#include "support/hash.h"
#include "support/record_file.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace grover {
namespace {

TEST(Str, Cat) { EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5"); }

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fixed(2.0, 3), "2.000");
}

TEST(Str, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(Flags, ParseCountAcceptsOnlyDigitsInRange) {
  EXPECT_EQ(parseCount("65535", 0, 65535), 65535u);
  EXPECT_EQ(parseCount("0", 0, 10), 0u);
  EXPECT_EQ(parseCount("18446744073709551615", 1, UINT64_MAX), UINT64_MAX);
  EXPECT_FALSE(parseCount("65536", 0, 65535));
  EXPECT_FALSE(parseCount("0", 1, 10));
  EXPECT_FALSE(parseCount("18446744073709551616", 1, UINT64_MAX));
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "3junk", "0x10"}) {
    EXPECT_FALSE(parseCount(bad, 0, UINT64_MAX)) << "'" << bad << "'";
  }
}

TEST(Hash, StableAcrossRuns) {
  // Pinned digests: the on-disk artifact cache depends on these values
  // never changing across builds or hosts.
  EXPECT_EQ(fnv1a(""), 0xa8c7f832281a39c5ull);
  EXPECT_EQ(fnv1a("grover"), fnv1a("grover"));
  EXPECT_NE(fnv1a("grover"), fnv1a("grover "));
}

TEST(Hash, LengthPrefixingPreventsConcatenationCollisions) {
  Fnv1a a;
  a.update(std::string_view("ab"));
  a.update(std::string_view("c"));
  Fnv1a b;
  b.update(std::string_view("a"));
  b.update(std::string_view("bc"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, Hex64) {
  EXPECT_EQ(toHex64(0), "0000000000000000");
  EXPECT_EQ(toHex64(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(toHex64(~0ull), "ffffffffffffffff");
}

/// One record with every field kind, including a string with newlines.
std::string sealedRecord() {
  RecordWriter w("testrec 1", 0x2a);
  w.num("count", -7);
  w.bits("np", 2.252);
  w.str("text", "two\nlines");
  return std::move(w).seal();
}

TEST(RecordFile, SealedRecordOpensAndReadsBack) {
  const std::string sealed = sealedRecord();
  EXPECT_EQ(sealed.substr(sealed.size() - 21, 4), "sum ");
  RecordReader r(sealed, "testrec 1", 0x2a, "test");
  EXPECT_EQ(r.num("count"), -7);
  EXPECT_EQ(r.bits("np"), 2.252);  // bit-exact
  EXPECT_EQ(r.str("text"), "two\nlines");
  EXPECT_NO_THROW(r.finish());
}

TEST(RecordFile, OpenRejectsAnyChangedByteAndAnyTruncation) {
  const std::string sealed = sealedRecord();
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string changed = sealed;
    changed[i] = static_cast<char>(changed[i] ^ 0x01);
    EXPECT_THROW(RecordReader(changed, "testrec 1", 0x2a, "test"), GroverError)
        << "byte " << i;
  }
  for (std::size_t n = 0; n < sealed.size(); ++n) {
    EXPECT_THROW(RecordReader(sealed.substr(0, n), "testrec 1", 0x2a, "test"),
                 GroverError)
        << "first " << n << " bytes";
  }
  // An intact record of another format or key does not open either.
  EXPECT_THROW(RecordReader(sealed, "testrec 2", 0x2a, "test"), GroverError);
  EXPECT_THROW(RecordReader(sealed, "testrec 1", 0x2b, "test"), GroverError);
}

TEST(RecordFile, FieldsAreReadStrictlyInOrder) {
  RecordReader r(sealedRecord(), "testrec 1", 0x2a, "test");
  EXPECT_THROW((void)r.num("np"), GroverError);  // the first field is count
  RecordReader ranged(sealedRecord(), "testrec 1", 0x2a, "test");
  EXPECT_THROW((void)ranged.num("count", 0, 10), GroverError);
  RecordReader early(sealedRecord(), "testrec 1", 0x2a, "test");
  (void)early.num("count");
  EXPECT_THROW(early.finish(), GroverError);  // fields left unread
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.hasErrors());
  diags.warning({1, 2}, "w");
  EXPECT_FALSE(diags.hasErrors());
  diags.error({3, 4}, "e");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.all().size(), 2u);
  EXPECT_NE(diags.str().find("3:4: error: e"), std::string::npos);
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(Diagnostics, NoLocRendersWithoutPosition) {
  DiagnosticEngine diags;
  diags.error("standalone");
  EXPECT_EQ(diags.all()[0].str(), "error: standalone");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.waitIdle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PropagatesTaskExceptionFromWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw GroverError("worker failed"); });
  EXPECT_THROW(
      {
        try {
          pool.waitIdle();
        } catch (const GroverError& e) {
          EXPECT_STREQ(e.what(), "worker failed");
          throw;
        }
      },
      GroverError);
}

TEST(ThreadPool, RemainingTasksStillRunAfterException) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw GroverError("boom"); });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_THROW(pool.waitIdle(), GroverError);
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, UsableAfterExceptionWasRethrown) {
  ThreadPool pool(2);
  pool.submit([] { throw GroverError("first"); });
  EXPECT_THROW(pool.waitIdle(), GroverError);
  // The exception was observed; the pool must be clean again.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.waitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(1);  // one worker → deterministic task order
  pool.submit([] { throw GroverError("first"); });
  pool.submit([] { throw GroverError("second"); });
  try {
    pool.waitIdle();
    FAIL() << "expected an exception";
  } catch (const GroverError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.waitIdle();  // second exception was dropped, not deferred
}

}  // namespace
}  // namespace grover
