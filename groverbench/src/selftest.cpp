// groverbench_selftest — self-tests of the benchmark's own rules: the
// percentile helper, seeded request sequences, the reply checker, and
// the /proc and Stats-frame parsers, each on fixed inputs. Every check
// runs; the exit code is 1 when any of them failed.
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace groverbench;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void testPercentiles() {
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);

  // 1000 samples support p99 with exactly ten beyond it.
  Tail t = tailLatency(ramp(1000), 99);
  CHECK(t.percentile == 99 && t.value == 990 && t.beyond == 10);
  // 100 samples: p99 has one beyond, so the helper falls back to p90.
  t = tailLatency(ramp(100), 99);
  CHECK(t.percentile == 90 && t.value == 90 && t.beyond == 10);
  // 99 samples: p90 has nine beyond, so p50.
  t = tailLatency(ramp(99), 90);
  CHECK(t.percentile == 50 && t.value == 50 && t.beyond == 49);
  // 19 samples support no percentile at all.
  CHECK(tailLatency(ramp(19), 90).percentile == 0);

  // Sweep: whatever is reported has at least ten samples above it.
  Rng rng(42);
  for (std::size_t n = 0; n < 3000; n += 7) {
    std::vector<double> v = ramp(n);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::swap(v[i], v[rng.below(v.size())]);
    }
    for (const double wanted : {99.0, 90.0}) {
      const Tail s = tailLatency(v, wanted);
      if (s.percentile == 0) {
        CHECK(n < 20);
        continue;
      }
      std::size_t above = 0;
      for (double x : v) above += x > s.value;
      CHECK(above >= 10 && above == s.beyond && s.percentile <= wanted);
    }
  }
}

void testSequences() {
  for (const auto make : {&coldPass, &restartPass, &warmCycle}) {
    Rng a(7), b(7), c(8);
    const std::vector<Req> first = make(a);
    CHECK(first == make(b));
    CHECK(first != make(c));
    // Successive draws from one generator differ too (per-pass order).
    CHECK(make(a) != first);
  }

  Rng rng(1);
  const std::vector<Req> warm = warmCycle(rng);
  CHECK(warm.size() == 4 * allKeys().size());
  std::vector<int> autos(allKeys().size()), plains(allKeys().size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    CHECK((warm[i].kind == Kind::Auto) == (i % 4 == 3));
    ++(warm[i].kind == Kind::Auto ? autos : plains)[warm[i].key];
  }
  for (std::size_t k = 0; k < allKeys().size(); ++k) {
    CHECK(autos[k] == 1 && plains[k] == 3);
  }

  const std::vector<Req> restart = restartPass(rng);
  CHECK(restart.size() == 2 * allKeys().size());
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i + 1 < restart.size(); i += 2) {
    CHECK(restart[i].kind == Kind::Auto && restart[i + 1].kind == Kind::Plain);
    CHECK(restart[i].key == restart[i + 1].key);
    seen.insert(restart[i].key);
  }
  CHECK(seen.size() == allKeys().size());
  CHECK(allKeys().size() == 66);
}

void testReplyChecker() {
  const std::string autoHit =
      "ok, serving without-local-memory (policy hit, predicted np 1.121, "
      "gain, proof proved)";
  CHECK(checkReply(Kind::Auto, kStatusOk, autoHit, Variant::WithoutLocal)
            .empty());
  // A flipped variant is flagged.
  CHECK(!checkReply(Kind::Auto, kStatusOk, autoHit, Variant::WithLocal)
             .empty());
  // An Overloaded reply is flagged whatever its text.
  const std::string refused =
      checkReply(Kind::Auto, kStatusOverloaded,
                 "error: admission queue full (128 in flight); retry later",
                 Variant::WithLocal);
  CHECK(refused.find("Overloaded") != std::string::npos);
  CHECK(!checkReply(Kind::Plain, kStatusOverloaded, "ok, 1/1 buffers "
                    "transformed, np 0.872 (loss)", Variant::WithLocal)
             .empty());
  // Any other non-Ok status, and served-but-failed artifacts.
  CHECK(!checkReply(Kind::Plain, 1, "error: unknown platform 'X'",
                    Variant::WithLocal)
             .empty());
  CHECK(!checkReply(Kind::Plain, kStatusOk, "failed: parse error",
                    Variant::WithLocal)
             .empty());

  // Plain requests: gain serves the transformed kernel unless vetoed.
  const std::string gain =
      "ok, 1/1 buffers transformed, np 1.121 (gain), proof proved";
  CHECK(checkReply(Kind::Plain, kStatusOk, gain, Variant::WithoutLocal)
            .empty());
  CHECK(!checkReply(Kind::Plain, kStatusOk, gain, Variant::WithLocal)
             .empty());
  CHECK(checkReply(Kind::Plain, kStatusOk,
                   "ok, 1/1 buffers transformed, np 1.300 (gain), transform "
                   "vetoed: k: race",
                   Variant::WithLocal)
            .empty());
  CHECK(checkReply(Kind::Plain, kStatusOk,
                   "ok, 2/2 buffers transformed, np 1.027 (similar), proof "
                   "unknown",
                   Variant::WithLocal)
            .empty());
  // An AutoRequest reply in plain form (and vice versa) is unrecognised.
  CHECK(!checkReply(Kind::Auto, kStatusOk, gain, Variant::WithoutLocal)
             .empty());
  CHECK(!checkReply(Kind::Plain, kStatusOk, autoHit, Variant::WithoutLocal)
             .empty());
}

void testParsers() {
  // /proc/<pid>/stat with a command name holding ") (" and spaces.
  const std::string stat =
      "4242 (grover) (d x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 37 0 "
      "0 20 0 5 0 98765 123456789 2048 18446744073709551615 1 1 0 0 0 0 0";
  CHECK(parseProcCpuTicks(stat) == std::optional<std::uint64_t>(287));
  CHECK(!parseProcCpuTicks("4242 (short) S 1 2").has_value());

  const std::string status =
      "Name:\tgroverd\nVmPeak:\t  300000 kB\nVmHWM:\t   31337 kB\n"
      "VmRSS:\t   30000 kB\n";
  CHECK(parseVmHwmKb(status) == std::optional<std::uint64_t>(31337));
  CHECK(!parseVmHwmKb("Name:\tx\n").has_value());

  const std::string procStat =
      "cpu  100 5 50 1000 20 0 3 40 7 0\ncpu0 50 2 25 500 10 0 1 20 0 0\n"
      "intr 12345\n";
  const auto host = parseHostCpu(procStat);
  CHECK(host.has_value() && host->total == 1218 && host->steal == 40);
  CHECK(parseLoadAvg1("0.52 0.58 0.59 1/234 5678\n") ==
        std::optional<double>(0.52));

  const std::string stats =
      "cache: 3 memory hits (0 negative), 1 coalesced, 66 misses, 2 disk "
      "hits, 64 compiles, 0 evictions, 0 disk load failures, 0 cancelled\n"
      "cache bytes: 343842 in 66 entries\n"
      "stages: frontend 84.6 ms, grover 11.2 ms, validate 5.6 ms, print "
      "20.8 ms, estimate 4077.3 ms, execute 0.0 ms, cache 20.6 ms\n"
      "policy: 5 hits, 66 misses, 66 decisions stored, 0 flips, 0 "
      "mismatches\n"
      "measure: 0 measured (0 native), 0 decision refreshes, 0 dropped, 0 "
      "stale re-measures\n"
      "prove: 132 proofs (114 proved, 0 refuted, 18 unknown), 0 vetoes, "
      "536.2 ms\n"
      "server: 1 connections (1 open, 0 shed), 67 frames, 66 admitted, 66 "
      "responses, 4 overload-rejected (1 credit), 2 protocol errors, 0 "
      "disconnected mid-request, 0 idle timeouts, 0 read-budget yields\n";
  const DaemonCounters c = parseStatsText(stats);
  CHECK(c.memoryHits == 3 && c.coalesced == 1 && c.misses == 66);
  CHECK(c.diskHits == 2 && c.compiles == 64);
  CHECK(c.frontendMs == 84.6 && c.estimateMs == 4077.3 && c.cacheMs == 20.6);
  CHECK(c.policyHits == 5 && c.policyMisses == 66);
  CHECK(c.proveMs == 536.2);
  CHECK(c.rejected == 6);
  const DaemonCounters d = c - c;
  CHECK(d.compiles == 0 && d.estimateMs == 0 && d.rejected == 0);
  bool threw = false;
  try {
    (void)parseStatsText("cache: 1 memory hits\n");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);

  const Expected e = parseExpected(
      "# comment\nAMD-SS SNB without-local-memory # np 1.121\n\n"
      "ROD-SC Fermi with-local-memory\n");
  CHECK(e.size() == 2 && e.at("AMD-SS SNB") == Variant::WithoutLocal &&
        e.at("ROD-SC Fermi") == Variant::WithLocal);
  threw = false;
  try {
    (void)parseExpected("AMD-SS SNB sideways\n");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  testPercentiles();
  testSequences();
  testReplyChecker();
  testParsers();
  if (g_failures > 0) {
    std::fprintf(stderr, "groverbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("groverbench_selftest: all checks passed\n");
  return 0;
}
