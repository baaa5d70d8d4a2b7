// Unit tests for src/common: Status, MD5, RNG, Zipf, string
// utilities, the command-line parser, JSON helpers and the histogram.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/json_util.h"
#include "common/md5.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/zipf.h"

namespace sprite {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsInvalidArgument());
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("payload");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseReturnMacro(int x) {
  SPRITE_RETURN_IF_ERROR(ParsePositive(x).status());
  return Status::OK();
}

TEST(StatusOrTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(UseReturnMacro(3).ok());
  EXPECT_TRUE(UseReturnMacro(-1).IsInvalidArgument());
}

// ------------------------------------------------------------------- MD5

// RFC 1321 appendix A.5 test suite.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5Hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5Hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5Hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5Hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5Hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5Hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5Hex("1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, QuickBrownFox) {
  EXPECT_EQ(Md5Hex("The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6");
}

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Md5 md5;
    md5.Update(msg.substr(0, split));
    md5.Update(msg.substr(split));
    EXPECT_EQ(md5.Finalize().ToHex(), Md5Hex(msg)) << "split=" << split;
  }
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Lengths around the 56- and 64-byte padding boundaries are the classic
  // off-by-one trap.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u, 1000u}) {
    std::string msg(len, 'x');
    Md5 a;
    a.Update(msg);
    // Compare against byte-at-a-time hashing.
    Md5 b;
    for (char c : msg) b.Update(std::string_view(&c, 1));
    EXPECT_EQ(a.Finalize(), b.Finalize()) << "len=" << len;
  }
}

TEST(Md5Test, ResetAllowsReuse) {
  Md5 md5;
  md5.Update("garbage");
  (void)md5.Finalize();
  md5.Reset();
  md5.Update("abc");
  EXPECT_EQ(md5.Finalize().ToHex(), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, Prefix64IsBigEndianOfFirstEightBytes) {
  // d41d8cd98f00b204... -> 0xd41d8cd98f00b204
  EXPECT_EQ(Md5Prefix64(""), 0xd41d8cd98f00b204ULL);
  EXPECT_EQ(Md5Prefix64("abc"), 0x900150983cd24fb0ULL);
}

TEST(Md5Test, DistinctInputsDistinctDigests) {
  std::set<std::string> digests;
  for (int i = 0; i < 1000; ++i) {
    digests.insert(Md5Hex("input" + std::to_string(i)));
  }
  EXPECT_EQ(digests.size(), 1000u);
}

// -------------------------------------------------------------------- RNG

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedDrawRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextUint64(bound), bound);
    }
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleFullPopulationIsPermutation) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(8, 8);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ShuffleKeepsMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(101);
  Rng child = a.Fork();
  // The fork's outputs must not replay the parent's next outputs.
  EXPECT_NE(child.NextUint64(), a.NextUint64());
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t first = SplitMix64(state);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), first);
  EXPECT_NE(SplitMix64(state2), first);  // second draw differs
}

// -------------------------------------------------------------------- Zipf

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 0.5);
  double total = 0.0;
  for (size_t i = 0; i < 100; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneNonIncreasing) {
  ZipfSampler z(50, 1.0);
  for (size_t i = 1; i < 50; ++i) EXPECT_LE(z.Pmf(i), z.Pmf(i - 1));
}

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfSampler z(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfTest, SamplesMatchPmf) {
  ZipfSampler z(10, 1.0);
  Rng rng(43);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, z.Pmf(i), 0.01)
        << "rank " << i;
  }
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler z(1, 0.7);
  Rng rng(1);
  EXPECT_EQ(z.Sample(rng), 0u);
  EXPECT_NEAR(z.Pmf(0), 1.0, 1e-12);
}

// The paper's w-zipf stream uses slope 0.5; head mass should dominate the
// tail but not overwhelmingly.
TEST(ZipfTest, HalfSlopeHeadMass) {
  ZipfSampler z(315, 0.5);
  EXPECT_GT(z.Pmf(0), z.Pmf(314) * 10);
  EXPECT_LT(z.Pmf(0), 0.1);
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("MiXeD Case-42"), "mixed case-42");
  EXPECT_EQ(AsciiLower(""), "");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(SplitString("a,b,,c", ","),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("  a b ", " "),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitString("", ",").empty());
  EXPECT_TRUE(SplitString(",,,", ",").empty());
}

TEST(StringUtilTest, SplitMultipleDelims) {
  EXPECT_EQ(SplitString("a,b;c", ",;"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

// ------------------------------------------------------------------ flags

// Parses `args` (without the program name) against `flags`.
Status ParseArgs(const Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, EachKindAcceptsItsValidForms) {
  size_t docs = 0;
  uint64_t seed = 0;
  uint16_t port = 1;
  double ratio = 0.0, drop = 0.0, big = 0.0;
  std::string out = "unset", cache;
  bool trace = false;
  Flags flags;
  flags.Whole("--docs", &docs)
      .Whole("--seed", &seed)
      .Port("--http", &port)
      .Number("--ratio", &ratio)
      .Number("--drop", &drop)
      .Number("--big", &big)
      .String("--out", &out)
      .OneOf("--cache", &cache, {"on", "off", "blind"})
      .Switch("--trace", &trace);
  ASSERT_TRUE(ParseArgs(flags, {"--docs=200", "--seed=18446744073709551615",
                                "--http=65535", "--ratio=4", "--drop=-0.02",
                                "--big=1.5e3", "--out=", "--cache=blind",
                                "--trace"})
                  .ok());
  EXPECT_EQ(docs, 200u);
  EXPECT_EQ(seed, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(port, 65535);
  EXPECT_EQ(ratio, 4.0);
  EXPECT_EQ(drop, -0.02);
  EXPECT_EQ(big, 1500.0);
  EXPECT_EQ(out, "");
  EXPECT_EQ(cache, "blind");
  EXPECT_TRUE(trace);
  // Flags are optional, repeatable (the last wins), and port 0 is valid.
  ASSERT_TRUE(ParseArgs(flags, {"--http=0", "--docs=7", "--docs=8"}).ok());
  EXPECT_EQ(port, 0);
  EXPECT_EQ(docs, 8u);
  EXPECT_TRUE(ParseArgs(flags, {}).ok());
}

TEST(FlagsTest, RejectsMalformedValuesNamingTheArgument) {
  size_t docs = 0;
  uint16_t port = 0;
  double ratio = 0.0;
  std::string cache;
  bool trace = false;
  Flags flags;
  flags.Whole("--docs", &docs)
      .Port("--http", &port)
      .Number("--ratio", &ratio)
      .OneOf("--cache", &cache, {"on", "off", "blind"})
      .Switch("--trace", &trace);
  for (const char* bad :
       {"--docs=5x", "--docs=-1", "--docs=+5", "--docs=", "--docs= 5",
        "--docs=18446744073709551616", "--http=65536", "--http=70000",
        "--ratio=1.5x", "--ratio=nan", "--ratio=inf", "--ratio=", "--ratio=1e999",
        "--cache=onn", "--cache=", "--cache=ON", "--thread=4", "--docs",
        "--trace=1", "-docs=5", "--"}) {
    const Status parsed = ParseArgs(flags, {bad});
    EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(EndsWith(parsed.message(), std::string(": ") + bad))
        << parsed.message();
  }
  EXPECT_EQ(ParseArgs(flags, {"--thread=4"}).message(),
            "unknown flag: --thread=4");
  EXPECT_EQ(ParseArgs(flags, {"--docs=200x"}).message(),
            "not a whole decimal number: --docs=200x");
  EXPECT_EQ(ParseArgs(flags, {"--cache=onn"}).message(),
            "not one of on|off|blind: --cache=onn");
}

TEST(FlagsTest, PositionalsFillInOrderAroundFlags) {
  std::string corpus, keywords;
  size_t k = 20;
  Flags flags;
  flags.String("<corpus.tsv>", &corpus)
      .String("<keywords>", &keywords)
      .Whole("--k", &k);
  ASSERT_TRUE(ParseArgs(flags, {"--k=5", "docs.tsv", "cat whiskers"}).ok());
  EXPECT_EQ(corpus, "docs.tsv");
  EXPECT_EQ(keywords, "cat whiskers");
  EXPECT_EQ(k, 5u);
  EXPECT_EQ(ParseArgs(flags, {"docs.tsv"}).message(),
            "missing argument: <keywords>");
  EXPECT_EQ(ParseArgs(flags, {"a", "b", "c"}).message(),
            "unexpected argument: c");
  // A binary without positionals takes none.
  EXPECT_EQ(ParseArgs(Flags().Whole("--k", &k), {"5"}).message(),
            "unexpected argument: 5");
}

TEST(FlagsTest, HostPortSplitsAtTheLastColon) {
  std::string host = "unset";
  uint16_t port = 0;
  Flags flags;
  flags.HostPort("<host:port>", &host, &port);
  ASSERT_TRUE(ParseArgs(flags, {"127.0.0.1:7000"}).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7000);
  for (const char* bad : {"127.0.0.1", "127.0.0.1:", "127.0.0.1:7000x",
                          "127.0.0.1:70000", "127.0.0.1:65536", ":7000",
                          "127.0.0.1:-1"}) {
    EXPECT_EQ(ParseArgs(flags, {bad}).message(),
              std::string("not HOST:PORT with a port of at most 65535: ") +
                  bad);
    EXPECT_EQ(host, "127.0.0.1") << bad;
    EXPECT_EQ(port, 7000) << bad;
  }
  // As a flag, the same helper serves sprite_daemon --join=.
  ASSERT_TRUE(
      ParseArgs(Flags().HostPort("--join", &host, &port), {"--join=h:1"})
          .ok());
  EXPECT_EQ(host, "h");
  EXPECT_EQ(port, 1);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_NEAR(h.StdDev(), std::sqrt(2.5), 1e-12);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(9.0);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Summary(), "count=0");
}

TEST(HistogramTest, PercentileAfterInterleavedAdds) {
  Histogram h;
  for (int i = 100; i >= 1; --i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  h.Add(1000.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(2.0);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

TEST(HistogramTest, PercentileEdgeCases) {
  Histogram single;
  single.Add(7.5);
  // Every percentile of a one-sample distribution is that sample.
  EXPECT_DOUBLE_EQ(single.Percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(95), 7.5);
  EXPECT_DOUBLE_EQ(single.Percentile(100), 7.5);

  Histogram pair;
  pair.Add(10.0);
  pair.Add(20.0);
  EXPECT_DOUBLE_EQ(pair.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(pair.Percentile(100), 20.0);
}

TEST(HistogramTest, SampleCapExactBelowCap) {
  Histogram h;
  h.SetSampleCap(100);
  for (int i = 1; i <= 100; ++i) h.Add(i);
  // At or below the cap nothing is sampled away: all stats are exact.
  EXPECT_EQ(h.retained(), 100u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  // Sample variance of 1..n is n(n+1)/12.
  EXPECT_NEAR(h.StdDev(), std::sqrt(100.0 * 101.0 / 12.0), 1e-9);
}

TEST(HistogramTest, SampleCapKeepsMomentsExactAboveCap) {
  Histogram capped;
  capped.SetSampleCap(64);
  double sum = 0.0;
  for (int i = 1; i <= 10000; ++i) {
    capped.Add(i);
    sum += i;
  }
  // Retention is bounded; count/sum/mean/min/max stay exact.
  EXPECT_EQ(capped.retained(), 64u);
  EXPECT_EQ(capped.count(), 10000u);
  EXPECT_DOUBLE_EQ(capped.sum(), sum);
  EXPECT_DOUBLE_EQ(capped.Mean(), sum / 10000.0);
  EXPECT_DOUBLE_EQ(capped.min(), 1.0);
  EXPECT_DOUBLE_EQ(capped.max(), 10000.0);
  // Percentiles come from a uniform reservoir: approximate, but within
  // the sample's own range and in the right region for a uniform input.
  const double p50 = capped.Percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 10000.0);
  EXPECT_NEAR(p50, 5000.0, 2500.0);
}

TEST(HistogramTest, SampleCapIsDeterministic) {
  // The reservoir uses a fixed-seed generator: two identically-fed
  // histograms retain identical samples, so perf reports are reproducible.
  Histogram a, b;
  a.SetSampleCap(32);
  b.SetSampleCap(32);
  for (int i = 0; i < 5000; ++i) {
    a.Add(i * 0.5);
    b.Add(i * 0.5);
  }
  for (double p : {5.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), b.Percentile(p)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(a.StdDev(), b.StdDev());
}

TEST(HistogramTest, SetSampleCapDownsamplesExistingRetention) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.retained(), 1000u);
  h.SetSampleCap(50);
  EXPECT_EQ(h.retained(), 50u);
  EXPECT_EQ(h.count(), 1000u);       // exact stats survive the shrink
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Lifting the cap back to 0 stops future eviction but cannot recover
  // discarded samples.
  h.SetSampleCap(0);
  h.Add(5000.0);
  EXPECT_EQ(h.retained(), 51u);
  EXPECT_EQ(h.count(), 1001u);
}

TEST(HistogramTest, SampleCapClearResets) {
  Histogram h;
  h.SetSampleCap(16);
  for (int i = 0; i < 100; ++i) h.Add(i);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.retained(), 0u);
  EXPECT_EQ(h.sample_cap(), 16u);  // the cap is configuration, not state
  for (int i = 0; i < 100; ++i) h.Add(i);
  EXPECT_EQ(h.retained(), 16u);
  EXPECT_EQ(h.count(), 100u);
}

TEST(HistogramTest, UncappedBehaviorUnchanged) {
  // Default histograms (sim registries) retain everything — the cap is
  // opt-in, so deterministic metrics dumps are unaffected by its existence.
  Histogram h;
  EXPECT_EQ(h.sample_cap(), 0u);
  for (int i = 1; i <= 5000; ++i) h.Add(i);
  EXPECT_EQ(h.retained(), 5000u);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 4750.0);
}

// -------------------------------------------------------------- json util

TEST(JsonUtilTest, EscapeHandlesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
}

TEST(JsonUtilTest, EscapeHandlesControlCharacters) {
  EXPECT_EQ(JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(JsonEscape(std::string("\x00", 1)), "\\u0000");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
  // 0x20 (space) and above pass through untouched.
  EXPECT_EQ(JsonEscape(" ~"), " ~");
}

TEST(JsonUtilTest, NumberFormatsFiniteValues) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(2.5), "2.5");
  EXPECT_EQ(JsonNumber(-13.0), "-13");
}

TEST(JsonUtilTest, FindUndoesEscape) {
  const std::string name = "a\"b\\c\x01";
  const std::string line =
      "{\"name\":\"" + JsonEscape(name) + "\",\"value\":-2.5}";
  std::string found;
  ASSERT_TRUE(JsonFindString(line, "name", &found));
  EXPECT_EQ(found, name);
  double value = 0.0;
  ASSERT_TRUE(JsonFindNumber(line, "value", &value));
  EXPECT_EQ(value, -2.5);
  EXPECT_FALSE(JsonFindString(line, "label", &found));
  EXPECT_FALSE(JsonFindNumber(line, "name", &value));
}

TEST(JsonUtilTest, NumberMapsNonFiniteToNull) {
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace sprite
