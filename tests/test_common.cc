/**
 * @file
 * Unit tests for the common utilities: RNG, bit operations, the line
 * index, statistics accumulators and the table formatter.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/args.hh"
#include "common/bitops.hh"
#include "common/line_index.hh"
#include "common/ring_queue.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace sdpcm {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next64() == b.next64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.below(13);
        ASSERT_LT(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 13u);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.115) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.115, 0.005);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, GeometricMean)
{
    Rng rng(5);
    const double p = 0.1;
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 9.
    EXPECT_NEAR(sum / trials, 9.0, 0.5);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(3);
    double sum = 0.0, sq = 0.0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.03);
    EXPECT_NEAR(sq / trials, 1.0, 0.05);
}

TEST(Bitops, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(ceilPowerOfTwo(17), 32u);
    EXPECT_EQ(ceilPowerOfTwo(32), 32u);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 128), 0u);
    EXPECT_EQ(ceilDiv(1, 128), 1u);
    EXPECT_EQ(ceilDiv(128, 128), 1u);
    EXPECT_EQ(ceilDiv(129, 128), 2u);
}

TEST(Bitops, GetSetBit)
{
    std::uint64_t x = 0;
    x = setBit(x, 5, true);
    EXPECT_TRUE(getBit(x, 5));
    x = setBit(x, 5, false);
    EXPECT_FALSE(getBit(x, 5));
    EXPECT_EQ(x, 0u);
}

TEST(Bitops, Popcount64MatchesStdPopcount)
{
    const std::uint64_t edges[] = {
        0, 1, ~0ULL, 1ULL << 63, ~0ULL >> 1, 0x5555555555555555ULL,
        0xaaaaaaaaaaaaaaaaULL, 0x0f0f0f0f0f0f0f0fULL, 0xff00ff00ff00ff00ULL,
        0x8000000000000001ULL, 0x0123456789abcdefULL};
    for (const std::uint64_t x : edges)
        EXPECT_EQ(popcount64(x), std::popcount(x)) << std::hex << x;
    for (unsigned b = 0; b < 64; ++b) {
        EXPECT_EQ(popcount64(1ULL << b), 1);
        EXPECT_EQ(popcount64(~(1ULL << b)), 63);
        EXPECT_EQ(popcount64((1ULL << b) - 1), static_cast<int>(b));
    }
    Rng rng(77);
    for (int i = 0; i < 10000; ++i) {
        // Mix dense, sparse and uniform words.
        std::uint64_t x = rng.next64();
        if (i % 3 == 1)
            x &= rng.next64() & rng.next64();
        else if (i % 3 == 2)
            x |= rng.next64() | rng.next64();
        ASSERT_EQ(popcount64(x), std::popcount(x)) << std::hex << x;
    }
}

// Keys clustered the way the device and the WD ledger produce them:
// runs of 8 consecutive line indices (a written line and its in-row
// neighbours), keys 64 apart (the same line in adjacent rows) and keys
// that share their low 3 bits. 12k keys take the index through five
// doublings of its initial 1024 slots.
TEST(LineIndex, ClusteredKeysSurviveGrowth)
{
    std::vector<std::uint32_t> keys;
    for (std::uint32_t run = 0; run < 500; ++run) {
        for (std::uint32_t k = 0; k < 8; ++k)
            keys.push_back(run * 4096 + k);
    }
    for (std::uint32_t i = 0; i < 4000; ++i)
        keys.push_back(0x4000000u + i * 64);
    for (std::uint32_t i = 0; i < 4000; ++i)
        keys.push_back(0x8000005u + i * 8);

    LineIndex index;
    for (std::uint32_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(index.find(keys[i]), LineIndex::kNone) << keys[i];
        ASSERT_EQ(index.findOrInsert(keys[i], [&] { return i; }), i);
        ASSERT_EQ(index.findOrInsert(keys[i], [] { return 0u; }), i);
        ASSERT_EQ(index.size(), i + 1);
    }
    for (std::uint32_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(index.find(keys[i]), i) << keys[i];
    EXPECT_EQ(index.find(7u * 4096 + 8), LineIndex::kNone);
    EXPECT_EQ(index.find(0x4000000u + 65), LineIndex::kNone);

    const std::vector<LineIndex::Slot> sorted = index.sortedSlots();
    ASSERT_EQ(sorted.size(), keys.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) {
            ASSERT_LT(sorted[i - 1].key, sorted[i].key);
        }
        ASSERT_EQ(keys[sorted[i].value], sorted[i].key);
    }
}

TEST(RingQueue, FifoAcrossWrapAndGrowth)
{
    RingQueue<int> q;
    int next_in = 0, next_out = 0;
    // Interleave pushes and pops so the head wraps, then let the queue
    // grow while wrapped: order must survive every resize.
    for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < 7; ++k)
            q.push_back(next_in++);
        for (int k = 0; k < 5; ++k) {
            ASSERT_EQ(q.front(), next_out++);
            q.pop_front();
        }
        ASSERT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
        for (std::size_t i = 0; i < q.size(); ++i)
            ASSERT_EQ(q[i], next_out + static_cast<int>(i));
    }
}

TEST(RingQueue, PushFrontRequeuesAtHead)
{
    RingQueue<int> q;
    for (int i = 1; i <= 8; ++i)
        q.push_back(int{i}); // exactly fills the first buffer
    q.pop_front();
    q.push_front(100);
    q.push_front(200); // forces growth with the head mid-buffer
    const std::vector<int> want = {200, 100, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_EQ(q.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(q[i], want[i]);
    while (!q.empty())
        q.pop_front();
    EXPECT_EQ(q.size(), 0u);
}

TEST(RunningStat, Accumulates)
{
    RunningStat s;
    s.record(1.0);
    s.record(3.0);
    s.record(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, Merge)
{
    RunningStat a, b;
    a.record(1.0);
    b.record(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(Histogram, RecordsAndOverflows)
{
    Histogram h(4);
    h.record(0);
    h.record(2);
    h.record(2);
    h.record(9);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.tailFraction(2), 0.75);
}

TEST(StatSnapshot, RoundTrips)
{
    StatSnapshot s;
    s.set("a.b", 1.5);
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("a.c"));
    EXPECT_DOUBLE_EQ(s.get("a.b"), 1.5);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", TablePrinter::fmt(1.2345, 2)});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
}

TEST(TablePrinter, PctFormat)
{
    EXPECT_EQ(TablePrinter::pct(0.115), "11.5%");
    EXPECT_EQ(TablePrinter::pct(0.099), "9.9%");
}

TEST(ArgParser, ParsesKeyValueAndFlags)
{
    const char* argv[] = {"prog", "--refs=1000", "--verbose",
                          "--ratio=0.5", "--name=mcf"};
    ArgParser args(5, const_cast<char**>(argv));
    EXPECT_EQ(args.getInt("refs", 0), 1000);
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 0.5);
    EXPECT_EQ(args.getString("name", ""), "mcf");
    EXPECT_EQ(args.getInt("missing", 7), 7);
    args.finishParsing(); // every key consumed: no fatal
}

TEST(ArgParser, ParseIntStrict)
{
    EXPECT_EQ(ArgParser::parseInt("42"), 42);
    EXPECT_EQ(ArgParser::parseInt("-7"), -7);
    EXPECT_EQ(ArgParser::parseInt("0x10"), 16);
    // "10k" used to silently truncate to 10; "banana" to 0.
    EXPECT_THROW(ArgParser::parseInt("10k"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("banana"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt(""), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("1.5"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseInt("99999999999999999999999999"),
                 std::invalid_argument);
}

TEST(ArgParser, ParseDoubleStrict)
{
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("0.25"), 0.25);
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("1e8"), 1e8);
    EXPECT_DOUBLE_EQ(ArgParser::parseDouble("-3"), -3.0);
    EXPECT_THROW(ArgParser::parseDouble("0.5x"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("banana"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble(""), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("nan"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("inf"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseDouble("1e999"), std::invalid_argument);
}

TEST(ArgParser, ParseBoolStrict)
{
    EXPECT_TRUE(ArgParser::parseBool("1"));
    EXPECT_TRUE(ArgParser::parseBool("true"));
    EXPECT_TRUE(ArgParser::parseBool("on"));
    EXPECT_FALSE(ArgParser::parseBool("0"));
    EXPECT_FALSE(ArgParser::parseBool("false"));
    EXPECT_FALSE(ArgParser::parseBool("off"));
    EXPECT_THROW(ArgParser::parseBool("maybe"), std::invalid_argument);
    EXPECT_THROW(ArgParser::parseBool(""), std::invalid_argument);
}

TEST(ArgParser, GetPathReturnsTheGivenFile)
{
    const char* argv[] = {"prog", "--out=a.json", "--empty=", "--log=1"};
    ArgParser args(4, const_cast<char**>(argv));
    EXPECT_EQ(args.getPath("out", "d.json"), "a.json");
    EXPECT_EQ(args.getPath("empty", "d.json"), "");
    EXPECT_EQ(args.getPath("log", ""), "1"); // explicitly named `1`
    EXPECT_EQ(args.getPath("missing", "d.json"), "d.json");
}

TEST(ArgParser, OptionalPathTellsBareFromOne)
{
    const char* argv[] = {"prog", "--spans", "--wd-ledger=1",
                          "--profile=p.json", "--epoch-csv="};
    ArgParser args(5, const_cast<char**>(argv));
    EXPECT_EQ(args.getOptionalPath("spans"), ""); // on, no file
    EXPECT_EQ(args.getOptionalPath("wd-ledger"), "1"); // a file `1`
    EXPECT_EQ(args.getOptionalPath("profile"), "p.json");
    EXPECT_EQ(args.getOptionalPath("epoch-csv"), "");
    EXPECT_EQ(args.getOptionalPath("missing"), "");
    EXPECT_TRUE(args.has("spans"));
    EXPECT_FALSE(args.has("missing"));
    args.finishParsing(); // every given flag counts as read
}

TEST(ArgParserDeath, GetPathFatalsOnBareFlag)
{
    const char* argv[] = {"prog", "--report"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.getPath("report", "default.json"),
                ::testing::ExitedWithCode(1),
                "--report needs a file: --report=FILE");
}

TEST(ArgParserDeath, GetIntFatalsOnGarbage)
{
    const char* argv[] = {"prog", "--refs=10k"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.getInt("refs", 0),
                ::testing::ExitedWithCode(1), "bad value for --refs=10k");
}

TEST(ArgParserDeath, GetDoubleFatalsOnGarbage)
{
    const char* argv[] = {"prog", "--age=old"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.getDouble("age", 0.0),
                ::testing::ExitedWithCode(1), "bad value for --age=old");
}

TEST(ArgParserDeath, FinishParsingFatalsOnUnknownFlag)
{
    const char* argv[] = {"prog", "--telemetery=f.jsonl"};
    ArgParser args(2, const_cast<char**>(argv));
    EXPECT_EXIT(args.finishParsing(), ::testing::ExitedWithCode(1),
                "unknown option\\(s\\): --telemetery");
}

TEST(ArgParser, LaxFlagsDowngradesUnknownToWarning)
{
    const char* argv[] = {"prog", "--telemetery=f.jsonl", "--lax-flags"};
    ArgParser args(3, const_cast<char**>(argv));
    args.finishParsing(); // warns instead of exiting
}

} // namespace
} // namespace sdpcm
