/**
 * @file
 * Byte pins of the epoch time series: exact FNV-1a digests of the epoch
 * CSV and JSON dumps, of the `epoch.*` snapshot keys and of the Chrome
 * trace (which carries the `queues`/`throughput` counter tracks) for
 * three runs — sdpcm/mcf, the qstress cancellation + fault storm, and a
 * run whose interval divides its final tick, so the last sample is
 * taken on a boundary and the tail rule decides whether a catch-up row
 * follows.
 *
 * A change to how the series is sampled must leave every digest as it
 * is; only the line that turns sampling on may differ.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/runner.hh"

namespace sdpcm {
namespace {

std::string
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Digests of everything a sampled run writes about its epochs. */
struct EpochDigests
{
    std::string csv;
    std::string json;
    std::string snapshot; //!< the epoch.* keys and their values
    std::string trace;
};

EpochDigests
digestRun(const SchemeConfig& scheme, const std::string& workload,
          RunnerConfig cfg, Tick interval, const std::string& tag,
          RunMetrics* out = nullptr)
{
    cfg.telemetry.intervalTicks = interval;
    cfg.tracePath = ::testing::TempDir() + "sdpcm_epoch_pin_" + tag +
                    ".trace.json";
    const RunMetrics m =
        runOne(scheme, workloadFromProfile(workload), cfg);

    EpochDigests d;
    std::ostringstream csv, json, snap;
    m.epochs.dumpCsv(csv);
    m.epochs.dumpJson(json);
    const StatSnapshot snapshot = m.toSnapshot();
    for (const auto& [key, value] : snapshot.values()) {
        if (key.rfind("epoch.", 0) == 0)
            snap << key << '=' << value << '\n';
    }
    std::ifstream is(cfg.tracePath, std::ios::binary);
    std::ostringstream trace;
    trace << is.rdbuf();
    std::remove(cfg.tracePath.c_str());

    d.csv = fnv1a(csv.str());
    d.json = fnv1a(json.str());
    d.snapshot = fnv1a(snap.str());
    d.trace = fnv1a(trace.str());
    if (out)
        *out = m;
    return d;
}

RunnerConfig
pinConfig()
{
    RunnerConfig cfg;
    cfg.refsPerCore = 2500;
    cfg.cores = 4;
    cfg.seed = 11;
    cfg.jobs = 1;
    return cfg;
}

TEST(EpochPins, SdpcmMcf)
{
    RunMetrics m;
    const EpochDigests d = digestRun(SchemeConfig::sdpcm(), "mcf",
                                     pinConfig(), 50000, "mcf", &m);
    EXPECT_GT(m.epochs.samples.size(), 10u);
    EXPECT_EQ(d.csv, "c90647c2a28a30f1");
    EXPECT_EQ(d.json, "654926f45abf1ad0");
    EXPECT_EQ(d.snapshot, "77200ee5d8ad3d37");
    EXPECT_EQ(d.trace, "994bcfa2df6bca07");
}

TEST(EpochPins, QstressCancellationAndFaultStorm)
{
    SchemeConfig scheme = SchemeConfig::sdpcm();
    scheme.writeCancellation = true;
    RunnerConfig cfg = pinConfig();
    cfg.refsPerCore = 3000;
    cfg.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=5");
    RunMetrics m;
    const EpochDigests d =
        digestRun(scheme, "qstress", cfg, 5000, "qstress", &m);
    EXPECT_GT(m.ctrl.writeCancellations, 0u);
    EXPECT_EQ(d.csv, "4c243780f82d7aa9");
    EXPECT_EQ(d.json, "e60150d3d0101ccd");
    EXPECT_EQ(d.snapshot, "0d4959935267f759");
    EXPECT_EQ(d.trace, "a08837c9b8279493");
}

/**
 * 37666 divides this run's final tick (5084910), so the last in-run
 * sample lands on the final tick itself. The event that follows it at
 * that tick issues a PreRead (ctrl.preReadsIssued and device.lineReads
 * move) but touches no epoch column, so the series gets no catch-up
 * row after it.
 */
TEST(EpochPins, RunEndingOnABoundary)
{
    RunMetrics m;
    const EpochDigests d = digestRun(SchemeConfig::sdpcm(), "lbm",
                                     pinConfig(), 37666, "boundary", &m);
    ASSERT_EQ(m.finalTick % 37666, 0u);
    ASSERT_FALSE(m.epochs.samples.empty());
    EXPECT_EQ(m.epochs.samples.back().tick, m.finalTick);
    EXPECT_EQ(m.epochs.samples.size(), 135u);
    EXPECT_EQ(d.csv, "012ddb733ae4132f");
    EXPECT_EQ(d.json, "5dcbbe280d30d0d0");
    EXPECT_EQ(d.snapshot, "3b135102e2cd80fe");
    EXPECT_EQ(d.trace, "105e1762e264f3b9");
}

} // namespace
} // namespace sdpcm
