/**
 * @file
 * Bit-identity pins: exact digests of RunMetrics::toSnapshot (plus the
 * per-line counter samples where enabled) for the configurations the
 * 12-cell golden report does not reach. Each digest was recorded before
 * the line store, event queue and controller queues were rewritten for
 * speed; a hot-path change that moves any simulated bit (an RNG draw,
 * a first-touch materialisation, a flip, a tick) changes the digest.
 *
 * A deliberate model change must re-record these pins and say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "sim/runner.hh"

namespace sdpcm {
namespace {

std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Digest of a run's snapshot JSON and its sorted line samples. */
std::string
digestOf(const RunMetrics& m)
{
    std::ostringstream json;
    m.toSnapshot().toJson(json);
    const std::string text = json.str();
    std::uint64_t h = fnv1a(0xcbf29ce484222325ULL, text.data(), text.size());
    for (const LineCounterSample& l : m.lines) {
        const std::uint64_t fields[] = {
            l.addr.bank, l.addr.row, l.addr.line,
            l.counters.writes, l.counters.wdFlips, l.counters.wdAbsorbed,
            l.counters.wdCorrected, l.counters.ecpHighWater,
            l.counters.cellWrites};
        h = fnv1a(h, fields, sizeof(fields));
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

RunMetrics
run(const SchemeConfig& scheme, const std::string& workload,
    const RunnerConfig& cfg)
{
    return runOne(scheme, workloadFromProfile(workload), cfg);
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

TEST(IdentityPins, AgedDimmFirstTouchDrawsFromDeviceRng)
{
    RunnerConfig cfg = pinConfig();
    cfg.aging.ageFraction = 0.7;
    const RunMetrics sd = run(SchemeConfig::sdpcm(), "mcf", cfg);
    EXPECT_GT(sd.device.hardErrors, 0u);
    EXPECT_EQ(digestOf(sd), "1ad96b7f360f2392");
    const RunMetrics vnc = run(SchemeConfig::baselineVnc(), "lbm", cfg);
    EXPECT_GT(vnc.ctrl.correctionWrites, 0u);
    EXPECT_EQ(digestOf(vnc), "8af84bace16bc020");
}

TEST(IdentityPins, InjectedStuckCellsAndForcedFlips)
{
    RunnerConfig cfg = pinConfig();
    cfg.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=5");
    const RunMetrics q = run(SchemeConfig::sdpcm(), "qstress", cfg);
    EXPECT_GT(q.device.injectedStuckCells, 0u);
    EXPECT_EQ(digestOf(q), "0494423fcaa45fb3");
    cfg.aging.ageFraction = 0.5;
    const RunMetrics aged = run(SchemeConfig::lazyC(), "mcf", cfg);
    EXPECT_GT(aged.device.hardErrors, 0u);
    EXPECT_EQ(digestOf(aged), "3702dec87278c293");
}

TEST(IdentityPins, AgedEcp2InjectedLazyCorrection)
{
    // ECP-2 on an aged DIMM with injected stuck cells under LazyC: lines
    // saturate with hard entries, WD parking overflows, and parked
    // entries are released on rewrite and parked again, so every ECP
    // slot image is written, cleared and refilled. Line counters are on
    // so the digest covers each line's ECP high-water mark too.
    SchemeConfig scheme = SchemeConfig::lazyC();
    scheme.ecpEntries = 2;
    RunnerConfig cfg = pinConfig();
    cfg.lineCounters = true;
    cfg.aging.ageFraction = 0.6;
    cfg.faults = FaultSpec::parse("stuck=0.3,seed=5");
    const RunMetrics m = run(scheme, "mcf", cfg);
    EXPECT_GT(m.device.injectedStuckCells, 0u);
    EXPECT_GT(m.device.ecpWdReleased, 0u);
    EXPECT_EQ(m.device.ecpBitsWritten, 124610u);
    EXPECT_EQ(m.device.ecpOverflows, 4811u);
    EXPECT_EQ(m.device.ecpSaturatedLines, 1135u);
    EXPECT_EQ(m.device.hardErrors, 10260u);
    EXPECT_EQ(digestOf(m), "287d74cb4a1d3075");
}

TEST(IdentityPins, FlipNWrite)
{
    const RunMetrics m = run(SchemeConfig::fnwVnc(), "mcf", pinConfig());
    EXPECT_GT(m.device.wlDisturbances, 0u);
    EXPECT_EQ(digestOf(m), "c6f90305a2b1610e");
}

TEST(IdentityPins, WriteCancellation)
{
    SchemeConfig scheme = SchemeConfig::sdpcm();
    scheme.writeCancellation = true;
    const RunMetrics q = run(scheme, "qstress", pinConfig());
    EXPECT_GT(q.ctrl.writeCancellations, 0u);
    EXPECT_EQ(digestOf(q), "9bd3ae1566dd6b30");
    RunnerConfig cfg = pinConfig();
    cfg.faults = FaultSpec::parse("stuck=0.3,ecp=2,wd=0.02,seed=5");
    const RunMetrics m = run(scheme, "mcf", cfg);
    EXPECT_GT(m.ctrl.writeCancellations, 0u);
    EXPECT_EQ(digestOf(m), "c555f1a1714c8c25");
}

TEST(IdentityPins, LineCountersAndWdLedger)
{
    RunnerConfig cfg = pinConfig();
    cfg.lineCounters = true;
    cfg.wdLedger = true;
    const RunMetrics sd = run(SchemeConfig::sdpcm(), "mcf", cfg);
    EXPECT_TRUE(sd.wd.enabled);
    EXPECT_FALSE(sd.lines.empty());
    EXPECT_EQ(digestOf(sd), "b21106c41630f44d");
    SchemeConfig wc = SchemeConfig::lazyCPreRead();
    wc.writeCancellation = true;
    const RunMetrics m = run(wc, "wrf", cfg);
    EXPECT_GT(m.ctrl.writeCancellations, 0u);
    EXPECT_EQ(digestOf(m), "ec67b2e28369e5b4");
}

} // namespace
} // namespace sdpcm
