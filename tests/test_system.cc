/**
 * @file
 * End-to-end integration tests: full systems running the Table 3
 * workloads under each scheme, checking completion, determinism, the
 * paper's qualitative orderings and the event queue itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace {

RunnerConfig
quickConfig()
{
    RunnerConfig cfg;
    cfg.refsPerCore = 2500;
    cfg.cores = 8;
    cfg.seed = 5;
    return cfg;
}

TEST(EventQueue, OrdersByTickThenSeq)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        q.scheduleAfter(1, [&] { fired += 1; });
    });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, OrderHoldsAcrossManySlabChunks)
{
    // Far more pending events than one slab chunk holds, scheduled out
    // of order, with many tick ties: pops must follow (tick, seq).
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 613);
        q.schedule(when, [&fired, when, i] { fired.emplace_back(when, i); });
    }
    q.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i)
        ASSERT_LT(fired[i - 1], fired[i]) << "at " << i;
}

TEST(EventQueue, NonTrivialCapturesAreReleased)
{
    auto token = std::make_shared<int>(7);
    {
        EventQueue q;
        int seen = 0;
        q.schedule(1, [token, &seen] { seen = *token; });
        q.schedule(100, [token] {}); // still pending at destruction
        EXPECT_EQ(token.use_count(), 3);
        q.run(50);
        EXPECT_EQ(seen, 7);
        EXPECT_EQ(token.use_count(), 2); // the fired callback is gone
    }
    EXPECT_EQ(token.use_count(), 1); // and so is the pending one
}

TEST(EventQueue, MaxTicksStopsEarly)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { fired += 1; });
    q.schedule(100, [&] { fired += 1; });
    q.run(50);
    EXPECT_EQ(fired, 1);
}

TEST(SystemIntegration, RunsToCompletion)
{
    auto m = runOne(SchemeConfig::baselineVnc(),
                    workloadFromProfile("zeusmp"), quickConfig());
    EXPECT_EQ(m.coreCpi.size(), 8u);
    for (const double cpi : m.coreCpi)
        EXPECT_GT(cpi, 1.0);
    EXPECT_GT(m.ctrl.writesCompleted, 0u);
    EXPECT_GT(m.ctrl.readsServiced, 0u);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const auto a = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("lbm"), quickConfig());
    const auto b = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("lbm"), quickConfig());
    EXPECT_EQ(a.meanCpi, b.meanCpi);
    EXPECT_EQ(a.device.blDisturbances, b.device.blDisturbances);
    EXPECT_EQ(a.ctrl.correctionWrites, b.ctrl.correctionWrites);
}

TEST(SystemIntegration, DinSchemeHasNoBitLineDisturbance)
{
    const auto m = runOne(SchemeConfig::din8F2(),
                          workloadFromProfile("mcf"), quickConfig());
    EXPECT_EQ(m.device.blDisturbances, 0u);
    EXPECT_EQ(m.ctrl.verifyReads, 0u);
    EXPECT_EQ(m.ctrl.correctionWrites, 0u);
}

TEST(SystemIntegration, SchemeOrderingOnWriteHeavyWorkload)
{
    // The paper's headline ordering (Figure 11): baseline is worst,
    // LazyCorrection recovers most of it, PreRead adds more, DIN is the
    // WD-free ceiling.
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("zeusmp");
    const double din = runOne(SchemeConfig::din8F2(), w, cfg).meanCpi;
    const double base = runOne(SchemeConfig::baselineVnc(), w,
                               cfg).meanCpi;
    const double lazy = runOne(SchemeConfig::lazyC(), w, cfg).meanCpi;
    const double lpr = runOne(SchemeConfig::lazyCPreRead(), w,
                              cfg).meanCpi;
    EXPECT_LT(din, lazy);
    EXPECT_LT(lazy, base);
    EXPECT_LE(lpr, lazy * 1.02);
}

TEST(SystemIntegration, OneTwoAllocatorMatchesDin)
{
    // Figure 16: (1:2) eliminates VnC, landing within a whisker of DIN.
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("lbm");
    const double din = runOne(SchemeConfig::din8F2(), w, cfg).meanCpi;
    const auto m12 = runOne(SchemeConfig::nmOnly(NmRatio{1, 2}), w, cfg);
    EXPECT_LT(m12.meanCpi, din * 1.05);
    EXPECT_EQ(m12.ctrl.verifyReads, 0u);
}

TEST(SystemIntegration, NmRatioMonotone)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("zeusmp");
    const double c12 =
        runOne(SchemeConfig::nmOnly(NmRatio{1, 2}), w, cfg).meanCpi;
    const double c23 =
        runOne(SchemeConfig::nmOnly(NmRatio{2, 3}), w, cfg).meanCpi;
    const double c34 =
        runOne(SchemeConfig::nmOnly(NmRatio{3, 4}), w, cfg).meanCpi;
    const double c11 =
        runOne(SchemeConfig::baselineVnc(), w, cfg).meanCpi;
    EXPECT_LE(c12, c23 * 1.02);
    EXPECT_LE(c23, c34 * 1.02);
    EXPECT_LE(c34, c11 * 1.02);
}

TEST(SystemIntegration, MoreEcpEntriesFewerCorrections)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("lbm");
    const double c0 =
        runOne(SchemeConfig::lazyC(0), w, cfg).correctionsPerWrite();
    const double c2 =
        runOne(SchemeConfig::lazyC(2), w, cfg).correctionsPerWrite();
    const double c6 =
        runOne(SchemeConfig::lazyC(6), w, cfg).correctionsPerWrite();
    EXPECT_GT(c0, c2);
    EXPECT_GT(c2, c6);
    EXPECT_GT(c0, 1.0); // ECP-0 corrects both adjacents almost always
    EXPECT_LT(c6, 0.2); // ECP-6 absorbs nearly everything
}

TEST(SystemIntegration, WriteCancellationImprovesVnc)
{
    const auto cfg = quickConfig();
    const auto w = workloadFromProfile("mcf");
    SchemeConfig wc = SchemeConfig::baselineVnc();
    wc.writeCancellation = true;
    const auto base = runOne(SchemeConfig::baselineVnc(), w, cfg);
    const auto with_wc = runOne(wc, w, cfg);
    EXPECT_GT(with_wc.ctrl.writeCancellations, 0u);
    EXPECT_LT(with_wc.meanCpi, base.meanCpi);
}

TEST(SystemIntegration, AgedDimmStillWorks)
{
    RunnerConfig cfg = quickConfig();
    cfg.refsPerCore = 1500;
    cfg.aging.ageFraction = 1.0;
    const auto m = runOne(SchemeConfig::lazyC(),
                          workloadFromProfile("mcf"), cfg);
    EXPECT_GT(m.device.hardErrors, 0u);
    EXPECT_GT(m.meanCpi, 0.0);
}

TEST(SystemIntegration, Figure4ShapeHolds)
{
    // Word-line errors well mitigated by DIN; adjacent-line (bit-line)
    // errors average ~2 with a tail up to ~9 per line (Figure 4).
    RunnerConfig cfg = quickConfig();
    const auto m = runOne(SchemeConfig::baselineVnc(),
                          workloadFromProfile("lbm"), cfg);
    const double wl_avg = m.device.wlErrorsPerWrite.mean();
    const double bl_avg = m.device.blErrorsPerAdjacentLine.mean();
    EXPECT_LT(wl_avg, 1.0);
    EXPECT_GT(bl_avg, 0.5);
    EXPECT_LT(bl_avg, 4.0);
    EXPECT_LT(wl_avg, bl_avg);
    EXPECT_GE(m.device.blErrorsPerAdjacentLine.max(), 5.0);
}

TEST(SystemIntegration, PreReadsMostlyUseful)
{
    RunnerConfig cfg = quickConfig();
    const auto m = runOne(SchemeConfig::lazyCPreRead(),
                          workloadFromProfile("zeusmp"), cfg);
    EXPECT_GT(m.ctrl.preReadsIssued + m.ctrl.preReadsForwarded, 0u);
    EXPECT_GT(m.ctrl.preReadsUseful, 0u);
}

TEST(SystemIntegration, TlbAndPagingActive)
{
    System system(
        [] {
            SystemConfig sc;
            sc.scheme = SchemeConfig::din8F2();
            sc.refsPerCore = 2000;
            sc.cores = 2;
            return sc;
        }(),
        workloadFromProfile("mcf"));
    system.run();
    const auto& cores = system.cores();
    ASSERT_EQ(cores.size(), 2u);
    for (const auto& core : cores)
        EXPECT_TRUE(core->done());
}

// The line store's footprint on a short sdpcm/wrf run: with line
// counters off it holds only the lines the run changed; with them on,
// every line the run touched. A change that re-materialises read-only
// lines moves the first figure.
TEST(SystemIntegration, TouchedLinesFootprintIsPinned)
{
    std::size_t touched[2] = {};
    for (const bool counters : {false, true}) {
        SystemConfig sc;
        sc.scheme = SchemeConfig::sdpcm();
        sc.cores = 2;
        sc.refsPerCore = 3000;
        sc.lineCounters = counters;
        System system(sc, workloadFromProfile("wrf"));
        system.run();
        touched[counters] = system.device().touchedLines();
    }
    EXPECT_EQ(touched[0], 973u);
    EXPECT_EQ(touched[1], 7020u); // every line touched, as before
}

} // namespace
} // namespace sdpcm
