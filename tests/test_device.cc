/**
 * @file
 * Tests for the PCM device model: functional reads/writes, the program-
 * round decomposition, disturbance injection, ECP parking, corrections,
 * stuck-at aging and the partial-write (cancellation) semantics.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "pcm/device.hh"
#include "verify/faultinject.hh"

namespace sdpcm {
namespace {

DeviceConfig
quietConfig()
{
    DeviceConfig dc;
    dc.rates = WdRates{0.0, 0.0};
    dc.seed = 99;
    return dc;
}

/** Drive a plan to completion. */
PcmDevice::FinishOutcome
runPlan(PcmDevice& dev, PcmDevice::WritePlan& plan)
{
    PcmDevice::RoundOutcome outcome;
    while (dev.applyNextRound(plan, outcome)) {
    }
    return dev.finishWrite(plan);
}

TEST(Device, WriteThenReadRoundTrip)
{
    PcmDevice dev(quietConfig());
    const LineAddr la{3, 100, 7};
    const LineData data = LineData::randomFromKey(77);
    auto plan = dev.planWrite(la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, RoundTripWithoutDin)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    PcmDevice dev(dc);
    const LineAddr la{0, 5, 0};
    const LineData data = LineData::randomFromKey(3);
    auto plan = dev.planWrite(la, data);
    runPlan(dev, plan);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, PeekLineDoesNotCountReads)
{
    PcmDevice dev(quietConfig());
    const LineAddr la{0, 1, 1};
    dev.peekLine(la);
    EXPECT_EQ(dev.stats().lineReads, 0u);
    dev.readLine(la);
    EXPECT_EQ(dev.stats().lineReads, 1u);
}

TEST(Device, WindowedRoundsCoverChangedWindowsOnly)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false; // make the physical target predictable
    PcmDevice dev(dc);
    const LineAddr la{1, 10, 0};
    const LineData old = dev.peekLine(la);
    LineData target = old;
    target.flipBit(0);   // window 0
    target.flipBit(300); // window 2
    auto plan = dev.planWrite(la, target);
    // Two windows touched, one cell each -> exactly two rounds.
    EXPECT_EQ(plan.totalRounds(), 2u);
}

TEST(Device, PooledRoundsFollowCeilDiv)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.timing.windowed = false;
    PcmDevice dev(dc);
    const LineAddr la{1, 11, 0};
    const LineData old = dev.peekLine(la);
    LineData target;
    for (unsigned w = 0; w < kLineWords; ++w)
        target.words[w] = ~old.words[w]; // flip all 512 cells
    auto plan = dev.planWrite(la, target);
    // 256-ish RESETs and SETs each -> ceil(n/128) rounds per kind.
    unsigned reset_rounds = 0, set_rounds = 0;
    for (const auto& r : plan.rounds)
        (r.isReset ? reset_rounds : set_rounds) += 1;
    EXPECT_EQ(reset_rounds,
              (plan.masks.resetCount() + 127) / 128);
    EXPECT_EQ(set_rounds, (plan.masks.setCount() + 127) / 128);
}

TEST(Device, BitLineDisturbanceHitsVulnerableCellsOnly)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0; // every vulnerable neighbour flips
    PcmDevice dev(dc);

    const LineAddr la{2, 50, 9};
    const LineAddr upper{2, 49, 9};
    const LineAddr lower{2, 51, 9};
    const LineData upper_before = dev.peekLine(upper);
    const LineData lower_before = dev.peekLine(lower);
    const LineData old = dev.peekLine(la);

    LineData target = old;
    target.flipBit(100);
    target.flipBit(200);
    auto plan = dev.planWrite(la, target);
    runPlan(dev, plan);

    // Only the columns that were RESET can disturb, and only if the
    // neighbour cell held '0'.
    std::set<unsigned> reset_cols;
    forEachSetBit(plan.masks.resetMask,
                  [&](unsigned pos) { reset_cols.insert(pos); });
    for (const auto& [n_addr, before] :
         {std::pair{upper, upper_before}, std::pair{lower,
                                                    lower_before}}) {
        const LineData after = dev.peekLine(n_addr);
        forEachSetBit(after.diff(before), [&](unsigned pos) {
            EXPECT_TRUE(reset_cols.count(pos));
            EXPECT_FALSE(before.getBit(pos)); // was amorphous '0'
            EXPECT_TRUE(after.getBit(pos));   // partially SET
        });
    }
    EXPECT_EQ(dev.stats().blDisturbances,
              dev.peekLine(upper).diff(upper_before).popcount() +
                  dev.peekLine(lower).diff(lower_before).popcount());
}

TEST(Device, NoBitLineDisturbanceAtZeroRate)
{
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{2, 50, 9};
    const LineAddr upper{2, 49, 9};
    const LineData before = dev.peekLine(upper);
    auto plan = dev.planWrite(la, LineData::randomFromKey(5));
    runPlan(dev, plan);
    EXPECT_EQ(dev.peekLine(upper), before);
    EXPECT_EQ(dev.stats().blDisturbances, 0u);
}

TEST(Device, VerifyDetectsInjectedErrors)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{4, 60, 0};
    const LineAddr upper{4, 59, 0};
    const LineData expected = dev.readLine(upper); // pre-write read

    auto plan = dev.planWrite(la, LineData::randomFromKey(123));
    runPlan(dev, plan);

    const auto errors = dev.verifyLine(upper, expected);
    EXPECT_EQ(static_cast<unsigned>(errors.size()), plan.blHitsUpper);
}

TEST(Device, CorrectionRestoresDisturbedLine)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{4, 61, 3};
    const LineAddr lower{4, 62, 3};
    const LineData expected = dev.readLine(lower);

    auto plan = dev.planWrite(la, LineData::randomFromKey(321));
    runPlan(dev, plan);
    auto errors = dev.verifyLine(lower, expected);
    ASSERT_FALSE(errors.empty());

    dev.setRates(WdRates{0.0, 0.0}); // keep the correction clean
    auto fix = dev.planCorrection(lower, errors);
    EXPECT_TRUE(fix.isCorrection);
    runPlan(dev, fix);
    EXPECT_TRUE(dev.verifyLine(lower, expected).empty());
    EXPECT_EQ(dev.stats().correctionWrites, 1u);
}

TEST(Device, EcpParkingMakesReadsCorrect)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    dc.rates.bitLine = 1.0;
    dc.ecpEntries = 6;
    PcmDevice dev(dc);

    const LineAddr la{5, 70, 1};
    const LineAddr upper{5, 69, 1};
    const LineData expected = dev.readLine(upper);

    LineData target = dev.peekLine(la);
    target.flipBit(40); // at most 1 RESET -> at most 1 disturbance/side
    auto plan = dev.planWrite(la, target);
    runPlan(dev, plan);

    auto errors = dev.verifyLine(upper, expected);
    if (!errors.empty()) {
        EXPECT_TRUE(dev.recordWdInEcp(upper, errors));
        // The read path now overlays the parked corrections.
        EXPECT_EQ(dev.readLine(upper), expected);
        EXPECT_TRUE(dev.verifyLine(upper, expected).empty());
        EXPECT_EQ(dev.stats().ecpWdRecorded, errors.size());
    }
}

TEST(Device, EcpOverflowReportsFalse)
{
    DeviceConfig dc = quietConfig();
    dc.ecpEntries = 2;
    PcmDevice dev(dc);
    const LineAddr la{0, 7, 0};
    EXPECT_FALSE(dev.recordWdInEcp(la, {1, 2, 3}));
    EXPECT_EQ(dev.ecpUsed(la), 2u);
    EXPECT_EQ(dev.ecpWdCells(la).size(), 2u);
}

TEST(Device, WriteReleasesParkedWdEntries)
{
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{0, 8, 0};
    EXPECT_TRUE(dev.recordWdInEcp(la, {5, 6}));
    EXPECT_EQ(dev.ecpUsed(la), 2u);
    auto plan = dev.planWrite(la, LineData::randomFromKey(8));
    const auto out = runPlan(dev, plan);
    EXPECT_EQ(out.ecpWdReleased, 2u);
    EXPECT_EQ(dev.ecpUsed(la), 0u);
}

TEST(Device, PartialWriteResumesCleanly)
{
    // Write cancellation leaves a half-programmed line; re-planning from
    // the current state must still converge to the same final content.
    DeviceConfig dc = quietConfig();
    PcmDevice dev(dc);
    const LineAddr la{6, 90, 5};
    const LineData data = LineData::randomFromKey(2024);

    auto plan = dev.planWrite(la, data);
    PcmDevice::RoundOutcome outcome;
    if (plan.roundsRemaining())
        dev.applyNextRound(plan, outcome); // one round, then "cancel"

    auto resume = dev.planWrite(la, data);
    runPlan(dev, resume);
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, AgedDeviceHasStuckCellsCoveredByEcp)
{
    DeviceConfig dc = quietConfig();
    dc.aging.ageFraction = 1.0;
    dc.aging.meanHardPerLineAtEol = 2.0;
    // Generous ECP so no sampled line exceeds its hard-error capacity
    // (an ECP-saturated line is legitimately unprotectable).
    dc.ecpEntries = 16;
    PcmDevice dev(dc);

    // Touch a population of lines and write fresh data over them; reads
    // must return the written data despite the stuck cells.
    std::uint64_t hard_before = 0;
    for (unsigned i = 0; i < 50; ++i) {
        const LineAddr la{i % 16, 100 + i, i % 64};
        const LineData data = LineData::randomFromKey(i * 31 + 1);
        auto plan = dev.planWrite(la, data);
        runPlan(dev, plan);
        EXPECT_EQ(dev.readLine(la), data) << "line " << i;
    }
    hard_before = dev.stats().hardErrors;
    // Poisson(2) over 50 lines: expect a healthy population.
    EXPECT_GT(hard_before, 50u);
    EXPECT_LT(hard_before, 200u);
}

TEST(Device, FreshDeviceHasNoHardErrors)
{
    PcmDevice dev(quietConfig());
    for (unsigned i = 0; i < 20; ++i)
        dev.readLine(LineAddr{0, i, 0});
    EXPECT_EQ(dev.stats().hardErrors, 0u);
}

TEST(Device, WordLineFixupsRepairOwnRow)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = true;
    dc.din.modeledResidualFactor = 1.0;
    dc.rates.wordLine = 1.0;
    PcmDevice dev(dc);

    const LineAddr la{7, 110, 8};
    const LineData data = LineData::randomFromKey(55);
    auto plan = dev.planWrite(la, data);
    const auto out = runPlan(dev, plan);
    // Everything disturbed within the row was repaired by the write.
    EXPECT_EQ(out.wlErrorsFixed, plan.wlHits.size());
    EXPECT_EQ(dev.readLine(la), data);
}

TEST(Device, Figure4StatsAccumulate)
{
    DeviceConfig dc = quietConfig();
    dc.rates = WdRates{0.099, 0.115};
    PcmDevice dev(dc);
    for (unsigned i = 0; i < 40; ++i) {
        const LineAddr la{i % 16, 200 + i / 16, i % 64};
        auto plan = dev.planWrite(la, LineData::randomFromKey(i));
        runPlan(dev, plan);
    }
    EXPECT_EQ(dev.stats().wlErrorsPerWrite.count(), 40u);
    // Two adjacent-line samples per write.
    EXPECT_EQ(dev.stats().blErrorsPerAdjacentLine.count(), 80u);
    EXPECT_GT(dev.stats().blDisturbances, 0u);
}

// --- The line store materialises a line at its first change (DESIGN
// §7.1). While never-changed content is a pure function of the address
// (no aging draws, no injector, no line counters) read-only uses leave
// the store alone; otherwise every access materialises, as before.

TEST(Device, LazyStoreReadOnlyUsesMaterialiseNothing)
{
    PcmDevice dev(quietConfig());
    const LineAddr la{2, 40, 9};
    const LineData content = dev.peekLine(la);
    EXPECT_EQ(dev.readLine(la), content);
    EXPECT_TRUE(dev.verifyLine(la, content).empty());
    std::vector<unsigned> cells{1, 2};
    dev.verifyLineInto(la, LineData{}, cells);
    EXPECT_EQ(cells.size(), content.diff(LineData{}).popcount());
    EXPECT_EQ(dev.ecpUsed(la), 0u);
    EXPECT_EQ(dev.ecpFree(la), dev.config().ecpEntries);
    EXPECT_TRUE(dev.ecpWdCells(la).empty());
    dev.ecpWdCellsInto(la, cells);
    EXPECT_TRUE(cells.empty());
    EXPECT_EQ(dev.uncorrectableMask(la), LineData{});
    EXPECT_TRUE(dev.recordWdInEcp(la, {}));
    EXPECT_EQ(dev.touchedLines(), 0u);
    EXPECT_EQ(dev.stats().lineReads, 3u);
}

TEST(Device, LazyStoreNeighbourProbesReadWithoutMaterialising)
{
    // Find a line with a '1' cell at the end of a word whose right-hand
    // (word-line) and upper/lower (bit-line) neighbour cells are all '1'
    // too: RESETting it probes three absent lines, none vulnerable.
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false; // physical content == logical content
    dc.rates = WdRates{1.0, 1.0};
    PcmDevice dev(dc);
    LineAddr la{1, 50, 0};
    unsigned pos = kLineBits;
    for (; la.line + 1 < dev.config().geometry.linesPerRow(); ++la.line) {
        const LineData self = dev.peekLine(la);
        const LineData right = dev.peekLine({la.bank, la.row, la.line + 1});
        const LineData up = dev.peekLine({la.bank, la.row - 1, la.line});
        const LineData down = dev.peekLine({la.bank, la.row + 1, la.line});
        for (unsigned w = 0; w < kLineWords && pos == kLineBits; ++w) {
            const unsigned p = w * 64 + 63;
            if (self.getBit(p) && right.getBit(w * 64) && up.getBit(p) &&
                down.getBit(p)) {
                pos = p;
            }
        }
        if (pos != kLineBits)
            break;
    }
    ASSERT_LT(pos, kLineBits);
    ASSERT_EQ(dev.touchedLines(), 0u);
    LineData target = dev.peekLine(la);
    target.setBit(pos, false);
    auto plan = dev.planWrite(la, target);
    runPlan(dev, plan);
    EXPECT_EQ(dev.stats().blDisturbances, 0u);
    EXPECT_EQ(dev.touchedLines(), 1u);
    EXPECT_EQ(dev.readLine(la), target);
}

TEST(Device, LazyStoreMaterialisesAtFirstChange)
{
    DeviceConfig dc = quietConfig();
    dc.dinEnabled = false;
    {
        PcmDevice dev(dc); // a write plan
        dev.planWrite({0, 3, 3}, LineData{});
        EXPECT_EQ(dev.touchedLines(), 1u);
    }
    {
        PcmDevice dev(dc); // a correction plan
        dev.planCorrection({0, 3, 3}, {5, 6});
        EXPECT_EQ(dev.touchedLines(), 1u);
    }
    {
        PcmDevice dev(dc); // ECP parking with cells
        EXPECT_TRUE(dev.recordWdInEcp({0, 3, 3}, {5, 6}));
        EXPECT_EQ(dev.touchedLines(), 1u);
        EXPECT_EQ(dev.ecpUsed({0, 3, 3}), 2u);
    }
    {
        // Neighbour flips: a bit-line rate of 1 flips every vulnerable
        // cell above and below the RESETs of an all-zero write.
        dc.rates = WdRates{0.0, 1.0};
        PcmDevice dev(dc);
        auto plan = dev.planWrite({0, 3, 3}, LineData{});
        runPlan(dev, plan);
        EXPECT_GT(plan.blHitsUpper, 0u);
        EXPECT_GT(plan.blHitsLower, 0u);
        EXPECT_EQ(dev.touchedLines(), 3u);
    }
}

TEST(Device, EagerStoreMaterialisesOnRead)
{
    FaultInjector inject(FaultSpec{0.0, 0, 0.01, 3});
    for (int eager = 0; eager < 3; ++eager) {
        DeviceConfig dc = quietConfig();
        if (eager == 0)
            dc.aging.ageFraction = 0.5; // aging draws per line
        if (eager == 2)
            dc.lineCounters = true;
        PcmDevice dev(dc);
        if (eager == 1)
            dev.setFaultInjector(&inject);
        EXPECT_EQ(dev.touchedLines(), 0u);
        dev.readLine(LineAddr{0, 0, 0});
        dev.readLine(LineAddr{0, 0, 0});
        dev.readLine(LineAddr{1, 0, 0});
        EXPECT_EQ(dev.touchedLines(), 2u) << "eager condition " << eager;
    }
}

/** Every DeviceStats field of `a` equals `b`'s. */
void
expectSameStats(const DeviceStats& a, const DeviceStats& b)
{
    EXPECT_EQ(a.lineReads, b.lineReads);
    EXPECT_EQ(a.lineWrites, b.lineWrites);
    EXPECT_EQ(a.correctionWrites, b.correctionWrites);
    EXPECT_EQ(a.dataCellWrites, b.dataCellWrites);
    EXPECT_EQ(a.normalCellWrites, b.normalCellWrites);
    EXPECT_EQ(a.correctionCellWrites, b.correctionCellWrites);
    EXPECT_EQ(a.wlDisturbances, b.wlDisturbances);
    EXPECT_EQ(a.blDisturbances, b.blDisturbances);
    EXPECT_EQ(a.ecpWdRecorded, b.ecpWdRecorded);
    EXPECT_EQ(a.ecpOverflows, b.ecpOverflows);
    EXPECT_EQ(a.ecpBitsWritten, b.ecpBitsWritten);
    EXPECT_EQ(a.ecpWdReleased, b.ecpWdReleased);
    EXPECT_EQ(a.hardErrors, b.hardErrors);
    EXPECT_EQ(a.ecpSaturatedLines, b.ecpSaturatedLines);
    EXPECT_EQ(a.injectedStuckCells, b.injectedStuckCells);
    EXPECT_EQ(a.wlErrorsPerWrite.count(), b.wlErrorsPerWrite.count());
    EXPECT_EQ(a.wlErrorsPerWrite.sum(), b.wlErrorsPerWrite.sum());
    EXPECT_EQ(a.blErrorsPerAdjacentLine.count(),
              b.blErrorsPerAdjacentLine.count());
    EXPECT_EQ(a.blErrorsPerAdjacentLine.sum(),
              b.blErrorsPerAdjacentLine.sum());
    ASSERT_EQ(a.blErrorHistogram.numBuckets(),
              b.blErrorHistogram.numBuckets());
    for (std::size_t v = 0; v < a.blErrorHistogram.numBuckets(); ++v)
        EXPECT_EQ(a.blErrorHistogram.bucket(v), b.blErrorHistogram.bucket(v));
    EXPECT_EQ(a.blErrorHistogram.overflow(), b.blErrorHistogram.overflow());
}

// One seeded op stream into an eager store (line counters on) and a lazy
// one: reads, full writes, cancelled writes with their WL repair,
// corrections, verifies and ECP parking over a 2-bank x 16-row x 16-line
// patch, so neighbour probes keep landing on never-changed lines. Every
// return value, the device statistics and the device RNG must agree.
TEST(Device, EagerAndLazyStoresAgree)
{
    DeviceConfig dc;
    dc.seed = 4242;
    dc.lineCounters = true;
    PcmDevice eager(dc);
    dc.lineCounters = false;
    PcmDevice lazy(dc);

    Rng ops(17);
    auto pick = [&ops] {
        return LineAddr{static_cast<unsigned>(ops.below(2)),
                        100 + ops.below(16),
                        static_cast<unsigned>(ops.below(16))};
    };
    auto cells = [&ops] {
        std::vector<unsigned> out(ops.below(4));
        for (unsigned& c : out)
            c = static_cast<unsigned>(ops.below(kLineBits));
        return out;
    };
    PcmDevice::WritePlan pe, pl;
    PcmDevice::RoundOutcome oe, ol;
    auto rounds = [&](std::size_t limit) {
        for (std::size_t r = 0; r < limit; ++r) {
            const bool more = eager.applyNextRound(pe, oe);
            ASSERT_EQ(lazy.applyNextRound(pl, ol), more);
            EXPECT_EQ(oe.isReset, ol.isReset);
            EXPECT_EQ(oe.wlErrors, ol.wlErrors);
            EXPECT_EQ(oe.blErrors, ol.blErrors);
            if (!more)
                break;
        }
    };
    auto finish = [&] {
        const auto fe = eager.finishWrite(pe);
        const auto fl = lazy.finishWrite(pl);
        EXPECT_EQ(fe.wlErrorsFixed, fl.wlErrorsFixed);
        EXPECT_EQ(fe.ecpWdReleased, fl.ecpWdReleased);
    };
    for (int i = 0; i < 3000; ++i) {
        const LineAddr la = pick();
        switch (ops.below(8)) {
        case 0:
            ASSERT_EQ(eager.readLine(la), lazy.readLine(la));
            break;
        case 1: { // full write
            const LineData data = LineData::randomFromKey(ops.next64());
            eager.planWriteInto(pe, la, data);
            lazy.planWriteInto(pl, la, data);
            rounds(~std::size_t(0));
            finish();
            break;
        }
        case 2: { // cancelled write: some rounds, then the WL repair
            const LineData data = LineData::randomFromKey(ops.next64());
            eager.planWriteInto(pe, la, data);
            lazy.planWriteInto(pl, la, data);
            ASSERT_EQ(pe.totalRounds(), pl.totalRounds());
            rounds(ops.below(pe.totalRounds() + 1));
            EXPECT_EQ(eager.repairWlHits(pe), lazy.repairWlHits(pl));
            break;
        }
        case 3: { // correction
            const std::vector<unsigned> c = cells();
            eager.planCorrectionInto(pe, la, c);
            lazy.planCorrectionInto(pl, la, c);
            rounds(~std::size_t(0));
            finish();
            break;
        }
        case 4: {
            const LineData expected = ops.chance(0.5)
                ? lazy.peekLine(la) : LineData::randomFromKey(ops.next64());
            ASSERT_EQ(eager.verifyLine(la, expected),
                      lazy.verifyLine(la, expected));
            break;
        }
        case 5: { // ECP parking (sometimes of nothing)
            const std::vector<unsigned> c = cells();
            EXPECT_EQ(eager.recordWdInEcp(la, c), lazy.recordWdInEcp(la, c));
            break;
        }
        case 6:
            EXPECT_EQ(eager.ecpUsed(la), lazy.ecpUsed(la));
            EXPECT_EQ(eager.ecpFree(la), lazy.ecpFree(la));
            EXPECT_EQ(eager.ecpWdCells(la), lazy.ecpWdCells(la));
            EXPECT_EQ(eager.uncorrectableMask(la), lazy.uncorrectableMask(la));
            break;
        default:
            ASSERT_EQ(eager.peekLine(la), lazy.peekLine(la));
            break;
        }
    }
    expectSameStats(eager.stats(), lazy.stats());
    EXPECT_GT(eager.stats().wlDisturbances, 0u);
    EXPECT_GT(eager.stats().ecpWdRecorded, 0u);
    const auto lines = eager.lineCounterSamples();
    EXPECT_EQ(lines.size(), eager.touchedLines());
    EXPECT_LT(lazy.touchedLines(), eager.touchedLines());
    for (const LineCounterSample& line : lines)
        ASSERT_EQ(eager.peekLine(line.addr), lazy.peekLine(line.addr));

    // The device RNG is private; a last write with probes of certain
    // draw (rates 1/2) on fresh lines makes its next draws visible in
    // the flip counts and in the neighbours' content.
    const WdRates half{0.5, 0.5};
    eager.setRates(half);
    lazy.setRates(half);
    const LineAddr probe{3, 500, 4};
    const LineData data = LineData::randomFromKey(ops.next64());
    eager.planWriteInto(pe, probe, data);
    lazy.planWriteInto(pl, probe, data);
    rounds(~std::size_t(0));
    EXPECT_GT(pe.blHitsUpper + pe.blHitsLower, 0u);
    EXPECT_EQ(pe.wlHits, pl.wlHits);
    EXPECT_EQ(pe.blHitsUpper, pl.blHitsUpper);
    EXPECT_EQ(pe.blHitsLower, pl.blHitsLower);
    for (const LineAddr n : {LineAddr{3, 499, 4}, LineAddr{3, 501, 4},
                             LineAddr{3, 500, 3}, LineAddr{3, 500, 5}}) {
        EXPECT_EQ(eager.peekLine(n), lazy.peekLine(n));
    }
}

} // namespace
} // namespace sdpcm
