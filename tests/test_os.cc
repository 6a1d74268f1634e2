/**
 * @file
 * Tests for the TLB, the per-process MMU (demand paging + allocator tag)
 * and the WD-aware DMA controller.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "os/dma.hh"
#include "os/page_table.hh"

namespace sdpcm {
namespace {

DimmGeometry
smallGeometry()
{
    DimmGeometry g;
    g.rowsPerBank = 16384; // 1GB
    return g;
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(1).has_value());
    tlb.insert(1, 100);
    auto hit = tlb.lookup(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 100u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2);
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    tlb.lookup(1);      // 1 becomes MRU
    tlb.insert(3, 30);  // evicts 2
    EXPECT_TRUE(tlb.lookup(1).has_value());
    EXPECT_FALSE(tlb.lookup(2).has_value());
    EXPECT_TRUE(tlb.lookup(3).has_value());
}

TEST(Tlb, ReinsertUpdatesFrame)
{
    Tlb tlb(2);
    tlb.insert(1, 10);
    tlb.insert(1, 11);
    EXPECT_EQ(*tlb.lookup(1), 11u);
}

/** FNV-1a of a hit/miss pattern string. */
std::uint64_t
patternHash(const std::string& pattern)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : pattern) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fixed page stream: 70% from 12 hot pages, 30% from 200 cold ones. */
std::uint64_t
nextPage(std::uint64_t& x)
{
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = x >> 33;
    return r % 10 < 7 ? (r / 10) % 12 : 100 + (r / 10) % 200;
}

// The counts, the hit/miss pattern and the final resident set below were
// recorded with the TLB that searched again on every fill and translated
// the post-walk retry in full; the miss path now reuses its search, and
// the eviction order must not move.
TEST(Tlb, MissFillRetryReplayMatchesRecordedLru)
{
    Tlb tlb(8);
    std::uint64_t x = 7;
    std::string pattern;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t v = nextPage(x);
        if (tlb.lookup(v)) {
            pattern += 'h';
            continue;
        }
        pattern += 'm';
        tlb.insert(v, v * 3 + 1);
        tlb.hitInstalled(v);
    }
    std::vector<std::uint64_t> resident;
    for (std::uint64_t v = 0; v < 300; ++v) {
        if (tlb.lookup(v))
            resident.push_back(v);
    }
    EXPECT_EQ(tlb.hits(), 4008u);
    EXPECT_EQ(tlb.misses(), 3071u);
    EXPECT_EQ(patternHash(pattern), 0x27feadb10734702cULL);
    EXPECT_EQ(resident, (std::vector<std::uint64_t>{0, 4, 9, 103, 126, 194,
                                                    208, 299}));
}

TEST(TlbDeathTest, RetryHitNeedsTheLastFill)
{
    Tlb tlb(4);
    tlb.insert(1, 10);
    tlb.insert(2, 20);
    EXPECT_DEATH(tlb.hitInstalled(1), "last fill did not install");
    tlb.lookup(1); // page 2 is no longer the newest entry
    EXPECT_DEATH(tlb.hitInstalled(2), "last fill did not install");
}

TEST(Mmu, WalkRetryReplayMatchesRecordedCounts)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1}, 4096, 8);
    std::uint64_t x = 11;
    std::string pattern;
    std::uint64_t paddrs = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t vaddr = nextPage(x) * 4096 + (i % 64) * 64;
        const Translation t = mmu.translate(vaddr);
        pattern += t.tlbHit ? 'h' : 'm';
        paddrs = paddrs * 31 + t.paddr;
        if (!t.tlbHit) {
            mmu.retryAfterWalk(vaddr);
            paddrs = paddrs * 31 + t.paddr;
        }
    }
    EXPECT_EQ(mmu.tlb().hits(), 4000u);
    EXPECT_EQ(mmu.tlb().misses(), 2750u);
    EXPECT_EQ(patternHash(pattern), 0xc0bb5fd2cf512b1dULL);
    EXPECT_EQ(paddrs, 0x312cc5ffe7793300ULL);
    EXPECT_EQ(mmu.pageFaults(), 212u);
}

// A mixed-locality stream: half the translations hit 16 hot pages, a
// third walk 6000 pages in order and the rest scatter over 8000, so the
// run has TLB hits, misses, re-walks of mapped pages and page faults on
// more than 5000 pages (several doublings of any page table). The digest
// covers every paddr and page-fault flag; it was recorded on the
// std::unordered_map page table.
TEST(Mmu, MixedLocalityDigestIsPinned)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1}, 4096, 32);
    std::uint64_t x = 23;
    std::uint64_t walk = 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (int i = 0; i < 24000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = x >> 33;
        std::uint64_t page;
        if (r % 6 < 3)
            page = (r / 6) % 16;
        else if (r % 6 < 5)
            page = 16 + walk++ % 6000;
        else
            page = (r / 6) % 8000;
        const std::uint64_t vaddr = page * 4096 + (r >> 20) % 4096;
        const Translation t = mmu.translate(vaddr);
        mix(t.paddr);
        mix(t.pageFault);
        if (!t.tlbHit)
            mmu.retryAfterWalk(vaddr);
    }
    EXPECT_EQ(h, 0x4f512cc243548a92ULL);
    EXPECT_EQ(mmu.pageFaults(), 6829u);
    EXPECT_EQ(mmu.mappedPages(), 6829u);
    EXPECT_EQ(mmu.tlb().hits(), 24000u); // 8638 direct + 15362 retries
    EXPECT_EQ(mmu.tlb().misses(), 15362u);
}

TEST(Mmu, DemandPagingAllocatesOnFirstTouch)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1}, 4096);
    const Translation t1 = mmu.translate(0x1234);
    EXPECT_TRUE(t1.pageFault);
    EXPECT_FALSE(t1.tlbHit);
    const Translation t2 = mmu.translate(0x1000);
    EXPECT_FALSE(t2.pageFault);
    EXPECT_TRUE(t2.tlbHit);
    EXPECT_EQ(t1.paddr - 0x234, t2.paddr - 0x000);
    EXPECT_EQ(mmu.pageFaults(), 1u);
    EXPECT_EQ(mmu.mappedPages(), 1u);
}

TEST(Mmu, OffsetPreserved)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1}, 4096);
    const Translation t = mmu.translate(7 * 4096 + 321);
    EXPECT_EQ(t.paddr % 4096, 321u);
}

TEST(Mmu, TagTravelsWithTranslation)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{2, 3}, 4096);
    const Translation t = mmu.translate(0);
    EXPECT_EQ(t.tag, (NmRatio{2, 3}));
}

TEST(Mmu, PartialTagAllocatesUsedStripsOnly)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 2}, 4096);
    const NmPolicy policy(NmRatio{1, 2},
                          smallGeometry().stripsPer64MB());
    for (std::uint64_t page = 0; page < 300; ++page) {
        const Translation t = mmu.translate(page * 4096);
        EXPECT_TRUE(policy.stripInUse(t.paddr / 4096 / 16));
    }
}

TEST(Mmu, DistinctSpacesGetDistinctFrames)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu a(sys, NmRatio{1, 1}, 4096);
    Mmu b(sys, NmRatio{1, 1}, 4096);
    std::set<std::uint64_t> frames;
    for (std::uint64_t page = 0; page < 50; ++page) {
        frames.insert(a.translate(page * 4096).paddr / 4096);
        frames.insert(b.translate(page * 4096).paddr / 4096);
    }
    EXPECT_EQ(frames.size(), 100u);
}

TEST(Mmu, ReleaseAllReturnsFrames)
{
    PageAllocatorSystem sys(smallGeometry());
    auto& base = sys.allocatorFor(NmRatio{1, 1});
    const std::uint64_t before = base.freeFrames();
    {
        Mmu mmu(sys, NmRatio{1, 1}, 4096);
        for (std::uint64_t page = 0; page < 64; ++page)
            mmu.translate(page * 4096);
        EXPECT_EQ(base.freeFrames(), before - 64);
        mmu.releaseAll();
    }
    EXPECT_EQ(base.freeFrames(), before);
}

TEST(Mmu, ReleasedPageFaultsAgain)
{
    PageAllocatorSystem sys(smallGeometry());
    Mmu mmu(sys, NmRatio{1, 1}, 4096);
    EXPECT_TRUE(mmu.translate(5 * 4096).pageFault);
    EXPECT_TRUE(mmu.translate(5 * 4096 + 64).tlbHit);
    mmu.releaseAll();
    EXPECT_EQ(mmu.mappedPages(), 0u);
    // The TLB was flushed with the table: no hit on the freed frame.
    const Translation t = mmu.translate(5 * 4096 + 128);
    EXPECT_FALSE(t.tlbHit);
    EXPECT_TRUE(t.pageFault);
    EXPECT_EQ(mmu.pageFaults(), 2u);
    EXPECT_EQ(mmu.mappedPages(), 1u);
}

TEST(Dma, FullRatioIsContiguous)
{
    DmaController dma(smallGeometry());
    const auto frames = dma.framesForTransfer(NmRatio{1, 1}, 100, 10);
    ASSERT_EQ(frames.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(frames[i], 100u + i);
}

TEST(Dma, OneTwoSkipsAlternateStrips)
{
    DmaController dma(smallGeometry());
    // Start at frame 0 (strip 0, used); strips are 16 frames.
    const auto frames = dma.framesForTransfer(NmRatio{1, 2}, 0, 40);
    ASSERT_EQ(frames.size(), 40u);
    const NmPolicy policy(NmRatio{1, 2},
                          smallGeometry().stripsPer64MB());
    for (const auto f : frames)
        EXPECT_TRUE(policy.stripInUse(f / 16));
    // First 16 frames contiguous, then the skip.
    EXPECT_EQ(frames[15], 15u);
    EXPECT_EQ(frames[16], 32u);
}

TEST(Dma, RejectsUnsupportedTag)
{
    DmaController dma(smallGeometry());
    EXPECT_FALSE(DmaController::tagSupported(NmRatio{2, 3}));
    EXPECT_DEATH(dma.framesForTransfer(NmRatio{2, 3}, 0, 1),
                 "DMA supports only");
}

TEST(Dma, RejectsStartInNoUseStrip)
{
    DmaController dma(smallGeometry());
    EXPECT_DEATH(dma.framesForTransfer(NmRatio{1, 2}, 16, 1),
                 "no-use strip");
}

} // namespace
} // namespace sdpcm
