/**
 * @file
 * Per-process address translation with the (n:m) allocator tag.
 *
 * Section 4.4: the page table gains an allocator-tag field which is loaded
 * into the TLB on a fill and travels with every memory request to the
 * memory controller, which uses it to decide which adjacent lines of a
 * write need verification. Each core runs one process in its own virtual
 * address space (the paper's multi-programmed setup), so the MMU here
 * bundles a private page table, a small LRU TLB, and demand paging from
 * the WD-aware page allocator.
 */

#ifndef SDPCM_OS_PAGE_TABLE_HH
#define SDPCM_OS_PAGE_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/line_index.hh"
#include "os/buddy.hh"
#include "os/nm_policy.hh"
#include "pcm/address.hh"

namespace sdpcm {

/** Result of one address translation. */
struct Translation
{
    PhysAddr paddr = 0;
    NmRatio tag;
    bool tlbHit = false;
    bool pageFault = false; //!< first touch: a frame was allocated
};

/** Small fully-associative LRU TLB. */
class Tlb
{
  public:
    explicit Tlb(unsigned entries = 64);

    /**
     * Look up a virtual page; returns the frame on a hit. A miss is
     * remembered, so an insert() of that page before any other lookup
     * or insert skips its own search.
     */
    std::optional<std::uint64_t> lookup(std::uint64_t vpage);

    /** Install a translation (evicts LRU if full). */
    void insert(std::uint64_t vpage, std::uint64_t frame);

    /**
     * Count a hit on `vpage`, which the last insert() installed and
     * nothing has touched since (the retry after a page walk), without
     * a search. Its LRU stamp stays: it is already the newest.
     */
    void hitInstalled(std::uint64_t vpage);

    /** Drop every entry (the mapped frames were released). */
    void clear();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** Slot holding `vpage`, or -1. A linear scan over a small,
     *  contiguous tag array: no per-miss node allocation. */
    std::ptrdiff_t find(std::uint64_t vpage) const;

    unsigned capacity_;
    // Parallel slot arrays, sized up to capacity_ and then reused. The
    // least recently used slot (smallest stamp) is the eviction victim;
    // stamps are unique, so this is exact LRU.
    std::vector<std::uint64_t> vpages_;
    std::vector<std::uint64_t> frames_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
    // The last lookup miss: valid while clock_ still equals missClock_
    // (every hit and insert advances the clock).
    std::uint64_t missVpage_ = 0;
    std::uint64_t missClock_ = ~std::uint64_t(0);
    std::size_t lastFill_ = 0; //!< slot of the last insert
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * One process's view of memory: page table + TLB + demand allocation
 * under a fixed (n:m) allocator tag (the paper assumes one allocator per
 * application for simplicity).
 */
class Mmu
{
  public:
    Mmu(PageAllocatorSystem& allocator, const NmRatio& tag,
        unsigned page_bytes, unsigned tlb_entries = 64);

    const NmRatio& tag() const { return tag_; }

    /** Translate a virtual byte address, allocating on first touch. */
    Translation translate(std::uint64_t vaddr);

    /**
     * Account the retry of a translate() that missed, after its page
     * walk: the walk filled the TLB, so the retry is a hit on that
     * entry and the address translates as the miss already returned.
     */
    void
    retryAfterWalk(std::uint64_t vaddr)
    {
        tlb_.hitInstalled(vaddr / pageBytes_);
    }

    /** Release every frame the process owns (process exit). */
    void releaseAll();

    std::uint64_t pageFaults() const { return pageFaults_; }
    std::uint64_t mappedPages() const { return table_.size(); }
    const Tlb& tlb() const { return tlb_; }

  private:
    PageAllocatorSystem& allocator_;
    NmRatio tag_;
    unsigned pageBytes_;
    Tlb tlb_;
    PageIndex table_; //!< vpage -> frame; allocated at the first fault
    std::uint64_t pageFaults_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_OS_PAGE_TABLE_HH
