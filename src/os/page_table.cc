#include "os/page_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sdpcm {

Tlb::Tlb(unsigned entries)
    : capacity_(entries)
{
    SDPCM_ASSERT(entries > 0, "TLB needs at least one entry");
    vpages_.reserve(entries);
    frames_.reserve(entries);
    lastUse_.reserve(entries);
}

std::ptrdiff_t
Tlb::find(std::uint64_t vpage) const
{
    for (std::size_t i = 0; i < vpages_.size(); ++i) {
        if (vpages_[i] == vpage)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

std::optional<std::uint64_t>
Tlb::lookup(std::uint64_t vpage)
{
    const std::ptrdiff_t i = find(vpage);
    if (i < 0) {
        misses_ += 1;
        missVpage_ = vpage;
        missClock_ = clock_;
        return std::nullopt;
    }
    hits_ += 1;
    lastUse_[i] = ++clock_;
    return frames_[i];
}

void
Tlb::insert(std::uint64_t vpage, std::uint64_t frame)
{
    // Right after a miss on this page it is known to be absent.
    std::ptrdiff_t i =
        vpage == missVpage_ && clock_ == missClock_ ? -1 : find(vpage);
    if (i < 0 && vpages_.size() < capacity_) {
        i = static_cast<std::ptrdiff_t>(vpages_.size());
        vpages_.push_back(vpage);
        frames_.push_back(frame);
        lastUse_.push_back(0);
    } else if (i < 0) {
        i = std::min_element(lastUse_.begin(), lastUse_.end()) -
            lastUse_.begin();
        vpages_[i] = vpage;
    }
    frames_[i] = frame;
    lastUse_[i] = ++clock_;
    lastFill_ = static_cast<std::size_t>(i);
}

void
Tlb::hitInstalled(std::uint64_t vpage)
{
    SDPCM_ASSERT(lastFill_ < vpages_.size() && vpages_[lastFill_] == vpage &&
                     lastUse_[lastFill_] == clock_,
                 "TLB retry hit on a page the last fill did not install");
    hits_ += 1;
}

void
Tlb::clear()
{
    vpages_.clear();
    frames_.clear();
    lastUse_.clear();
    missClock_ = ~std::uint64_t(0);
}

Mmu::Mmu(PageAllocatorSystem& allocator, const NmRatio& tag,
         unsigned page_bytes, unsigned tlb_entries)
    : allocator_(allocator),
      tag_(tag),
      pageBytes_(page_bytes),
      tlb_(tlb_entries)
{
    SDPCM_ASSERT(isPowerOfTwo(page_bytes), "page size must be 2^k");
}

Translation
Mmu::translate(std::uint64_t vaddr)
{
    Translation tr;
    tr.tag = tag_;
    const std::uint64_t vpage = vaddr / pageBytes_;
    const std::uint64_t offset = vaddr % pageBytes_;

    if (auto frame = tlb_.lookup(vpage)) {
        tr.tlbHit = true;
        tr.paddr = *frame * pageBytes_ + offset;
        return tr;
    }

    const std::uint64_t frame = table_.findOrInsert(vpage, [&] {
        auto allocated = allocator_.allocatePage(tag_);
        if (!allocated) {
            SDPCM_FATAL("out of physical memory under allocator ",
                        tag_.toString());
        }
        pageFaults_ += 1;
        tr.pageFault = true;
        return *allocated;
    });
    tlb_.insert(vpage, frame);
    tr.paddr = frame * pageBytes_ + offset;
    return tr;
}

void
Mmu::releaseAll()
{
    for (const PageIndex::Slot& s : table_.sortedSlots())
        allocator_.free(tag_, FrameBlock{s.value, 0});
    table_ = PageIndex{};
    // The TLB must not keep translating to the freed frames.
    tlb_.clear();
}

} // namespace sdpcm
