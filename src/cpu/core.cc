#include "cpu/core.hh"

namespace sdpcm {

TraceCore::TraceCore(unsigned id, EventQueue& events,
                     MemoryController& ctrl, Mmu& mmu, TraceStream& stream,
                     std::uint64_t max_refs, unsigned tlb_miss_cycles)
    : id_(id),
      events_(events),
      ctrl_(ctrl),
      mmu_(mmu),
      stream_(stream),
      maxRefs_(max_refs),
      tlbMissCycles_(tlb_miss_cycles)
{}

void
TraceCore::start()
{
    stats_.startTick = events_.now();
    issueNext();
}

void
TraceCore::finish()
{
    done_ = true;
    stats_.finishTick = events_.now();
}

void
TraceCore::issueNext()
{
    if (refsIssued_ >= maxRefs_) {
        finish();
        return;
    }
    TraceRecord record;
    if (!stream_.next(record)) {
        finish();
        return;
    }
    refsIssued_ += 1;
    stats_.instructions += record.gap + 1;
    pending_ = record;
    // Retire the gap instructions at 1 IPC, then access memory.
    events_.scheduleAfter(record.gap, [this] { perform(); });
}

void
TraceCore::perform()
{
    const Translation tr = mmu_.translate(pending_.vaddr);
    pendingPaddr_ = tr.paddr;
    if (!tr.tlbHit && tlbMissCycles_ > 0) {
        // Charge the page-table walk, then retry with a warm TLB. The
        // MMU is this core's own, so the retry is a hit on the entry
        // the miss installed and translates to the same address.
        events_.scheduleAfter(tlbMissCycles_, [this] {
            mmu_.retryAfterWalk(pending_.vaddr);
            performTranslated();
        });
        return;
    }
    performTranslated();
}

void
TraceCore::performTranslated()
{
    const TraceRecord& record = pending_;
    const PhysAddr paddr = pendingPaddr_;
    if (!record.isWrite) {
        stats_.readsIssued += 1;
        ctrl_.submitRead(paddr, id_,
                         [this](const LineData&) { issueNext(); });
        return;
    }

    if (ctrl_.submitWrite(paddr, mmu_.tag(), id_, record.flipDensity)) {
        stats_.writesIssued += 1;
        issueNext();
        return;
    }
    // Write queue full: stall until space frees, then retry.
    stats_.writeStalls += 1;
    ctrl_.onWriteSpace(paddr, [this] { performTranslated(); });
}

} // namespace sdpcm
