/**
 * @file
 * Trace-driven in-order core (Table 2: 8-core single-issue in-order CMP
 * at 4GHz).
 *
 * The core replays a main-memory reference stream: it retires the gap
 * instructions at 1 IPC, blocks on memory reads (an in-order core with a
 * blocking L3 miss), and posts writes to the memory controller's write
 * queue, stalling only when that queue is full. The (n:m) allocator tag
 * travels with each request via the MMU translation.
 */

#ifndef SDPCM_CPU_CORE_HH
#define SDPCM_CPU_CORE_HH

#include <cstdint>
#include <memory>

#include "controller/memctrl.hh"
#include "os/page_table.hh"
#include "sim/event_queue.hh"
#include "workload/trace.hh"

namespace sdpcm {

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t readsIssued = 0;
    std::uint64_t writesIssued = 0;
    std::uint64_t writeStalls = 0; //!< write-queue-full occurrences
    Tick startTick = 0;
    Tick finishTick = 0;
};

/** One trace-driven in-order core. */
class TraceCore
{
  public:
    TraceCore(unsigned id, EventQueue& events, MemoryController& ctrl,
              Mmu& mmu, TraceStream& stream, std::uint64_t max_refs,
              unsigned tlb_miss_cycles);

    /** Begin replaying the trace. */
    void start();

    bool done() const { return done_; }
    const CoreStats& stats() const { return stats_; }

    /** Cycles per instruction over the replayed trace. */
    double
    cpi() const
    {
        if (stats_.instructions == 0)
            return 0.0;
        return static_cast<double>(stats_.finishTick - stats_.startTick) /
               static_cast<double>(stats_.instructions);
    }

  private:
    void issueNext();
    void perform();
    void performTranslated();
    void finish();

    unsigned id_;
    EventQueue& events_;
    MemoryController& ctrl_;
    Mmu& mmu_;
    TraceStream& stream_;
    std::uint64_t maxRefs_;
    unsigned tlbMissCycles_;
    std::uint64_t refsIssued_ = 0;
    bool done_ = false;
    CoreStats stats_;
    /** The one reference in flight (an in-order core blocks on it), kept
     *  here so the scheduled continuations capture only `this`. */
    TraceRecord pending_;
    PhysAddr pendingPaddr_ = 0;
};

} // namespace sdpcm

#endif // SDPCM_CPU_CORE_HH
