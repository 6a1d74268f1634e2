/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global queue orders callbacks by tick (CPU cycles at 4GHz);
 * ties are broken by insertion order so runs are fully deterministic.
 *
 * Allocation-free in steady state: the binary heap holds small
 * {tick, seq, slot} records, and each callback lives in a slot of a
 * chunked slab whose chunks never move. A callback runs in place in its
 * slot (it may schedule further events meanwhile) and the slot returns
 * to the free list only after it returns.
 */

#ifndef SDPCM_SIM_EVENT_QUEUE_HH
#define SDPCM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/inline_function.hh"
#include "common/logging.hh"
#include "obs/profiler.hh"
#include "pcm/timing.hh"

namespace sdpcm {

/**
 * In-place capture budget of every hot-path callback (event callbacks,
 * bank-op completions, read completions, write-space waiters). Sized so
 * an InlineFunction is 48 bytes; a larger capture fails to compile.
 */
inline constexpr std::size_t kCallbackBytes = 40;

/** Tick-ordered event queue. */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), kCallbackBytes>;

    /** Schedule a callback at an absolute tick (>= now). */
    void
    schedule(Tick when, Callback cb)
    {
        SDPCM_ASSERT(when >= now_, "scheduling into the past: ", when,
                     " < ", now_);
        const std::uint32_t s = allocSlot();
        slot(s) = std::move(cb);
        heap_.push_back(Event{when, nextSeq_++, s});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Schedule a callback `delay` ticks from now. */
    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    Tick now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::uint64_t processed() const { return processed_; }

    /**
     * Install the periodic observation hook: `hook(now)` runs before the
     * first event at or after each multiple of `interval` ticks (the
     * telemetry sampler's frames). Unlike a self-rescheduling event, the
     * hook never keeps the queue alive, so a drained queue still ends
     * the run. The hook observes state only — it must not schedule
     * events or touch the hook slot. The queue has one slot: installing
     * a second hook while one is set is an error.
     */
    void
    setTickHook(Tick interval, std::function<void(Tick)> hook)
    {
        SDPCM_ASSERT(interval > 0, "tick-hook interval must be positive");
        SDPCM_ASSERT(!hook_, "a tick hook is already installed");
        hookInterval_ = interval;
        hook_ = std::move(hook);
        nextHookTick_ = (now_ / interval + 1) * interval;
    }

    /** Uninstall the tick hook (a no-op when none is set). */
    void
    clearTickHook()
    {
        hook_ = nullptr;
        nextHookTick_ = ~Tick(0);
    }

    /** Pop and run the earliest event. @return false if queue is empty. */
    bool
    runNext()
    {
        if (heap_.empty())
            return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Event ev = heap_.back();
        heap_.pop_back();
        now_ = ev.when;
        if (now_ >= nextHookTick_) {
            hook_(now_);
            nextHookTick_ = (now_ / hookInterval_ + 1) * hookInterval_;
        }
        processed_ += 1;
        {
            // Every callback body is charged to EventDispatch; the
            // instrumented subsystems below it (controller stages,
            // device scans, samplers) open their own child scopes.
            PROF_SCOPE(prof_, EventDispatch);
            // Runs in place: chunks never move, and this slot is not on
            // the free list until the callback has returned.
            slot(ev.slot)();
        }
        slot(ev.slot).reset();
        freeSlots_.push_back(ev.slot);
        return true;
    }

    /**
     * Attach the host-time profiler (null detaches). Same discipline as
     * the other observers: off means one null check per event and
     * strictly observe-only either way (obs/profiler.hh).
     */
    void setProfiler(HostProfiler* prof) { prof_ = prof; }

    /** Run until the queue drains or `max_ticks` is reached. */
    void
    run(Tick max_ticks = ~Tick(0))
    {
        while (!heap_.empty() && heap_.front().when <= max_ticks)
            runNext();
    }

  private:
    /** Heap record; the callback itself stays put in its slab slot. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Max-heap order that surfaces the earliest (tick, seq) first. */
    struct Later
    {
        bool
        operator()(const Event& a, const Event& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Callback slots per slab chunk (power of two). */
    static constexpr std::uint32_t kChunkShift = 10;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    Callback&
    slot(std::uint32_t s)
    {
        return chunks_[s >> kChunkShift][s & (kChunkSlots - 1)];
    }

    std::uint32_t
    allocSlot()
    {
        if (freeSlots_.empty()) {
            // Grow by one chunk; existing chunks (and any callback
            // running in one) stay where they are.
            const auto base = static_cast<std::uint32_t>(
                chunks_.size() << kChunkShift);
            chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
            for (std::uint32_t i = kChunkSlots; i-- > 0;)
                freeSlots_.push_back(base + i);
        }
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }

    std::vector<Event> heap_;
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    Tick nextHookTick_ = ~Tick(0);
    Tick hookInterval_ = 0;
    std::function<void(Tick)> hook_;
    HostProfiler* prof_ = nullptr;
};

} // namespace sdpcm

#endif // SDPCM_SIM_EVENT_QUEUE_HH
