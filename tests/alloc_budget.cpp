/**
 * @file
 * Steady-state heap-allocation budget of the simulator's hot path.
 *
 * A counting global operator new wraps malloc. One short SD-PCM System
 * replays a prefix of each core's mcf stream twice: the first pass maps
 * every page and materialises every line (first touch legitimately
 * grows the sparse stores: page tables, the buddy free lists, line
 * state chunks, per-line ECP tables), and by its end the queues,
 * scratch buffers and event slab have reached their working size. Once
 * every core is in its second pass a tick hook samples (events
 * processed, allocations made), and that window must stay within
 * kMaxAllocsPerEvent heap allocations per processed event.
 *
 * `alloc_budget ledger` measures the same replay with the WD ledger
 * and per-line counters on (perfbench's `ledger` observer set): the
 * ledger's pending-flip slab, line index and blame table must reach
 * their working size in the first pass as well.
 *
 * Exits 0 within budget, 1 over it (with the measured rate).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "sim/system.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void*
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t size = (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, size ? size : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void*
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void*
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

constexpr double kMaxAllocsPerEvent = 0.05;
constexpr unsigned kCores = 8;
constexpr std::uint64_t kRefsPerPass = 4000;

/** Cores that have started their second pass. */
unsigned g_secondPass = 0;

/** Replays the first kRefsPerPass records of a stream twice. */
class ReplayTwice : public sdpcm::TraceStream
{
  public:
    explicit ReplayTwice(std::unique_ptr<sdpcm::TraceStream> inner)
    {
        records_.resize(kRefsPerPass);
        for (auto& r : records_) {
            if (!inner->next(r))
                std::abort();
        }
    }

    bool
    next(sdpcm::TraceRecord& record) override
    {
        if (pos_ == records_.size()) {
            if (secondPass_)
                return false;
            secondPass_ = true;
            pos_ = 0;
            g_secondPass += 1;
        }
        record = records_[pos_++];
        return true;
    }

  private:
    std::vector<sdpcm::TraceRecord> records_;
    std::size_t pos_ = 0;
    bool secondPass_ = false;
};

struct Sample
{
    std::uint64_t events;
    std::uint64_t allocs;
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace sdpcm;
    const bool ledger = argc > 1 && std::strcmp(argv[1], "ledger") == 0;
    SystemConfig cfg;
    cfg.scheme = SchemeConfig::sdpcm();
    cfg.cores = kCores;
    cfg.refsPerCore = 2 * kRefsPerPass;
    cfg.seed = 3;
    cfg.wdLedger = ledger;
    cfg.lineCounters = ledger;
    const WorkloadSpec mcf = workloadFromProfile("mcf");
    WorkloadSpec replay;
    replay.name = "mcf-replay";
    replay.makeStream = [&mcf](unsigned core, std::uint64_t seed) {
        return std::unique_ptr<TraceStream>(
            new ReplayTwice(mcf.makeStream(core, seed)));
    };
    System system(cfg, replay);

    std::vector<Sample> samples;
    samples.reserve(1 << 16);
    EventQueue& events = system.events();
    events.setTickHook(10000, [&](Tick) {
        if (g_secondPass == kCores && samples.size() < samples.capacity()) {
            samples.push_back(
                Sample{events.processed(),
                       g_allocs.load(std::memory_order_relaxed)});
        }
    });
    system.run();

    if (samples.size() < 4) {
        std::fprintf(stderr, "alloc_budget: only %zu samples\n",
                     samples.size());
        return 1;
    }
    const Sample& from = samples.front();
    const Sample& to = samples.back();
    const double n_events = static_cast<double>(to.events - from.events);
    const double n_allocs = static_cast<double>(to.allocs - from.allocs);
    const double rate = n_events > 0 ? n_allocs / n_events : 0.0;
    std::printf("alloc_budget%s: %.0f allocations over %.0f events "
                "(%.4f per event, budget %.2f)\n",
                ledger ? " (ledger)" : "", n_allocs, n_events, rate,
                kMaxAllocsPerEvent);
    if (n_events <= 0 || rate > kMaxAllocsPerEvent) {
        std::fprintf(stderr, "alloc_budget: over budget\n");
        return 1;
    }
    return 0;
}
