/**
 * @file
 * The measuring program of the SD-PCM simulator's host-time benchmark.
 *
 * One process does one measured piece of work and prints one JSON object
 * on stdout; run.py spawns it, applies the correctness gate across
 * processes and aggregates the metrics (see README.md):
 *
 *   perfbench rep     --workload=W --seed=N [--jobs=1] [--obs=SET]
 *   perfbench probe   --workload=W --seed=N
 *   perfbench compare --workload=W --seed=N [--seconds=S]
 *
 * `rep` builds the workload's System(s) (setup time), runs them and
 * reports host CPU/wall time, refs, peak RSS and the simulated snapshot
 * of every cell. Setup is timed once per process, cold, as a user's run
 * pays it. `--jobs=1` drives each cell's System directly (per-cell CPU,
 * event counts); otherwise a multi-cell workload runs through runMatrix
 * at all host cores. `--obs` overrides the workload's observer set.
 *
 * `probe` times the pcm, os, encoding and controller layers standalone,
 * driven by the workload's own reference stream.
 *
 * `compare` interleaves short serial runs with each observer layer on,
 * and with every trace stream wrapped in a timing decorator (the
 * workload layer's trace), against runs with neither, for --seconds.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "controller/memctrl.hh"
#include "encoding/din.hh"
#include "encoding/fnw.hh"
#include "obs/json.hh"
#include "os/buddy.hh"
#include "os/page_table.hh"
#include "pcm/device.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

using namespace sdpcm;

namespace {

/** One benchmark workload: a scheme x profile matrix of cells. */
struct BenchWorkload
{
    std::vector<SchemeConfig> schemes;
    std::vector<std::string> profiles;
    std::uint64_t refsPerCore = 0;
    bool parallel = false; //!< run through runMatrix at all host cores
    std::string obs = "none";
};

constexpr unsigned kCores = 8;

BenchWorkload
workloadByName(const std::string& name)
{
    // Sizes keep one repetition near 1-2 s of host time, so a run of a
    // few tens of seconds yields enough repetitions for a stable median.
    if (name == "mcf-sdpcm")
        return {{SchemeConfig::sdpcm()}, {"mcf"}, 30000, false, "none"};
    if (name == "wrf-sdpcm")
        return {{SchemeConfig::sdpcm()}, {"wrf"}, 60000, false, "none"};
    if (name == "mcf-sdpcm-obs")
        return {{SchemeConfig::sdpcm()}, {"mcf"}, 30000, false, "all"};
    if (name == "matrix-jobs") {
        // bench_wallclock's default matrix.
        return {{SchemeConfig::baselineVnc(), SchemeConfig::lazyCPreRead(),
                 SchemeConfig::sdpcm()},
                {"mcf", "lbm", "gemsFDTD", "stream"},
                5000, true, "none"};
    }
    SDPCM_FATAL("unknown workload '", name, "'");
}

constexpr std::string_view kObserverSets[] = {
    "none", "spans", "telemetry", "ledger", "profiler", "all"};

/** Switch on one observer layer, or all (mcf-sdpcm-obs), or none. */
template <typename Config>
void
applyObservers(Config& cfg, const std::string& set)
{
    const bool all = set == "all";
    if (all || set == "spans")
        cfg.spans = true;
    if (all || set == "telemetry") {
        // As bench_wallclock's telemetry pass: a frame every 100k ticks
        // and one monitor rule that never fires.
        cfg.telemetry.intervalTicks = 100000;
        cfg.telemetry.monitorRules =
            "p99r:p99(ctrl.readLatency)<=1000000000";
    }
    if (all || set == "ledger") {
        cfg.wdLedger = true;
        cfg.lineCounters = true;
    }
    if (all || set == "profiler")
        cfg.profile = true;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * What one empty timed region reads; subtracted from per-op timings.
 * The median of several batches, so a burst of host noise during one
 * batch does not skew it.
 */
double
clockPairNs()
{
    constexpr unsigned kBatches = 21;
    constexpr unsigned kPairs = 5000;
    std::vector<double> batch_ns;
    for (unsigned b = 0; b < kBatches; ++b) {
        std::uint64_t acc = 0;
        for (unsigned i = 0; i < kPairs; ++i) {
            const std::uint64_t a = steadyNs();
            acc += steadyNs() - a;
        }
        batch_ns.push_back(static_cast<double>(acc) / kPairs);
    }
    std::nth_element(batch_ns.begin(), batch_ns.begin() + kBatches / 2,
                     batch_ns.end());
    return batch_ns[kBatches / 2];
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/** Records pulled through the decorator and host ns spent in next(). */
struct StreamTally
{
    std::uint64_t records = 0;
    std::uint64_t ns = 0;
};

/** The workload layer's trace: times every next() of the inner stream. */
class TimedStream : public TraceStream
{
  public:
    TimedStream(std::unique_ptr<TraceStream> inner, StreamTally& tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    bool
    next(TraceRecord& record) override
    {
        const std::uint64_t t0 = steadyNs();
        const bool ok = inner_->next(record);
        tally_.ns += steadyNs() - t0;
        tally_.records += ok ? 1 : 0;
        return ok;
    }

  private:
    std::unique_ptr<TraceStream> inner_;
    StreamTally& tally_;
};

/** Wrap every stream of `spec`. The tally is unsynchronised, so a
 *  decorated spec may only drive serial runs. */
WorkloadSpec
decorated(const WorkloadSpec& spec, StreamTally& tally)
{
    WorkloadSpec out;
    out.name = spec.name;
    out.makeStream = [inner = spec.makeStream,
                      &tally](unsigned core, std::uint64_t seed) {
        return std::make_unique<TimedStream>(inner(core, seed), tally);
    };
    return out;
}

std::string
cellName(const SchemeConfig& scheme, const std::string& profile)
{
    return scheme.name + "/" + profile;
}

/** Simulated results of a cell; the host-time families excluded. */
std::map<std::string, double>
simulatedValues(const RunMetrics& m)
{
    std::map<std::string, double> out = m.toSnapshot().values();
    std::erase_if(out, [](const auto& kv) {
        return kv.first.rfind("prof.", 0) == 0 ||
               kv.first.rfind("host.", 0) == 0;
    });
    return out;
}

void
writeSnapshot(JsonWriter& w, const RunMetrics& m)
{
    w.beginObject();
    for (const auto& [metric, value] : simulatedValues(m))
        w.kv(metric, value);
    w.endObject();
}

SystemConfig
systemConfig(const BenchWorkload& wl, const SchemeConfig& scheme,
             std::uint64_t seed, const std::string& obs)
{
    SystemConfig sc;
    sc.scheme = scheme;
    sc.cores = kCores;
    sc.refsPerCore = wl.refsPerCore;
    sc.seed = seed;
    applyObservers(sc, obs);
    return sc;
}

/** Host cost and results of running every cell of a workload once. */
struct CellsRun
{
    unsigned jobs = 1;
    double setupS = 0.0;
    double cpuS = 0.0;
    double wallS = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t events = 0;     //!< serial runs only
    std::vector<double> cellCpuS; //!< serial runs only
    StreamTally streams;          //!< decorated runs only
    std::uint64_t profNs = 0;     //!< profiler root inclusive time
    std::vector<RunMetrics> results; //!< matrix order
};

/**
 * Build and run every cell. Serial runs drive each cell's System
 * directly; parallel runs go through runMatrix at all host cores, with
 * setup timed on separate, serial builds of the same Systems. Returns
 * false (after a warning run.py gates on) if any core fell short.
 */
bool
runCells(const BenchWorkload& wl, std::uint64_t seed, bool serial,
         const std::string& obs, bool decorate, CellsRun& out)
{
    SDPCM_ASSERT(serial || !decorate, "decorated runs must be serial");
    const std::size_t n_cells = wl.schemes.size() * wl.profiles.size();
    std::vector<WorkloadSpec> specs;
    for (const auto& p : wl.profiles) {
        specs.push_back(decorate ? decorated(workloadFromProfile(p),
                                             out.streams)
                                 : workloadFromProfile(p));
    }
    const auto cell_config = [&](std::size_t c) {
        return systemConfig(wl, wl.schemes[c / specs.size()], seed, obs);
    };
    bool cores_done = true;
    if (serial) {
        for (std::size_t c = 0; c < n_cells; ++c) {
            const double t0 = wallSeconds();
            const auto sys = std::make_unique<System>(
                cell_config(c), specs[c % specs.size()]);
            out.setupS += wallSeconds() - t0;
            const double c0 = processCpuSeconds();
            const double w0 = wallSeconds();
            sys->run();
            out.results.push_back(sys->metrics());
            out.cellCpuS.push_back(processCpuSeconds() - c0);
            out.cpuS += out.cellCpuS.back();
            out.wallS += wallSeconds() - w0;
            out.events += sys->events().processed();
            for (const auto& core : sys->cores()) {
                out.refs += core->stats().readsIssued +
                            core->stats().writesIssued;
                cores_done = cores_done && core->done();
            }
        }
    } else {
        out.jobs = resolveJobs(0);
        for (std::size_t c = 0; c < n_cells; ++c) {
            const double t0 = wallSeconds();
            const System sys(cell_config(c), specs[c % specs.size()]);
            out.setupS += wallSeconds() - t0;
        }
        RunnerConfig rc;
        rc.cores = kCores;
        rc.refsPerCore = wl.refsPerCore;
        rc.seed = seed;
        rc.jobs = out.jobs;
        applyObservers(rc, obs);
        const double c0 = processCpuSeconds();
        const double w0 = wallSeconds();
        const std::vector<SchemeResults> matrix =
            runMatrix(wl.schemes, specs, rc);
        out.cpuS = processCpuSeconds() - c0;
        out.wallS = wallSeconds() - w0;
        for (const SchemeResults& row : matrix) {
            for (const auto& p : wl.profiles)
                out.results.push_back(row.at(p));
        }
        // runMatrix hides the cores; a cell that stopped early prints
        // System::run's "core did not finish" warning instead.
        out.refs = n_cells * kCores * wl.refsPerCore;
    }
    for (const RunMetrics& m : out.results) {
        if (m.prof.enabled)
            out.profNs += m.prof.totalNs();
    }
    if (!cores_done || out.refs != n_cells * kCores * wl.refsPerCore) {
        SDPCM_WARN("core did not finish: ", out.refs, " refs issued of ",
                   n_cells * kCores * wl.refsPerCore);
        return false;
    }
    return true;
}

template <typename T>
void
writeArray(JsonWriter& w, std::string_view key, const std::vector<T>& values)
{
    w.key(key).beginArray();
    for (const T v : values)
        w.value(v);
    w.endArray();
}

void
writeCellSnapshots(JsonWriter& w, const BenchWorkload& wl,
                   const std::vector<RunMetrics>& results)
{
    w.key("snapshot").beginObject();
    for (std::size_t c = 0; c < results.size(); ++c) {
        w.key(cellName(wl.schemes[c / wl.profiles.size()],
                       wl.profiles[c % wl.profiles.size()]));
        writeSnapshot(w, results[c]);
    }
    w.endObject();
}

int
cmdRep(const BenchWorkload& wl, std::uint64_t seed, bool serial,
       const std::string& obs)
{
    CellsRun run;
    if (!runCells(wl, seed, serial, obs, false, run))
        return 1;
    JsonWriter w(std::cout, false);
    w.beginObject();
    w.kv("obs", obs);
    w.kv("jobs", static_cast<std::uint64_t>(run.jobs));
    w.kv("cells", static_cast<std::uint64_t>(run.results.size()));
    w.kv("refs", run.refs);
    w.kv("cpu_s", run.cpuS);
    w.kv("wall_s", run.wallS);
    w.kv("setup_s", run.setupS);
    w.kv("peak_rss_kb", peakRssKb());
    if (serial) {
        w.kv("events", run.events);
        writeArray(w, "cell_cpu_s", run.cellCpuS);
    }
    writeCellSnapshots(w, wl, run.results);
    w.endObject();
    std::cout << "\n";
    return 0;
}

/** One configuration interleaved by the compare command. */
struct CompareConfig
{
    const char* name;
    const char* obs;
    bool decorate;
};

constexpr CompareConfig kCompareConfigs[] = {
    {"base", "none", false},        {"decorated", "none", true},
    {"spans", "spans", false},      {"telemetry", "telemetry", false},
    {"ledger", "ledger", false},    {"profiler", "profiler", false},
    {"all", "all", false},
};
constexpr std::size_t kNumCompareConfigs = std::size(kCompareConfigs);

/**
 * Host noise here moves single runs by tens of percent over seconds, so
 * cost ratios come from many short serial runs of every configuration,
 * interleaved in rounds (rotating which goes first), at a tenth of the
 * workload's refs per core. Each round yields one CPU time per config.
 */
int
cmdCompare(const BenchWorkload& full, std::uint64_t seed, double seconds)
{
    BenchWorkload wl = full;
    wl.refsPerCore = std::max<std::uint64_t>(full.refsPerCore / 10, 1);
    struct Series
    {
        std::vector<double> cpuS;
        std::vector<double> nextNs;
        std::vector<std::uint64_t> profNs;
        std::uint64_t records = 0;
        std::vector<RunMetrics> first;
        bool repeatable = true;
    };
    std::vector<Series> series(kNumCompareConfigs);
    const double clock_ns = clockPairNs();
    const double start = wallSeconds();
    std::size_t rounds = 0;
    while (rounds == 0 || wallSeconds() - start < seconds) {
        for (std::size_t i = 0; i < kNumCompareConfigs; ++i) {
            const std::size_t k = (rounds + i) % kNumCompareConfigs;
            const CompareConfig& cfg = kCompareConfigs[k];
            CellsRun run;
            if (!runCells(wl, seed, true, cfg.obs, cfg.decorate, run))
                return 1;
            Series& s = series[k];
            s.cpuS.push_back(run.cpuS);
            s.profNs.push_back(run.profNs);
            if (cfg.decorate) {
                s.records = run.streams.records;
                s.nextNs.push_back(
                    (static_cast<double>(run.streams.ns) -
                     clock_ns * static_cast<double>(run.streams.records)) /
                    static_cast<double>(run.streams.records));
            }
            if (s.first.empty()) {
                s.first = std::move(run.results);
                continue;
            }
            for (std::size_t c = 0; c < s.first.size(); ++c) {
                s.repeatable = s.repeatable &&
                               simulatedValues(s.first[c]) ==
                                   simulatedValues(run.results[c]);
            }
        }
        rounds += 1;
    }

    JsonWriter w(std::cout, false);
    w.beginObject();
    w.kv("rounds", static_cast<std::uint64_t>(rounds));
    w.kv("refs_per_core", wl.refsPerCore);
    w.key("configs").beginObject();
    for (std::size_t k = 0; k < kNumCompareConfigs; ++k) {
        const Series& s = series[k];
        w.key(kCompareConfigs[k].name).beginObject();
        writeArray(w, "cpu_s", s.cpuS);
        writeArray(w, "prof_ns", s.profNs);
        writeArray(w, "next_ns", s.nextNs);
        w.kv("records", s.records);
        w.kv("repeatable", s.repeatable);
        writeCellSnapshots(w, wl, s.first);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << "\n";
    return 0;
}

/** One translated reference of the workload's own stream. */
struct Access
{
    PhysAddr paddr = 0;
    bool isWrite = false;
    double flipDensity = 0.0;
};

/** Totals of the per-layer probes, summed over a workload's cells. */
struct ProbeTotals
{
    // os
    std::uint64_t translations = 0;
    double translateNs = 0.0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t pagesMapped = 0;
    // pcm
    std::uint64_t reads = 0;
    double readNs = 0.0;
    std::uint64_t writes = 0;
    double writeNs = 0.0;
    std::uint64_t rounds = 0;
    double roundNs = 0.0;
    std::uint64_t lineReads = 0;
    std::uint64_t lineWrites = 0;
    std::uint64_t wdFlips = 0;
    std::uint64_t touchedLines = 0;
    // encoding
    std::uint64_t encodes = 0;
    double dinNs = 0.0;
    double fnwNs = 0.0;
    // controller
    std::uint64_t requests = 0;
    double ctrlCpuS = 0.0;
    CtrlStats ctrl;
};

DeviceConfig
deviceConfig(const SchemeConfig& scheme, std::uint64_t seed)
{
    // As System builds it (sim/system.cc).
    const SystemConfig sc;
    DeviceConfig dc;
    dc.geometry = sc.geometry;
    dc.timing = sc.timing;
    dc.rates = System::ratesFor(scheme, sc.thermal);
    dc.ecpEntries = scheme.ecpEntries;
    dc.dinEnabled = !scheme.fnwEncoding;
    dc.fnwEnabled = scheme.fnwEncoding;
    dc.din = sc.din;
    dc.aging = sc.aging;
    dc.seed = seed;
    return dc;
}

/**
 * The os layer: per-core MMUs over one allocator, translating the
 * cores' streams interleaved round-robin (as concurrent cores would).
 */
std::vector<Access>
probeOs(const SchemeConfig& scheme, const WorkloadSpec& spec,
        std::uint64_t refs_per_core, std::uint64_t seed, double clock_ns,
        ProbeTotals& t)
{
    const SystemConfig sc;
    std::vector<std::vector<TraceRecord>> records(kCores);
    for (unsigned c = 0; c < kCores; ++c) {
        auto stream = spec.makeStream(c, seed);
        TraceRecord r;
        while (records[c].size() < refs_per_core && stream->next(r))
            records[c].push_back(r);
    }
    PageAllocatorSystem allocator(sc.geometry);
    std::vector<std::unique_ptr<Mmu>> mmus;
    for (unsigned c = 0; c < kCores; ++c) {
        mmus.push_back(std::make_unique<Mmu>(
            allocator, scheme.defaultTag, sc.geometry.rowBytes,
            sc.tlbEntries));
    }
    std::vector<Access> out;
    out.reserve(kCores * refs_per_core);
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < refs_per_core; ++i) {
        for (unsigned c = 0; c < kCores; ++c) {
            if (i >= records[c].size())
                continue;
            const TraceRecord& r = records[c][i];
            const std::uint64_t t0 = steadyNs();
            const Translation tr = mmus[c]->translate(r.vaddr);
            ns += steadyNs() - t0;
            out.push_back({tr.paddr, r.isWrite, r.flipDensity});
        }
    }
    t.translations += out.size();
    t.translateNs += static_cast<double>(ns) -
                     clock_ns * static_cast<double>(out.size());
    for (const auto& mmu : mmus) {
        t.tlbMisses += mmu->tlb().misses();
        t.pagesMapped += mmu->mappedPages();
    }
    return out;
}

/** Flip ~density * 512 random bits (the controller's payload model). */
LineData
mutate(const LineData& base, double density, Rng& rng)
{
    LineData out = base;
    const unsigned flips =
        static_cast<unsigned>(density * kLineBits + 0.5);
    for (unsigned i = 0; i < flips; ++i)
        out.flipBit(static_cast<unsigned>(rng.below(kLineBits)));
    return out;
}

/** The pcm layer: a standalone device read and written directly. */
void
probePcm(const SchemeConfig& scheme, const std::vector<Access>& accesses,
         std::uint64_t seed, double clock_ns, ProbeTotals& t)
{
    PcmDevice dev(deviceConfig(scheme, seed));
    Rng rng(seed ^ 0xbe7c4ULL);
    PcmDevice::WritePlan plan;
    PcmDevice::RoundOutcome outcome;
    for (const Access& a : accesses) {
        const LineAddr la = dev.addressMap().decode(a.paddr);
        if (!a.isWrite) {
            const std::uint64_t t0 = steadyNs();
            dev.readLine(la);
            t.readNs += static_cast<double>(steadyNs() - t0) - clock_ns;
            t.reads += 1;
            continue;
        }
        const LineData payload =
            mutate(dev.peekLine(la), a.flipDensity, rng);
        std::uint64_t round_ns = 0;
        unsigned rounds = 0;
        const std::uint64_t t0 = steadyNs();
        dev.planWriteInto(plan, la, payload);
        for (;;) {
            const std::uint64_t r0 = steadyNs();
            const bool applied = dev.applyNextRound(plan, outcome);
            round_ns += steadyNs() - r0;
            if (!applied)
                break;
            rounds += 1;
        }
        dev.finishWrite(plan);
        const std::uint64_t t1 = steadyNs();
        // The final applyNextRound call only reports completion.
        t.writeNs += static_cast<double>(t1 - t0) -
                     clock_ns * (rounds + 2);
        t.roundNs += static_cast<double>(round_ns) -
                     clock_ns * (rounds + 1);
        t.rounds += rounds;
        t.writes += 1;
    }
    const DeviceStats& ds = dev.stats();
    t.lineReads += ds.lineReads;
    t.lineWrites += ds.lineWrites;
    t.wdFlips += ds.wlDisturbances + ds.blDisturbances;
    t.touchedLines += dev.touchedLines();
}

/** Keeps the timed encodes observable, so none can be optimised away. */
volatile std::uint64_t g_encodeSink = 0;

/** The encoding layer: DIN and FNW at the stream's flip densities. */
void
probeEncoding(const std::vector<Access>& accesses, std::uint64_t seed,
              ProbeTotals& t)
{
    Rng rng(seed ^ 0xe2c0dULL);
    std::vector<std::pair<LineData, LineData>> pairs; // (new, old)
    for (const Access& a : accesses) {
        if (!a.isWrite)
            continue;
        const LineData old = LineData::randomFromKey(rng.next64());
        pairs.emplace_back(mutate(old, a.flipDensity, rng), old);
    }
    const DinEncoder din;
    const FnwEncoder fnw;
    std::uint64_t sink = 0;
    std::uint64_t t0 = steadyNs();
    for (const auto& [next, old] : pairs)
        sink += din.encode(next, old).flags;
    t.dinNs += static_cast<double>(steadyNs() - t0);
    t0 = steadyNs();
    for (const auto& [next, old] : pairs)
        sink += fnw.encode(next, old).flags;
    t.fnwNs += static_cast<double>(steadyNs() - t0);
    t.encodes += pairs.size();
    g_encodeSink = sink;
}

/**
 * The controller layer: a core-less event queue + device + controller,
 * fed the stream through submitRead/submitWrite with at most one
 * outstanding read per core, then run until no event is left.
 */
bool
probeController(const SchemeConfig& scheme,
                const std::vector<Access>& accesses, std::uint64_t seed,
                ProbeTotals& t)
{
    EventQueue events;
    PcmDevice dev(deviceConfig(scheme, seed));
    MemoryController ctrl(events, dev, scheme, seed);
    unsigned outstanding = 0;
    std::uint64_t completed = 0;
    std::uint64_t reads = 0;
    const double c0 = processCpuSeconds();
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        const Access& a = accesses[i];
        const unsigned core = static_cast<unsigned>(i % kCores);
        if (!a.isWrite) {
            while (outstanding >= kCores) {
                if (!events.runNext())
                    return false;
            }
            outstanding += 1;
            reads += 1;
            ctrl.submitRead(a.paddr, core,
                            [&outstanding, &completed](const LineData&) {
                                outstanding -= 1;
                                completed += 1;
                            });
            continue;
        }
        while (!ctrl.canAcceptWrite(a.paddr)) {
            if (!events.runNext())
                return false;
        }
        if (!ctrl.submitWrite(a.paddr, scheme.defaultTag, core,
                              a.flipDensity))
            return false;
    }
    events.run();
    t.ctrlCpuS += processCpuSeconds() - c0;
    t.requests += accesses.size();
    const CtrlStats& s = ctrl.stats();
    t.ctrl.readsServiced += s.readsServiced;
    t.ctrl.writesCompleted += s.writesCompleted;
    t.ctrl.verifyReads += s.verifyReads;
    t.ctrl.correctionWrites += s.correctionWrites;
    t.ctrl.writeDrains += s.writeDrains;
    t.ctrl.preReadsIssued += s.preReadsIssued;
    t.ctrl.preReadsUseful += s.preReadsUseful;
    return completed == reads;
}

int
cmdProbe(const BenchWorkload& wl, std::uint64_t seed)
{
    const double clock_ns = clockPairNs();
    ProbeTotals t;
    for (const SchemeConfig& scheme : wl.schemes) {
        for (const std::string& profile : wl.profiles) {
            const std::vector<Access> accesses =
                probeOs(scheme, workloadFromProfile(profile),
                        wl.refsPerCore, seed, clock_ns, t);
            probePcm(scheme, accesses, seed, clock_ns, t);
            probeEncoding(accesses, seed, t);
            if (!probeController(scheme, accesses, seed, t)) {
                SDPCM_WARN("controller probe stalled on ",
                           cellName(scheme, profile));
                return 1;
            }
        }
    }
    const auto per = [](double total, std::uint64_t n) {
        return total / static_cast<double>(std::max<std::uint64_t>(n, 1));
    };
    JsonWriter w(std::cout, false);
    w.beginObject();
    w.kv("os.translate_ns", per(t.translateNs, t.translations));
    w.kv("os.tlb_miss_ratio",
         per(static_cast<double>(t.tlbMisses), t.translations));
    w.kv("os.pages_mapped", t.pagesMapped);
    w.kv("pcm.read_ns", per(t.readNs, t.reads));
    w.kv("pcm.write_ns", per(t.writeNs, t.writes));
    w.kv("pcm.round_ns", per(t.roundNs, t.rounds));
    w.kv("pcm.line_reads", t.lineReads);
    w.kv("pcm.line_writes", t.lineWrites);
    w.kv("pcm.wd_flips", t.wdFlips);
    w.kv("pcm.touched_lines", t.touchedLines);
    w.kv("encoding.din_encode_ns", per(t.dinNs, t.encodes));
    w.kv("encoding.fnw_encode_ns", per(t.fnwNs, t.encodes));
    w.kv("ctrl.cpu_ns_per_request", per(t.ctrlCpuS * 1e9, t.requests));
    w.kv("ctrl.reads", t.ctrl.readsServiced);
    w.kv("ctrl.writes", t.ctrl.writesCompleted);
    w.kv("ctrl.verify_reads", t.ctrl.verifyReads);
    w.kv("ctrl.corrections", t.ctrl.correctionWrites);
    w.kv("ctrl.drains", t.ctrl.writeDrains);
    w.kv("ctrl.corrections_per_write",
         per(static_cast<double>(t.ctrl.correctionWrites),
             t.ctrl.writesCompleted));
    w.kv("ctrl.preread_useful_ratio",
         per(static_cast<double>(t.ctrl.preReadsUseful),
             t.ctrl.preReadsIssued));
    w.endObject();
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench rep|probe|compare --workload=W "
                     "--seed=N [--jobs=1] [--obs=SET] [--seconds=S]\n";
        return 2;
    }
    const std::string cmd = argv[1];
    ArgParser args(argc - 1, argv + 1);
    const BenchWorkload wl = workloadByName(args.getString("workload", ""));
    const std::int64_t seed = args.getInt("seed", 1);
    if (seed < 0)
        SDPCM_FATAL("--seed must be non-negative");
    const std::uint64_t useed = static_cast<std::uint64_t>(seed);
    setLogLevel(LogLevel::Warn);
    if (cmd == "probe") {
        args.finishParsing();
        return cmdProbe(wl, useed);
    }
    if (cmd == "compare") {
        const double seconds = args.getDouble("seconds", 10.0);
        args.finishParsing();
        return cmdCompare(wl, useed, seconds);
    }
    if (cmd != "rep")
        SDPCM_FATAL("unknown command '", cmd, "'");
    const std::int64_t jobs = args.getInt("jobs", 0);
    if (jobs != 0 && jobs != 1)
        SDPCM_FATAL("--jobs takes 1 (serial) or 0 (the workload's own)");
    const std::string obs = args.getString("obs", wl.obs);
    if (std::find(std::begin(kObserverSets), std::end(kObserverSets),
                  obs) == std::end(kObserverSets)) {
        SDPCM_FATAL("unknown observer set '", obs, "'");
    }
    args.finishParsing();
    return cmdRep(wl, useed, jobs == 1 || !wl.parallel, obs);
}
