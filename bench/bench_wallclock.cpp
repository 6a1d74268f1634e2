/**
 * @file
 * Wall-clock harness for the parallel run-matrix executor: times the
 * same scheme x workload matrix serially (--jobs=1) and parallel
 * (--jobs=N, default all host cores), checks the results are
 * bit-identical, and writes BENCH_parallel.json so the perf trajectory
 * is tracked across PRs.
 *
 *   bench_wallclock [--refs=N] [--jobs=N] [--full] [--out=FILE]
 *                   [--baseline=FILE]
 *
 * Default matrix: 3 schemes x 4 workloads (fast smoke at --refs=2000,
 * the quick-bench CMake target). --full runs the fig11 7-scheme matrix
 * over all 9 Table 3 workloads.
 *
 * The passes are one table: a third serial pass runs with span
 * attribution ON, a fourth with streaming telemetry + SLO monitors ON,
 * a fifth with the WD provenance ledger + per-line wear counters ON and
 * a sixth with the host-time self-profiler ON, guarding the
 * observability promises: every pre-existing metric stays bit-identical
 * (spans, telemetry, the ledger and the profiler observe, never
 * perturb), and the everything-off path keeps its speed — pass
 * --baseline=FILE (a previous BENCH_parallel.json of the same run
 * shape: refs_per_core, cores, seed and matrix dimensions must match,
 * or the bench stops before any pass runs) to fail the bench if the
 * observability-off serial wall-clock regressed more than 2%, or if
 * the profiler-on pass costs more than 2% over the same run's
 * profiler-off serial pass. Each pass writes the outputs of the
 * observer it turns on through the shared finisher.
 */

#include <chrono>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_common.hh"
#include "obs/json.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

namespace {

double
timedMatrix(const std::vector<SchemeConfig>& schemes,
            const std::vector<WorkloadSpec>& workloads,
            const RunnerConfig& cfg, std::vector<SchemeResults>& out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = runMatrix(schemes, workloads, cfg);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

bool
identicalResults(const std::vector<SchemeResults>& a,
                 const std::vector<SchemeResults>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        for (const auto& [name, metrics] : a[s].byWorkload) {
            const auto it = b[s].byWorkload.find(name);
            if (it == b[s].byWorkload.end())
                return false;
            if (metrics.toSnapshot().values() !=
                it->second.toSnapshot().values()) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Every metric of `base` must exist bit-identical in `super` (which may
 * add metrics — the span.* / telemetry.* / mon.* families). Proves the
 * observer only observes: any simulation perturbation shows up as a
 * changed counter.
 */
bool
subsetIdentical(const std::vector<SchemeResults>& base,
                const std::vector<SchemeResults>& super,
                const char* label)
{
    if (base.size() != super.size())
        return false;
    bool ok = true;
    for (std::size_t s = 0; s < base.size(); ++s) {
        for (const auto& [name, metrics] : base[s].byWorkload) {
            const auto it = super[s].byWorkload.find(name);
            if (it == super[s].byWorkload.end())
                return false;
            const auto base_snap = metrics.toSnapshot();
            const auto super_snap = it->second.toSnapshot();
            const auto& sup = super_snap.values();
            for (const auto& [metric, value] : base_snap.values()) {
                const auto mv = sup.find(metric);
                if (mv == sup.end() || mv->second != value) {
                    SDPCM_WARN(label, " run perturbed ",
                               base[s].scheme, "/", name, "/", metric);
                    ok = false;
                }
            }
        }
    }
    return ok;
}

/**
 * serial_seconds of a previous BENCH_parallel.json. Wall-clock compares
 * only across runs of one shape, so SDPCM_FATAL unless the baseline's
 * refs_per_core, cores, seed and matrix dimensions equal this run's.
 */
double
baselineSerialSeconds(const std::string& path, const RunnerConfig& cfg,
                      std::size_t schemes, std::size_t workloads)
{
    std::ifstream is(path);
    if (!is)
        SDPCM_FATAL("cannot open baseline: ", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    const JsonValue doc = parseJson(buf.str());
    const auto number = [&](const char* key) {
        if (!doc.has(key) || doc.at(key).type != JsonValue::Type::Number)
            SDPCM_FATAL("baseline ", path, " has no ", key);
        return doc.at(key).number;
    };
    const std::pair<const char*, double> shape[] = {
        {"refs_per_core", static_cast<double>(cfg.refsPerCore)},
        {"cores", static_cast<double>(cfg.cores)},
        {"seed", static_cast<double>(cfg.seed)},
        {"schemes", static_cast<double>(schemes)},
        {"workloads", static_cast<double>(workloads)},
    };
    for (const auto& [key, ours] : shape) {
        if (number(key) != ours) {
            SDPCM_FATAL("baseline ", path, " ran with ", key, "=",
                        number(key), " but this run has ", key, "=",
                        ours, "; wall-clock compares only runs of the "
                        "same shape");
        }
    }
    return number("serial_seconds");
}

/** What a pass's results must match in the serial reference pass. */
enum class Check
{
    Reference,   //!< the serial pass itself
    Identical,   //!< every metric, and no more
    ObserveOnly, //!< every reference metric; the pass may add its own
};

/** One timed pass over the matrix. */
struct Pass
{
    std::string name;
    /** Turns the everything-off serial config into this pass's. */
    std::function<void(RunnerConfig&)> mutate;
    Check check;
    /** The run report comes from this pass (the widest schema). */
    bool report = false;
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    const RunArgs run = parseRunArgs(args, "REPORT_wallclock.json", 2000);
    const RunnerConfig& cfg = run.cfg;
    const bool full = args.has("full");
    const std::string out_path =
        args.getString("out", "BENCH_parallel.json");
    const std::string baseline_path = args.getString("baseline", "");
    args.finishParsing();

    std::vector<SchemeConfig> schemes;
    std::vector<WorkloadSpec> workloads;
    if (full) {
        schemes = {SchemeConfig::din8F2(),
                   SchemeConfig::baselineVnc(),
                   SchemeConfig::lazyC(),
                   SchemeConfig::lazyCPreRead(),
                   SchemeConfig::lazyCNm(NmRatio{2, 3}),
                   SchemeConfig::lazyCPreReadNm(NmRatio{2, 3}),
                   SchemeConfig::nmOnly(NmRatio{1, 2})};
        workloads = standardWorkloads();
    } else {
        schemes = {SchemeConfig::baselineVnc(),
                   SchemeConfig::lazyCPreRead(),
                   SchemeConfig::sdpcm()};
        workloads = {workloadFromProfile("mcf"),
                     workloadFromProfile("lbm"),
                     workloadFromProfile("gemsFDTD"),
                     workloadFromProfile("stream")};
    }
    const unsigned jobs = resolveJobs(cfg.jobs);
    banner("Wall-clock: serial vs parallel matrix", cfg);
    std::cout << schemes.size() << " schemes x " << workloads.size()
              << " workloads\n\n";
    const double base_s = baseline_path.empty()
        ? 0.0
        : baselineSerialSeconds(baseline_path, cfg, schemes.size(),
                                workloads.size());

    // The harness owns the observability knobs: every pass starts from
    // the everything-off serial config regardless of --spans,
    // --telemetry-*, --wd-ledger or --profile, and turns on only its
    // own observer. --profile in particular must not leak into the
    // reference: it would put nondeterministic host-clock prof.*
    // metrics into the reference snapshots, failing every identity
    // gate, and turn the profiler's overhead into a no-op comparison.
    const std::vector<Pass> passes = {
        {"serial", [](RunnerConfig&) {}, Check::Reference},
        {"parallel", [&](RunnerConfig& c) { c.jobs = jobs; },
         Check::Identical},
        {"spans", [](RunnerConfig& c) { c.spans = true; },
         Check::ObserveOnly},
        // Registry polling + windowed sketches + a monitor rule that
        // never fires, so the whole frame path runs. No stream file:
        // this times the sampling machinery, not disk I/O.
        {"telemetry",
         [](RunnerConfig& c) {
             c.telemetry.intervalTicks = 100000;
             c.telemetry.monitorRules =
                 "p99r:p99(ctrl.readLatency)<=1000000000";
         },
         Check::ObserveOnly},
        // WD provenance plus per-line wear counters (the wear.* metrics
        // need them). It keeps every shared metric bit-identical and
        // adds the wd.* / wear.* families, so the report comes from it.
        {"ledger",
         [](RunnerConfig& c) {
             c.wdLedger = true;
             c.lineCounters = true;
         },
         Check::ObserveOnly, true},
        // The profiler's only observable work is reading the host
        // clock, so every simulation metric must stay bit-identical.
        {"profiler", [](RunnerConfig& c) { c.profile = true; },
         Check::ObserveOnly},
    };
    RunnerConfig off = cfg;
    off.jobs = 1;
    off.spans = false;
    off.telemetry = TelemetryConfig{};
    off.wdLedger = false;
    off.profile = false;
    std::vector<RunnerConfig> configs;
    std::vector<std::vector<SchemeResults>> results;
    std::vector<double> seconds;
    for (const Pass& pass : passes) {
        RunnerConfig& pass_cfg = configs.emplace_back(off);
        pass.mutate(pass_cfg);
        seconds.push_back(timedMatrix(schemes, workloads, pass_cfg,
                                      results.emplace_back()));
    }

    const double serial_s = seconds[0];
    const double parallel_s = seconds[1];
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    ReportEnvironment figures;
    ReportEnvironment gates;
    bool all_clean = true;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const std::string& name = passes[i].name;
        const Check check = passes[i].check;
        const double overhead =
            serial_s > 0.0 ? seconds[i] / serial_s - 1.0 : 0.0;
        std::cout << name << ": " << TablePrinter::fmt(seconds[i], 3)
                  << " s";
        if (check == Check::Identical)
            std::cout << "  (" << jobs << " jobs)";
        if (check == Check::ObserveOnly) {
            std::cout << "  serial (" << TablePrinter::pct(overhead, 1)
                      << " overhead)";
        }
        std::cout << "\n";
        figures.emplace_back(name + (check == Check::ObserveOnly
                                         ? "_serial_seconds"
                                         : "_seconds"),
                             seconds[i]);
        if (check == Check::Reference)
            continue;
        const bool clean = check == Check::Identical
            ? identicalResults(results[0], results[i])
            : subsetIdentical(results[0], results[i],
                              (name + "-on").c_str());
        if (!clean) {
            SDPCM_WARN(name, " pass differs from the serial reference "
                       "on shared metrics — ",
                       check == Check::Identical
                           ? "determinism regression!"
                           : "the observer perturbed the simulation!");
        }
        all_clean = all_clean && clean;
        gates.emplace_back(check == Check::Identical
                               ? "identical"
                               : name + "_observe_only",
                           clean ? 1.0 : 0.0);
    }
    figures.emplace_back("speedup", speedup);
    std::cout << "speedup: " << TablePrinter::fmt(speedup, 2) << "x\n";
    for (const auto& [gate, clean] : gates)
        std::cout << gate << ": " << (clean != 0.0 ? "yes" : "NO") << "\n";

    bool baseline_ok = true;
    if (!baseline_path.empty()) {
        const double rel = base_s > 0.0 ? serial_s / base_s - 1.0 : 0.0;
        std::cout << "baseline : " << TablePrinter::fmt(base_s, 3)
                  << " s spans-off serial ("
                  << TablePrinter::pct(rel, 1) << " vs this run)\n";
        if (rel > 0.02) {
            baseline_ok = false;
            std::cout << "FAIL: spans-off wall-clock regressed "
                      << TablePrinter::pct(rel, 1) << " > 2% vs "
                      << baseline_path
                      << " — the compile-time-off promise is broken\n";
        }
        // Gate the profiler's own cost under the same flag: gating it
        // unconditionally would make every run hostage to wall-clock
        // noise, but a --baseline run has opted into timing assertions.
        // The profiler pass is the last in the table.
        const double prof_overhead =
            serial_s > 0.0 ? seconds.back() / serial_s - 1.0 : 0.0;
        if (prof_overhead > 0.02) {
            baseline_ok = false;
            std::cout << "FAIL: profiler-on pass cost "
                      << TablePrinter::pct(prof_overhead, 1)
                      << " > 2% over the profiler-off serial pass — "
                         "the observe-only overhead promise is broken\n";
        }
    }

    std::ofstream os(out_path);
    if (!os)
        SDPCM_FATAL("cannot open ", out_path);
    os << "{\n"
       << "  \"refs_per_core\": " << cfg.refsPerCore << ",\n"
       << "  \"cores\": " << cfg.cores << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"schemes\": " << schemes.size() << ",\n"
       << "  \"workloads\": " << workloads.size() << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency();
    for (const auto& [key, value] : figures)
        os << ",\n  \"" << key << "\": " << value;
    for (const auto& [key, clean] : gates)
        os << ",\n  \"" << key << "\": " << (clean != 0.0 ? "true" : "false");
    os << "\n}\n";
    SDPCM_PROGRESS("written to ", out_path);

    // Each pass's outputs go through the shared finisher, which writes
    // only the outputs of the observer that pass turned on; the report
    // (with the wall-clock figures in its gate-ignored environment)
    // comes from the ledger pass, whose config produced those runs.
    figures.insert(figures.end(), gates.begin(), gates.end());
    int rc = all_clean && baseline_ok ? 0 : 1;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        RunOutputs out = run.out;
        if (!passes[i].report)
            out.report.clear();
        rc |= finishRun("bench_wallclock", configs[i], out, results[i],
                        {}, passes[i].report ? figures
                                             : ReportEnvironment{});
    }
    return rc;
}
