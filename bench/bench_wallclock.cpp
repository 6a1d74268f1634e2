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
 * A third serial pass runs with span attribution ON, a fourth with
 * streaming telemetry + SLO monitors ON, a fifth with the WD
 * provenance ledger + per-line wear counters ON and a sixth with the
 * host-time self-profiler ON, guarding the observability promises:
 * every pre-existing metric stays bit-identical (spans, telemetry, the
 * ledger and the profiler observe, never perturb), and the
 * everything-off path keeps its speed — pass --baseline=FILE (a
 * previous BENCH_parallel.json of the same run shape: refs_per_core,
 * cores, seed and matrix dimensions must match, or the bench stops
 * before any pass runs) to fail the bench if the observability-off
 * serial wall-clock regressed more than 2%, or if the profiler-on pass
 * costs more than 2% over the same run's profiler-off serial pass.
 */

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench_common.hh"

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

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    RunnerConfig cfg = configFromArgs(args, 2000);
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

    // The harness owns the observability knobs: the first two passes
    // are the everything-off reference pair regardless of --spans,
    // --telemetry-*, --wd-ledger, or --profile flags. --profile in
    // particular must not leak in here: it would put nondeterministic
    // host-clock prof.* metrics into the reference snapshots, failing
    // every identical/subset gate, and turn the prof_overhead figure
    // into a profiler-on vs profiler-on no-op.
    RunnerConfig serial_cfg = cfg;
    serial_cfg.jobs = 1;
    serial_cfg.spans = false;
    serial_cfg.telemetry = TelemetryConfig{};
    serial_cfg.wdLedger = false;
    serial_cfg.profile = false;
    std::vector<SchemeResults> serial_results;
    const double serial_s =
        timedMatrix(schemes, workloads, serial_cfg, serial_results);

    RunnerConfig parallel_cfg = cfg;
    parallel_cfg.jobs = jobs;
    parallel_cfg.spans = false;
    parallel_cfg.telemetry = TelemetryConfig{};
    parallel_cfg.wdLedger = false;
    parallel_cfg.profile = false;
    std::vector<SchemeResults> parallel_results;
    const double parallel_s =
        timedMatrix(schemes, workloads, parallel_cfg, parallel_results);

    RunnerConfig spans_cfg = serial_cfg;
    spans_cfg.spans = true;
    std::vector<SchemeResults> spans_results;
    const double spans_s =
        timedMatrix(schemes, workloads, spans_cfg, spans_results);

    // Telemetry pass: registry polling + windowed sketches + a monitor
    // rule that never fires, so the whole frame path runs. No stream
    // file — this times the sampling machinery, not disk I/O.
    RunnerConfig telem_cfg = serial_cfg;
    telem_cfg.telemetry.intervalTicks = 100000;
    telem_cfg.telemetry.monitorRules =
        "p99r:p99(ctrl.readLatency)<=1000000000";
    std::vector<SchemeResults> telem_results;
    const double telem_s =
        timedMatrix(schemes, workloads, telem_cfg, telem_results);

    // Ledger pass: WD provenance tracking plus per-line wear counters
    // (the wear.* metrics need them), so this also times the heatmap
    // bookkeeping. The superset report comes from this pass — it keeps
    // every shared metric bit-identical (asserted below) and adds the
    // wd.* / wear.* families.
    RunnerConfig ledger_cfg = serial_cfg;
    ledger_cfg.wdLedger = true;
    ledger_cfg.lineCounters = true;
    std::vector<SchemeResults> ledger_results;
    const double ledger_s =
        timedMatrix(schemes, workloads, ledger_cfg, ledger_results);

    // Profiler pass: the host-time self-profiler arms every PROF_SCOPE
    // site (event dispatch, controller stages, device loops). Its only
    // observable work is reading the host clock, so every simulation
    // metric must stay bit-identical and the wall-clock cost must stay
    // inside the noise floor.
    RunnerConfig prof_cfg = serial_cfg;
    prof_cfg.profile = true;
    std::vector<SchemeResults> prof_results;
    const double prof_s =
        timedMatrix(schemes, workloads, prof_cfg, prof_results);

    const bool identical =
        identicalResults(serial_results, parallel_results);
    if (!identical)
        SDPCM_WARN("parallel results differ from serial — determinism "
                   "regression!");
    const bool spans_clean =
        subsetIdentical(serial_results, spans_results, "spans-on");
    if (!spans_clean)
        SDPCM_WARN("spans-on results differ from spans-off on shared "
                   "metrics — the recorder perturbed the simulation!");
    const bool telem_clean =
        subsetIdentical(serial_results, telem_results, "telemetry-on");
    if (!telem_clean)
        SDPCM_WARN("telemetry-on results differ from telemetry-off on "
                   "shared metrics — the sampler perturbed the "
                   "simulation!");
    const bool ledger_clean =
        subsetIdentical(serial_results, ledger_results, "ledger-on");
    if (!ledger_clean)
        SDPCM_WARN("ledger-on results differ from ledger-off on shared "
                   "metrics — the provenance ledger perturbed the "
                   "simulation!");
    const bool prof_clean =
        subsetIdentical(serial_results, prof_results, "profiler-on");
    if (!prof_clean)
        SDPCM_WARN("profiler-on results differ from profiler-off on "
                   "shared metrics — the profiler perturbed the "
                   "simulation!");
    const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
    const double spans_overhead =
        serial_s > 0.0 ? spans_s / serial_s - 1.0 : 0.0;
    const double telem_overhead =
        serial_s > 0.0 ? telem_s / serial_s - 1.0 : 0.0;
    const double ledger_overhead =
        serial_s > 0.0 ? ledger_s / serial_s - 1.0 : 0.0;
    const double prof_overhead =
        serial_s > 0.0 ? prof_s / serial_s - 1.0 : 0.0;

    std::cout << "serial   : " << TablePrinter::fmt(serial_s, 3) << " s\n"
              << "parallel : " << TablePrinter::fmt(parallel_s, 3)
              << " s  (" << jobs << " jobs)\n"
              << "spans-on : " << TablePrinter::fmt(spans_s, 3)
              << " s  serial ("
              << TablePrinter::pct(spans_overhead, 1) << " overhead)\n"
              << "telem-on : " << TablePrinter::fmt(telem_s, 3)
              << " s  serial ("
              << TablePrinter::pct(telem_overhead, 1) << " overhead)\n"
              << "ledger-on: " << TablePrinter::fmt(ledger_s, 3)
              << " s  serial ("
              << TablePrinter::pct(ledger_overhead, 1) << " overhead)\n"
              << "prof-on  : " << TablePrinter::fmt(prof_s, 3)
              << " s  serial ("
              << TablePrinter::pct(prof_overhead, 1) << " overhead)\n"
              << "speedup  : " << TablePrinter::fmt(speedup, 2) << "x\n"
              << "identical: " << (identical ? "yes" : "NO") << "\n"
              << "spans obs-only: " << (spans_clean ? "yes" : "NO")
              << "\n"
              << "telemetry obs-only: " << (telem_clean ? "yes" : "NO")
              << "\n"
              << "ledger obs-only: " << (ledger_clean ? "yes" : "NO")
              << "\n"
              << "profiler obs-only: " << (prof_clean ? "yes" : "NO")
              << "\n";

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
       << "  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"serial_seconds\": " << serial_s << ",\n"
       << "  \"parallel_seconds\": " << parallel_s << ",\n"
       << "  \"spans_serial_seconds\": " << spans_s << ",\n"
       << "  \"telemetry_serial_seconds\": " << telem_s << ",\n"
       << "  \"ledger_serial_seconds\": " << ledger_s << ",\n"
       << "  \"profiler_serial_seconds\": " << prof_s << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"spans_observe_only\": "
       << (spans_clean ? "true" : "false") << ",\n"
       << "  \"telemetry_observe_only\": "
       << (telem_clean ? "true" : "false") << ",\n"
       << "  \"ledger_observe_only\": "
       << (ledger_clean ? "true" : "false") << ",\n"
       << "  \"profiler_observe_only\": "
       << (prof_clean ? "true" : "false") << "\n"
       << "}\n";
    SDPCM_PROGRESS("written to ", out_path);

    maybeWriteSpans(args, spans_cfg, spans_results);
    maybeWriteWdLedger(args, "bench_wallclock", ledger_cfg,
                       ledger_results);
    maybeWriteProfile(args, "bench_wallclock", prof_cfg, prof_results);

    // The ledger-pass results are the reference copy: every shared
    // metric bit-matches the everything-off serial run (`ledger_clean`)
    // while the wd.* / wear.* families ride along, so the regression
    // gate sees the widest schema. ledger_cfg (not the raw cfg) is the
    // config that produced those runs, so the report's host.profiler
    // provenance stays truthful even when --profile was passed.
    // Wall-clock figures go into the gate-ignored environment section.
    maybeWriteReport(args, "REPORT_wallclock.json", "bench_wallclock",
                     ledger_cfg, ledger_results,
                     {{"serial_seconds", serial_s},
                      {"parallel_seconds", parallel_s},
                      {"spans_serial_seconds", spans_s},
                      {"telemetry_serial_seconds", telem_s},
                      {"ledger_serial_seconds", ledger_s},
                      {"profiler_serial_seconds", prof_s},
                      {"speedup", speedup},
                      {"identical", identical ? 1.0 : 0.0},
                      {"spans_observe_only", spans_clean ? 1.0 : 0.0},
                      {"telemetry_observe_only",
                       telem_clean ? 1.0 : 0.0},
                      {"ledger_observe_only",
                       ledger_clean ? 1.0 : 0.0},
                      {"profiler_observe_only",
                       prof_clean ? 1.0 : 0.0}});
    const int oracle_rc = checkOracle(cfg, serial_results);
    if (!identical || !spans_clean || !telem_clean || !ledger_clean ||
        !prof_clean || !baseline_ok) {
        return 1;
    }
    return oracle_rc;
}
