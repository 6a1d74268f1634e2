/**
 * @file
 * Shared plumbing for the experiment bench binaries: the banner, the
 * run-matrix helper with progress lines, and the workload columns.
 * Flags and outputs go through the run front end (sim/run_args.hh), so
 * every bench accepts the flags listed in README ("Flags shared by
 * every tool") and writes every output they ask for.
 */

#ifndef SDPCM_BENCH_COMMON_HH
#define SDPCM_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/parallel.hh"
#include "sim/run_args.hh"
#include "sim/runner.hh"

namespace sdpcm {
namespace bench {

inline void
banner(const std::string& title, const RunnerConfig& cfg)
{
    if (!logEnabled(LogLevel::Info))
        return;
    std::cout << "=== " << title << " ===\n"
              << cfg.cores << " cores x " << cfg.refsPerCore
              << " memory references per core (use --refs=N to scale; "
                 "the paper used 10M), "
              << resolveJobs(cfg.jobs)
              << " parallel runs (--jobs=N)\n";
    if (cfg.verifyOracle)
        std::cout << "shadow-memory oracle ON (--verify-oracle)\n";
    if (cfg.faults.any())
        std::cout << "fault injection: " << cfg.faults.describe() << "\n";
    if (cfg.telemetry.enabled()) {
        std::cout << "telemetry every " << cfg.telemetry.intervalTicks
                  << " ticks";
        if (!cfg.telemetry.monitorRules.empty())
            std::cout << ", monitors: " << cfg.telemetry.monitorRules;
        if (cfg.telemetry.watchdogTicks > 0) {
            std::cout << ", watchdog " << cfg.telemetry.watchdogTicks
                      << " ticks";
        }
        std::cout << "\n";
    }
    std::cout << "\n";
}

/**
 * Run several schemes over the standard workloads, fanned out across
 * `cfg.jobs` workers. Per-cell completion lines land on stderr in
 * deterministic matrix order regardless of which run finishes first
 * (each line is printed whole under the executor's progress lock, so
 * lines never interleave), followed by a one-line wall-clock summary.
 */
inline std::vector<SchemeResults>
runMatrix(const std::vector<SchemeConfig>& schemes,
          const RunnerConfig& cfg,
          const std::vector<WorkloadSpec>& workloads = standardWorkloads())
{
    const auto t0 = std::chrono::steady_clock::now();
    // Progress lines go through the logging choke point so --quiet
    // silences them without touching breach/stall warnings.
    auto results = sdpcm::runMatrix(
        schemes, workloads, cfg, [](const MatrixProgress& p) {
            if (!logEnabled(LogLevel::Info))
                return;
            std::fprintf(stderr, "[%3zu/%3zu] %-24s %s\n", p.done,
                         p.total, p.scheme.c_str(), p.workload.c_str());
        });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (logEnabled(LogLevel::Info)) {
        std::fprintf(stderr,
                     "matrix done: %zu runs, %u jobs, %.2fs wall-clock\n",
                     schemes.size() * workloads.size(),
                     resolveJobs(cfg.jobs), seconds);
    }
    return results;
}

/**
 * Name a scheme's row after the variant that produced it, so rows of
 * one scheme run under several configs stay apart in the outputs.
 */
inline SchemeResults
renamed(SchemeResults results, const std::string& name)
{
    results.scheme = name;
    for (auto& [workload, metrics] : results.byWorkload)
        metrics.scheme = name;
    return results;
}

/** Workload-name column order: Table 3 order plus the aggregate. */
inline std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& w : standardWorkloads())
        names.push_back(w.name);
    return names;
}

} // namespace bench
} // namespace sdpcm

#endif // SDPCM_BENCH_COMMON_HH
