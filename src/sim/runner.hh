/**
 * @file
 * Experiment harness shared by the bench binaries: run a set of schemes
 * over the Table 3 workloads and aggregate speedups the way the paper's
 * evaluation does (per-workload CPI ratios, geometric mean across
 * workloads).
 *
 * The matrix executor fans the fully independent (scheme, workload)
 * cells out across a thread pool (see sim/parallel.hh); results are
 * bit-identical to serial execution because every run is shared-nothing.
 */

#ifndef SDPCM_SIM_RUNNER_HH
#define SDPCM_SIM_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace sdpcm {

/**
 * Geometric mean of a series. Non-positive values cannot enter a
 * geometric mean; they are skipped with an SDPCM_WARN so a broken run
 * (zero CPI, failed cell) cannot silently inflate the aggregate.
 */
double geomean(const std::vector<double>& values);

/** Common knobs for a batch of experiment runs. */
struct RunnerConfig
{
    std::uint64_t refsPerCore = 50000;
    std::uint64_t seed = 1;
    unsigned cores = 8;
    unsigned jobs = 0; //!< matrix-level parallelism (0 = all host cores)
    AgingConfig aging;
    DinConfig din;     //!< encoder knobs (ablation studies)
    PcmTiming timing;  //!< device timing knobs (ablation studies)
    Tick maxTicks = ~Tick(0);

    // Observability passthrough (see SystemConfig). tracePath applies to
    // single runs (runOne); matrix runs would overwrite one file, so the
    // matrix executor drops it with a warning.
    std::string tracePath;
    /** Track per-line wear/WD counters (RunMetrics::lines, heatmaps). */
    bool lineCounters = false;
    /** Per-request span attribution (RunMetrics::spans). */
    bool spans = false;
    /** Streaming telemetry + SLO monitors (see TelemetryConfig). The
     *  stream/prom paths apply to single runs only; matrix runs drop
     *  them (one file, many cells) but keep interval/rules/watchdog so
     *  mon.* metrics stay per-cell. */
    TelemetryConfig telemetry;
    /** Disturbance-provenance ledger (RunMetrics::wd). */
    bool wdLedger = false;
    /** Host-time self-profiler (RunMetrics::prof). Each matrix cell
     *  carries its own per-thread profile; merge the summaries in
     *  matrix order for a deterministic whole-matrix blame tree. */
    bool profile = false;
    /** Profiler sampling period (SystemConfig::profileSample). */
    std::uint32_t profileSample = 64;
    /** Per-cell endurance budget for wear.projectedLifetimeTicks. */
    double enduranceCellWrites = 1e8;

    // Verification passthrough (see SystemConfig).
    bool verifyOracle = false;
    FaultSpec faults;
};

/** Run one (scheme, workload) pair and return its metrics. */
RunMetrics runOne(const SchemeConfig& scheme, const WorkloadSpec& workload,
                  const RunnerConfig& cfg);

/** Results of a scheme across all workloads, keyed by workload name. */
struct SchemeResults
{
    std::string scheme;
    std::map<std::string, RunMetrics> byWorkload;

    const RunMetrics&
    at(const std::string& workload) const
    {
        return byWorkload.at(workload);
    }
};

/** One completed matrix cell, reported in deterministic matrix order. */
struct MatrixProgress
{
    std::size_t done = 0;  //!< cells reported so far (this one included)
    std::size_t total = 0; //!< schemes x workloads
    std::string scheme;
    std::string workload;
};

/**
 * Per-cell completion callback. Invocations are serialised under a lock
 * and delivered in matrix order (scheme-major, then workload) no matter
 * which worker finishes first, so progress output is deterministic.
 */
using MatrixProgressFn = std::function<void(const MatrixProgress&)>;

/**
 * Run every (scheme, workload) cell, fanned out over `cfg.jobs` workers
 * (0 = hardware concurrency; 1 = serial in matrix order). Results are
 * bit-identical across jobs values.
 */
std::vector<SchemeResults>
runMatrix(const std::vector<SchemeConfig>& schemes,
          const std::vector<WorkloadSpec>& workloads,
          const RunnerConfig& cfg,
          const MatrixProgressFn& on_cell_done = nullptr);

/** Run a scheme over a workload list (one-row matrix). */
SchemeResults runScheme(const SchemeConfig& scheme,
                        const std::vector<WorkloadSpec>& workloads,
                        const RunnerConfig& cfg);

/**
 * Per-workload speedups of `tech` relative to `base`
 * (CPI_base / CPI_tech), plus the geometric mean under key "gmean".
 */
std::map<std::string, double> speedups(const SchemeResults& base,
                                       const SchemeResults& tech);

} // namespace sdpcm

#endif // SDPCM_SIM_RUNNER_HH
