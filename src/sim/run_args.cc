#include "sim/run_args.hh"

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/args.hh"
#include "common/logging.hh"
#include "obs/report.hh"

namespace sdpcm {

RunArgs
parseRunArgs(const ArgParser& args, const std::string& default_report,
             std::int64_t default_refs, bool single_run)
{
    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Warn);
    RunArgs run;
    RunnerConfig& cfg = run.cfg;
    RunOutputs& out = run.out;
    cfg.refsPerCore =
        static_cast<std::uint64_t>(args.getInt("refs", default_refs));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.cores = static_cast<unsigned>(args.getInt("cores", 8));
    cfg.jobs = static_cast<unsigned>(args.getInt("jobs", 0));
    cfg.verifyOracle = args.getBool("verify-oracle", false);
    if (args.has("inject")) {
        // FaultSpec::parse throws on malformed specs; turn that into a
        // fatal diagnostic instead of an uncaught-exception terminate.
        try {
            cfg.faults = FaultSpec::parse(args.getString("inject", ""));
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL("bad --inject spec: ", e.what());
        }
    }
    cfg.telemetry = telemetryFromArgs(args);
    out.epochCsv = args.has("epoch-csv");
    out.epochCsvPath = args.getOptionalPath("epoch-csv");
    out.epochJson = args.getPath("epoch-json", "");
    if (!single_run && (out.epochCsv || !out.epochJson.empty())) {
        SDPCM_FATAL("--epoch-csv/--epoch-json write one run's series; "
                    "this run is a matrix");
    }

    // A flag of an observer's family turns that observer on.
    out.spansJson = args.getOptionalPath("spans");
    out.spansFolded = args.getPath("spans-folded", "");
    out.spansTop = static_cast<unsigned>(args.getInt("spans-top", 0));
    cfg.spans = args.has("spans") || args.has("spans-folded") ||
                args.has("spans-top");
    out.wdLedgerJson = args.getOptionalPath("wd-ledger");
    out.wdTop = static_cast<unsigned>(args.getInt("wd-top", 0));
    cfg.wdLedger = args.has("wd-ledger") || args.has("wd-top");
    out.profileJson = args.getOptionalPath("profile");
    out.profileFolded = args.getPath("profile-folded", "");
    out.profileTop = static_cast<unsigned>(args.getInt("profile-top", 0));
    cfg.profile = args.has("profile") || args.has("profile-folded") ||
                  args.has("profile-top");
    const std::int64_t prof_sample = args.getInt(
        "profile-sample", static_cast<std::int64_t>(cfg.profileSample));
    if (!validProfileSamplePeriod(prof_sample)) {
        SDPCM_FATAL("--profile-sample must be a power of two >= 1, got ",
                    prof_sample);
    }
    cfg.profileSample = static_cast<std::uint32_t>(prof_sample);
    cfg.enduranceCellWrites = args.getDouble("endurance", 1e8);
    out.report = args.getPath("report", default_report);
    return run;
}

namespace {

/** Open `path`, write it, and fail as a usage error if either fails. */
template <typename Write>
void
writeOutput(const std::string& path, const char* what, Write&& write)
{
    std::ofstream os(path);
    if (!os)
        SDPCM_FATAL("cannot open ", what, " file: ", path);
    write(os);
    os.flush();
    if (!os)
        SDPCM_FATAL("error writing ", what, " file: ", path);
    SDPCM_PROGRESS(what, " written to ", path);
}

/**
 * `scheme/workload` of a set of cells; either part reads "all" when
 * the cells hold more than one.
 */
std::string
scopeLabel(const std::vector<const RunMetrics*>& cells)
{
    std::string scheme = cells.front()->scheme;
    std::string workload = cells.front()->workload;
    for (const RunMetrics* m : cells) {
        if (m->scheme != scheme)
            scheme = "all";
        if (m->workload != workload)
            workload = "all";
    }
    return scheme + "/" + workload;
}

using CellGroups = std::vector<std::vector<const RunMetrics*>>;

/** Each group's `field` summaries merged in cell order. */
template <typename Summary>
std::vector<Summary>
mergeGroups(const CellGroups& groups, Summary RunMetrics::*field)
{
    std::vector<Summary> merged(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (const RunMetrics* m : groups[i])
            merged[i].merge(m->*field);
    }
    return merged;
}

/** Oracle verdict over every cell; returns the exit code. */
int
oracleVerdict(const std::vector<const RunMetrics*>& cells)
{
    std::uint64_t mismatches = 0;
    std::uint64_t reads = 0;
    std::uint64_t commits = 0;
    std::uint64_t lines = 0;
    for (const RunMetrics* m : cells) {
        mismatches += m->oracle.mismatches;
        reads += m->oracle.readsChecked;
        commits += m->oracle.commitsChecked;
        lines += m->oracle.finalLinesChecked;
        if (m->oracle.mismatches > 0) {
            std::cout << "oracle MISMATCH: " << m->scheme << " / "
                      << m->workload << ": " << m->oracle.mismatches
                      << " mismatch(es)\n";
        }
    }
    std::cout << "oracle: ";
    if (mismatches == 0)
        std::cout << "all cells clean";
    else
        std::cout << mismatches << " mismatch(es) total";
    std::cout << " (" << cells.size() << " cell(s); checked " << reads
              << " reads, " << commits << " commits, " << lines
              << " final lines)\n";
    if (mismatches == 0)
        return 0;
    std::cout << "(re-run one cell with --trace=FILE for per-mismatch "
                 "oracle_mismatch instants)\n";
    return 1;
}

} // namespace

int
finishRun(const std::string& tool, const RunnerConfig& cfg,
          const RunOutputs& out, const std::vector<SchemeResults>& results,
          const std::vector<std::string>& workload_order,
          const ReportEnvironment& environment)
{
    // Every output walks the cells in one order: schemes as run, each
    // scheme's cells in workload_order (by name when it is empty).
    // Per-scheme outputs merge a scheme's cells in that order.
    CellGroups groups;
    std::vector<const RunMetrics*> cells;
    for (const SchemeResults& scheme : results) {
        std::vector<const RunMetrics*>& group = groups.emplace_back();
        if (workload_order.empty()) {
            for (const auto& [name, m] : scheme.byWorkload)
                group.push_back(&m);
        } else {
            for (const std::string& name : workload_order)
                group.push_back(&scheme.at(name));
        }
        cells.insert(cells.end(), group.begin(), group.end());
    }
    SDPCM_ASSERT(!cells.empty(), "finishRun needs at least one cell");

    if (!out.report.empty()) {
        RunReport report;
        report.bench = tool;
        report.config = cfg;
        report.environment = environment;
        for (const RunMetrics* m : cells)
            report.addRun(*m);
        writeOutput(out.report, "report",
                    [&](std::ostream& os) { report.write(os); });
    }

    if (cfg.spans) {
        if (!out.spansJson.empty()) {
            std::vector<SpanBlameEntry> entries;
            for (const RunMetrics* m : cells)
                entries.push_back({m->scheme, m->workload, &m->spans});
            writeOutput(out.spansJson, "span blame", [&](std::ostream& os) {
                writeSpanBlameJson(os, tool, entries);
            });
        }
        const auto merged = mergeGroups(groups, &RunMetrics::spans);
        if (!out.spansFolded.empty()) {
            writeOutput(out.spansFolded, "span folded stacks",
                        [&](std::ostream& os) {
                            for (std::size_t i = 0; i < groups.size(); ++i)
                                writeFoldedStacks(os, results[i].scheme,
                                                  merged[i]);
                        });
        }
        for (std::size_t i = 0; out.spansTop > 0 && i < groups.size();
             ++i) {
            printSpanTop(std::cerr, scopeLabel(groups[i]), merged[i],
                         out.spansTop);
        }
    }

    if (cfg.wdLedger) {
        if (!out.wdLedgerJson.empty()) {
            std::vector<WdLedgerEntry> entries;
            for (const RunMetrics* m : cells)
                entries.push_back({m->scheme, m->workload, &m->wd});
            writeOutput(out.wdLedgerJson, "wd ledger", [&](std::ostream& os) {
                writeWdLedgerJson(os, tool, entries);
            });
        }
        const auto merged = mergeGroups(groups, &RunMetrics::wd);
        for (std::size_t i = 0; i < groups.size(); ++i) {
            const std::string label = scopeLabel(groups[i]);
            const WdLedgerSummary& wd = merged[i];
            if (out.wdTop > 0)
                printWdTop(std::cerr, label, wd, out.wdTop);
            std::cout << "wd ledger " << label << ": " << wd.flips()
                      << " flips (" << wd.flipsWl << " wl / " << wd.flipsBl
                      << " bl), " << wd.flipsFromCorrection
                      << " by corrections, " << wd.outstanding
                      << " outstanding, " << wd.blame.size()
                      << " aggressor line(s)\n";
        }
    }

    if (cfg.profile) {
        const auto merged = mergeGroups(groups, &RunMetrics::prof);
        if (!out.profileJson.empty()) {
            ProfSummary all;
            for (const ProfSummary& scheme : merged)
                all.merge(scheme);
            writeOutput(out.profileJson, "profile", [&](std::ostream& os) {
                writeProfileJson(os, scopeLabel(cells), all);
            });
        }
        if (!out.profileFolded.empty()) {
            writeOutput(out.profileFolded, "profile folded stacks",
                        [&](std::ostream& os) {
                            for (std::size_t i = 0; i < groups.size(); ++i)
                                writeProfileFolded(os, results[i].scheme,
                                                   merged[i]);
                        });
        }
        for (std::size_t i = 0; out.profileTop > 0 && i < groups.size();
             ++i) {
            printProfileTop(std::cerr, scopeLabel(groups[i]), merged[i],
                            out.profileTop);
        }
    }

    if (cfg.telemetry.enabled()) {
        for (const auto& group : groups) {
            std::uint64_t frames = 0;
            std::uint64_t breaches = 0;
            std::uint64_t stalls = 0;
            for (const RunMetrics* m : group) {
                frames += m->telemetry.frames;
                breaches += m->telemetry.breaches;
                stalls += m->telemetry.watchdogStalls;
            }
            std::cout << "telemetry " << scopeLabel(group) << ": "
                      << frames << " frames every "
                      << cfg.telemetry.intervalTicks << " ticks, "
                      << breaches << " SLO breach(es), " << stalls
                      << " watchdog stall(s)\n";
        }
    }

    // The epoch series is one run's; parseRunArgs refuses it for a
    // matrix.
    if (out.epochCsv && out.epochCsvPath.empty()) {
        std::cout << "\n";
        cells.front()->epochs.dumpCsv(std::cout);
    } else if (out.epochCsv) {
        writeOutput(out.epochCsvPath, "epoch series", [&](std::ostream& os) {
            cells.front()->epochs.dumpCsv(os);
        });
    }
    if (!out.epochJson.empty()) {
        writeOutput(out.epochJson, "epoch series", [&](std::ostream& os) {
            cells.front()->epochs.dumpJson(os);
        });
    }

    return cfg.verifyOracle ? oracleVerdict(cells) : 0;
}

} // namespace sdpcm
