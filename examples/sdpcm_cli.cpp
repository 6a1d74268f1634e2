/**
 * @file
 * Command-line frontend for one-off simulations: pick a scheme and a
 * workload, tweak the knobs, and get the full statistics dump. Also
 * captures and replays trace files so a reference stream can be frozen
 * and compared across schemes or library versions.
 *
 * Examples:
 *   sdpcm_cli --scheme=lazyc+preread --workload=mcf --refs=20000
 *   sdpcm_cli --scheme=nm --n=2 --m=3 --workload=lbm
 *   sdpcm_cli --capture=mcf.trace --workload=mcf --refs=50000
 *   sdpcm_cli --replay=mcf.trace --scheme=baseline
 *   sdpcm_cli --scheme=sdpcm --workload=mcf \
 *             --trace=sdpcm.trace.json --telemetry-interval=100000 \
 *             --epoch-csv=sdpcm.epochs.csv
 */

#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/args.hh"
#include "common/table.hh"
#include "obs/heatmap.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "sim/parallel.hh"
#include "sim/runner.hh"
#include "workload/generators.hh"
#include "workload/trace_file.hh"

using namespace sdpcm;

namespace {

SchemeConfig
schemeByName(const std::string& name, const ArgParser& args)
{
    // Read the shared ratio up front so --n/--m stay declared options
    // even for schemes that ignore them.
    const NmRatio ratio{static_cast<unsigned>(args.getInt("n", 2)),
                        static_cast<unsigned>(args.getInt("m", 3))};
    SchemeConfig scheme;
    if (name == "din") {
        scheme = SchemeConfig::din8F2();
    } else if (name == "baseline" || name == "vnc") {
        scheme = SchemeConfig::baselineVnc();
    } else if (name == "lazyc") {
        scheme = SchemeConfig::lazyC(
            static_cast<unsigned>(args.getInt("ecp", 6)));
    } else if (name == "lazyc+preread") {
        scheme = SchemeConfig::lazyCPreRead();
    } else if (name == "nm") {
        scheme = SchemeConfig::nmOnly(ratio);
    } else if (name == "all" || name == "lazyc+preread+nm") {
        scheme = SchemeConfig::lazyCPreReadNm(ratio);
    } else if (name == "sdpcm") {
        scheme = SchemeConfig::sdpcm(ratio);
    } else if (name == "fnw") {
        scheme = SchemeConfig::fnwVnc();
    } else {
        SDPCM_FATAL("unknown scheme '", name,
                    "' (din, baseline, lazyc, lazyc+preread, nm, all, "
                    "sdpcm, fnw)");
    }
    scheme.ecpEntries =
        static_cast<unsigned>(args.getInt("ecp", scheme.ecpEntries));
    scheme.writeQueueEntries = static_cast<unsigned>(
        args.getInt("wq", scheme.writeQueueEntries));
    scheme.writeCancellation =
        args.getBool("wc", scheme.writeCancellation);
    scheme.idleWriteDrain =
        args.getBool("idle-drain", scheme.idleWriteDrain);
    scheme.maxCancelsPerWrite = static_cast<unsigned>(
        args.getInt("max-cancels", scheme.maxCancelsPerWrite));
    scheme.drainBurstWrites = static_cast<unsigned>(
        args.getInt("drain-burst", scheme.drainBurstWrites));
    return scheme;
}

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args(argc, argv);
    if (args.has("help")) {
        std::cout <<
            "sdpcm_cli — run one SD-PCM simulation\n"
            "  --scheme=NAME     din|baseline|lazyc|lazyc+preread|nm|all"
            "|sdpcm|fnw\n"
            "                    (sdpcm = LazyC+PreRead+(n:m); fnw = "
            "basic VnC with\n"
            "                    Flip-N-Write instead of DIN — no WL "
            "suppression)\n"
            "  --workload=NAME   Table 3 profile (default mcf), or "
            "'all' to run\n"
            "                    every Table 3 workload as a parallel "
            "matrix\n"
            "  --refs=N --seed=N --cores=N\n"
            "  --jobs=N          concurrent runs for --workload=all "
            "(0 = all\n"
            "                    host cores; results are bit-identical "
            "for any N)\n"
            "  --ecp=N --wq=N --wc=0|1 --n=N --m=M --age=F\n"
            "  --max-cancels=N   cancellation cap per write (default 4)\n"
            "  --drain-burst=N   writes retired per drain burst (clamped "
            "to\n"
            "                    [1, wq/2])\n"
            "  --capture=FILE    write the workload's trace and exit\n"
            "  --replay=FILE     run from a captured trace file\n"
            "\n"
            "observability:\n"
            "  --trace=FILE      write a Chrome trace-event JSON of bank\n"
            "                    activity (open in https://ui.perfetto.dev"
            " or\n"
            "                    chrome://tracing; ts/dur are sim ticks)\n"
            "  --epoch-csv[=FILE]\n"
            "                    write the epoch series (one row of "
            "controller\n"
            "                    counter deltas and queue gauges per "
            "telemetry\n"
            "                    frame) as CSV; a bare flag prints it to "
            "stdout.\n"
            "                    Turns telemetry on; --telemetry-interval"
            "=N sets\n"
            "                    the cadence (default 100000)\n"
            "  --epoch-json=FILE write the epoch series as JSON (same "
            "rules)\n"
            "  --report=FILE     write a machine-readable run report "
            "(JSON;\n"
            "                    compare across runs with report_diff)\n"
            "  --spans[=FILE]    per-request span attribution: decompose"
            " every\n"
            "                    read/write latency into lifecycle phases"
            "; with\n"
            "                    FILE, write the per-phase blame summary "
            "as JSON\n"
            "  --spans-folded=FILE\n"
            "                    write collapsed stacks "
            "(scheme;kind;phase count)\n"
            "                    for flamegraph tooling (implies --spans)"
            "\n"
            "  --spans-top=N     print the top-N phases by critical "
            "cycles to\n"
            "                    stderr (implies --spans)\n"
            "  --profile[=FILE]  host-time self-profiler: hierarchical "
            "wall-clock\n"
            "                    blame for the simulator's own hot paths"
            "; prof.*\n"
            "                    metrics land in the report and FILE "
            "gets the\n"
            "                    profile JSON (tree + per-phase table)\n"
            "  --profile-top=N   print the top-N host phases by "
            "exclusive time\n"
            "                    to stderr (implies --profile)\n"
            "  --profile-folded=FILE\n"
            "                    write the profile as collapsed stacks "
            "for\n"
            "                    flamegraph tooling (implies --profile)\n"
            "  --profile-sample=N\n"
            "                    time 1 of every N root scope trees "
            "(power of\n"
            "                    two, default 64; 1 = exact, higher "
            "overhead)\n"
            "  --telemetry=FILE  stream JSONL telemetry frames during "
            "the run\n"
            "                    (summarise with telemetry_tail)\n"
            "  --telemetry-interval=N\n"
            "                    frame interval in ticks (default 100000 "
            "when any\n"
            "                    telemetry flag is given)\n"
            "  --telemetry-prom=FILE\n"
            "                    dump final Prometheus text exposition\n"
            "  --telemetry-window=N\n"
            "                    sliding-window width in frames for "
            "windowed\n"
            "                    percentiles (default 8)\n"
            "  --monitor=RULES   ';'-separated SLO rules, e.g.\n"
            "                    p99r:p99(ctrl.readLatency)<=30000;"
            "wq:gauge(ctrl.writeQueued)<=200\n"
            "                    (see obs/monitor.hh for the grammar); "
            "breaches\n"
            "                    print as warnings and land in the "
            "report\n"
            "  --watchdog=N      flag a stall when no request retires "
            "for N\n"
            "                    ticks while work is pending\n"
            "  --wd-ledger[=FILE]\n"
            "                    disturbance-provenance ledger: record "
            "every WD\n"
            "                    flip aggressor -> victim -> outcome "
            "chain; wd.*\n"
            "                    metrics land in the report and FILE "
            "gets the\n"
            "                    aggregated JSON export\n"
            "  --wd-top=N        print the top-N aggressor lines by "
            "victim flips\n"
            "                    to stderr (implies --wd-ledger)\n"
            "  --endurance=F     per-cell write endurance for the "
            "projected\n"
            "                    lifetime estimate (default 1e8; needs\n"
            "                    --line-counters or --heatmap)\n"
            "  --quiet           silence progress output (warnings, "
            "breaches and\n"
            "                    the stats dump still print)\n"
            "  --lax-flags       downgrade the unknown-option fatal to "
            "a warning\n"
            "  --line-counters   track per-line wear/WD counters\n"
            "  --heatmap=KIND    export a spatial heatmap (implies "
            "--line-counters);\n"
            "                    KIND: writes|wd|wd_absorbed|wd_corrected"
            "|ecp|wear\n"
            "  --heatmap-csv=FILE --heatmap-pgm=FILE\n"
            "                    output paths (default "
            "heatmap_<kind>.csv/.pgm)\n"
            "  --heatmap-bins=N  max row bins per bank (default 64)\n"
            "\n"
            "verification:\n"
            "  --verify-oracle   shadow every line and check all reads,\n"
            "                    verify buffers, commits and the final "
            "drain\n"
            "                    state; nonzero exit on any mismatch\n"
            "  --inject=SPEC     deterministic fault injection, SPEC is\n"
            "                    comma-separated key=value pairs:\n"
            "                    stuck=F (mean stuck cells/line), ecp=N\n"
            "                    (ECP entries stolen/line), wd=F (forced\n"
            "                    WD-flip chance), seed=N\n"
            "                    e.g. --inject=stuck=0.3,ecp=2,wd=0.02\n"
            "  --workload=qstress adversarial queue-stress mix that\n"
            "                    maximises PreRead/forwarding races\n";
        return 0;
    }

    if (args.getBool("quiet", false))
        setLogLevel(LogLevel::Warn);

    const std::string workload_name = args.getString("workload", "mcf");
    const std::uint64_t refs =
        static_cast<std::uint64_t>(args.getInt("refs", 10000));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const bool want_capture = args.has("capture");
    const std::string capture_path = args.getString("capture", "out.trace");
    const bool want_replay = args.has("replay");
    const std::string replay_path = args.getString("replay", "");

    RunnerConfig cfg;
    cfg.refsPerCore = refs;
    cfg.seed = seed;
    cfg.cores = static_cast<unsigned>(args.getInt("cores", 8));
    cfg.jobs = static_cast<unsigned>(args.getInt("jobs", 0));
    cfg.aging.ageFraction = args.getDouble("age", 0.0);
    cfg.tracePath = args.getString("trace", "");
    const bool want_heatmap = args.has("heatmap");
    cfg.lineCounters = args.getBool("line-counters", false) || want_heatmap;
    // A bare --spans stores "1" (enable, no file); any other value is
    // the blame-JSON output path.
    const std::string spans_arg = args.getString("spans", "");
    const std::string spans_json =
        (spans_arg.empty() || spans_arg == "1") ? "" : spans_arg;
    const std::string spans_folded = args.getString("spans-folded", "");
    const unsigned spans_top =
        static_cast<unsigned>(args.getInt("spans-top", 0));
    cfg.spans = args.has("spans") || !spans_folded.empty() ||
                spans_top > 0;
    // Same idiom for --profile: bare flag enables, a value is the
    // profile-JSON output path.
    const std::string profile_arg = args.getString("profile", "");
    const std::string profile_json =
        (profile_arg.empty() || profile_arg == "1") ? "" : profile_arg;
    const std::string profile_folded =
        args.getString("profile-folded", "");
    const unsigned profile_top =
        static_cast<unsigned>(args.getInt("profile-top", 0));
    cfg.profile = args.has("profile") || !profile_folded.empty() ||
                  profile_top > 0;
    const std::int64_t prof_sample = args.getInt(
        "profile-sample", static_cast<std::int64_t>(cfg.profileSample));
    if (!validProfileSamplePeriod(prof_sample)) {
        SDPCM_FATAL("--profile-sample must be a power of two >= 1, got ",
                    prof_sample);
    }
    cfg.profileSample = static_cast<std::uint32_t>(prof_sample);
    cfg.verifyOracle = args.getBool("verify-oracle", false);
    cfg.telemetry = telemetryFromArgs(args);
    // Same bare-flag idiom as --spans: --wd-ledger stores "1" (enable,
    // no file); any other value is the JSON export path.
    const std::string ledger_arg = args.getString("wd-ledger", "");
    const std::string ledger_json =
        (ledger_arg.empty() || ledger_arg == "1") ? "" : ledger_arg;
    const unsigned wd_top =
        static_cast<unsigned>(args.getInt("wd-top", 0));
    cfg.wdLedger = args.has("wd-ledger") || wd_top > 0;
    cfg.enduranceCellWrites = args.getDouble("endurance", 1e8);
    if (args.has("inject")) {
        try {
            cfg.faults = FaultSpec::parse(args.getString("inject", ""));
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL(e.what());
        }
    }

    // Output flags used after the run, hoisted so every supported
    // option is declared before the unknown-flag check below.
    // Bare --epoch-csv stores "1": print the CSV to stdout.
    const bool want_epoch_csv = args.has("epoch-csv");
    const std::string epoch_csv_arg = args.getString("epoch-csv", "");
    const std::string epoch_csv_path =
        epoch_csv_arg == "1" ? "" : epoch_csv_arg;
    const std::string epoch_json_path = args.getPath("epoch-json", "");
    const std::string heatmap_kind_name =
        args.getString("heatmap", "writes");
    const unsigned heatmap_bins =
        static_cast<unsigned>(args.getInt("heatmap-bins", 64));
    const bool has_heatmap_csv = args.has("heatmap-csv");
    const std::string heatmap_csv_arg = args.getString("heatmap-csv", "");
    const bool has_heatmap_pgm = args.has("heatmap-pgm");
    const std::string heatmap_pgm_arg = args.getString("heatmap-pgm", "");
    const std::string report_path = args.getPath("report", "");

    const SchemeConfig scheme =
        schemeByName(args.getString("scheme", "lazyc+preread"), args);

    // All supported flags have been read; a typo'd option fails fast
    // here instead of silently no-oping.
    args.finishParsing();

    if (want_capture) {
        const WorkloadSpec spec = workloadFromProfile(workload_name);
        auto stream = spec.makeStream(0, seed);
        TraceFileWriter writer(capture_path);
        const auto written = writer.capture(*stream, refs);
        std::cout << "captured " << written << " records of '"
                  << workload_name << "' to " << capture_path << "\n";
        return 0;
    }

    if (workload_name == "all" && !want_replay) {
        if (want_epoch_csv || !epoch_json_path.empty()) {
            SDPCM_FATAL("--epoch-csv/--epoch-json write one run's series;"
                        " --workload=all runs a matrix");
        }
        // Matrix mode: the scheme over every Table 3 workload, fanned
        // out across --jobs workers with ordered progress on stderr.
        const auto workloads = standardWorkloads();
        if (logEnabled(LogLevel::Info)) {
            std::cout << "scheme " << scheme.name << ", "
                      << workloads.size() << " workloads, " << cfg.cores
                      << " cores x " << refs << " refs, "
                      << resolveJobs(cfg.jobs) << " jobs\n\n";
        }
        const auto results = runMatrix(
            {scheme}, workloads, cfg, [](const MatrixProgress& p) {
                if (!logEnabled(LogLevel::Info))
                    return;
                std::fprintf(stderr, "[%3zu/%3zu] %s\n", p.done,
                             p.total, p.workload.c_str());
            });
        TablePrinter t({"workload", "meanCpi", "writes", "corrections",
                        "corr/write", "p99 read lat"});
        std::uint64_t oracle_mismatches = 0;
        for (const auto& w : workloads) {
            const RunMetrics& m = results.front().at(w.name);
            oracle_mismatches += m.oracle.mismatches;
            t.addRow({w.name, TablePrinter::fmt(m.meanCpi, 3),
                      TablePrinter::fmt(
                          static_cast<double>(m.ctrl.writesCompleted), 0),
                      TablePrinter::fmt(
                          static_cast<double>(m.ctrl.correctionWrites),
                          0),
                      TablePrinter::fmt(m.correctionsPerWrite(), 4),
                      TablePrinter::fmt(
                          m.ctrl.readLatency.percentile(0.99), 0)});
        }
        t.print(std::cout);
        if (cfg.spans) {
            SpanSummary merged;
            std::vector<SpanBlameEntry> entries;
            for (const auto& w : workloads) {
                const RunMetrics& cell = results.front().at(w.name);
                merged.merge(cell.spans);
                entries.push_back(
                    SpanBlameEntry{cell.scheme, cell.workload,
                                   &cell.spans});
            }
            if (!spans_json.empty()) {
                std::ofstream os(spans_json);
                if (!os)
                    SDPCM_FATAL("cannot open ", spans_json);
                writeSpanBlameJson(os, "sdpcm_cli", entries);
                SDPCM_PROGRESS("span blame written to ", spans_json);
            }
            if (!spans_folded.empty()) {
                std::ofstream os(spans_folded);
                if (!os)
                    SDPCM_FATAL("cannot open ", spans_folded);
                writeFoldedStacks(os, scheme.name, merged);
                SDPCM_PROGRESS("folded stacks written to ",
                               spans_folded);
            }
            if (spans_top > 0) {
                printSpanTop(std::cerr, scheme.name + "/all", merged,
                             spans_top);
            }
        }
        if (cfg.wdLedger) {
            WdLedgerSummary merged;
            std::vector<WdLedgerEntry> entries;
            for (const auto& w : workloads) {
                const RunMetrics& cell = results.front().at(w.name);
                merged.merge(cell.wd);
                entries.push_back(WdLedgerEntry{cell.scheme,
                                                cell.workload,
                                                &cell.wd});
            }
            if (!ledger_json.empty()) {
                std::ofstream os(ledger_json);
                if (!os)
                    SDPCM_FATAL("cannot open ", ledger_json);
                writeWdLedgerJson(os, "sdpcm_cli", entries);
                SDPCM_PROGRESS("wd ledger written to ", ledger_json);
            }
            if (wd_top > 0) {
                printWdTop(std::cerr, scheme.name + "/all", merged,
                           wd_top);
            }
        }
        if (cfg.profile) {
            // Merge in workload (matrix) order: the merged tree is
            // identical for any --jobs value.
            ProfSummary merged;
            for (const auto& w : workloads)
                merged.merge(results.front().at(w.name).prof);
            if (!profile_json.empty()) {
                std::ofstream os(profile_json);
                if (!os)
                    SDPCM_FATAL("cannot open ", profile_json);
                writeProfileJson(os, scheme.name + "/all", merged);
                SDPCM_PROGRESS("profile written to ", profile_json);
            }
            if (!profile_folded.empty()) {
                std::ofstream os(profile_folded);
                if (!os)
                    SDPCM_FATAL("cannot open ", profile_folded);
                writeProfileFolded(os, scheme.name, merged);
                SDPCM_PROGRESS("profile folded stacks written to ",
                               profile_folded);
            }
            if (profile_top > 0) {
                printProfileTop(std::cerr, scheme.name + "/all", merged,
                                profile_top);
            }
        }
        if (cfg.verifyOracle) {
            std::cout << "\noracle: " << oracle_mismatches
                      << " mismatch(es) across " << workloads.size()
                      << " workloads\n";
            if (oracle_mismatches > 0)
                return 1;
        }
        return 0;
    }

    WorkloadSpec spec;
    if (want_replay) {
        const std::string path = replay_path;
        spec.name = "replay:" + path;
        spec.makeStream = [path](unsigned, std::uint64_t) {
            return std::make_unique<TraceFileStream>(path);
        };
    } else {
        spec = workloadFromProfile(workload_name);
    }

    if (logEnabled(LogLevel::Info)) {
        std::cout << "scheme " << scheme.name << ", workload "
                  << spec.name << ", " << cfg.cores << " cores x "
                  << refs << " refs";
        if (cfg.faults.any())
            std::cout << ", inject " << cfg.faults.describe();
        std::cout << "\n\n";
    }
    const RunMetrics m = runOne(scheme, spec, cfg);
    m.toSnapshot().dump(std::cout);

    if (!cfg.tracePath.empty()) {
        SDPCM_PROGRESS("trace written to ", cfg.tracePath,
                       " (load in https://ui.perfetto.dev)");
    }
    if (m.telemetry.enabled) {
        std::cout << "\ntelemetry: " << m.telemetry.frames
                  << " frames every " << m.telemetry.intervalTicks
                  << " ticks, " << m.telemetry.breaches
                  << " SLO breach(es), " << m.telemetry.watchdogStalls
                  << " watchdog stall(s)\n";
        if (!cfg.telemetry.path.empty()) {
            SDPCM_PROGRESS("telemetry stream written to ",
                           cfg.telemetry.path);
        }
        if (!cfg.telemetry.promPath.empty()) {
            SDPCM_PROGRESS("prometheus exposition written to ",
                           cfg.telemetry.promPath);
        }
    }
    if (!epoch_csv_path.empty()) {
        std::ofstream os(epoch_csv_path);
        if (!os)
            SDPCM_FATAL("cannot open ", epoch_csv_path);
        m.epochs.dumpCsv(os);
        SDPCM_PROGRESS("epoch series (", m.epochs.samples.size(),
                       " samples) written to ", epoch_csv_path);
    } else if (want_epoch_csv) {
        std::cout << "\n";
        m.epochs.dumpCsv(std::cout);
    }
    if (!epoch_json_path.empty()) {
        std::ofstream os(epoch_json_path);
        if (!os)
            SDPCM_FATAL("cannot open ", epoch_json_path);
        m.epochs.dumpJson(os);
        SDPCM_PROGRESS("epoch series (", m.epochs.samples.size(),
                       " samples) written to ", epoch_json_path);
    }
    if (want_heatmap) {
        HeatmapKind kind;
        try {
            kind = heatmapKindByName(heatmap_kind_name);
        } catch (const std::invalid_argument& e) {
            SDPCM_FATAL(e.what());
        }
        const DimmGeometry geom; // runOne uses the default Table 2 DIMM
        const Heatmap map = buildHeatmap(
            m.lines, kind, geom.banks(), geom.linesPerRow(),
            heatmap_bins);
        const std::string base = "heatmap_" + std::string(
            heatmapKindName(kind));
        const std::string csv_path =
            has_heatmap_csv ? heatmap_csv_arg : base + ".csv";
        const std::string pgm_path =
            has_heatmap_pgm ? heatmap_pgm_arg : base + ".pgm";
        if (!csv_path.empty()) {
            std::ofstream os(csv_path);
            if (!os)
                SDPCM_FATAL("cannot open ", csv_path);
            writeHeatmapCsv(map, os);
            SDPCM_PROGRESS("heatmap (", heatmapKindName(kind), ", ",
                           map.banks, " banks x ", map.rowBins,
                           " row bins x ", map.lines,
                           " lines) written to ", csv_path);
        }
        if (!pgm_path.empty()) {
            std::ofstream os(pgm_path);
            if (!os)
                SDPCM_FATAL("cannot open ", pgm_path);
            writeHeatmapPgm(map, os);
            SDPCM_PROGRESS("heatmap image written to ", pgm_path);
        }
    }
    if (cfg.spans) {
        if (!spans_json.empty()) {
            std::ofstream os(spans_json);
            if (!os)
                SDPCM_FATAL("cannot open ", spans_json);
            writeSpanBlameJson(os, "sdpcm_cli",
                               {SpanBlameEntry{m.scheme, m.workload,
                                               &m.spans}});
            SDPCM_PROGRESS("span blame written to ", spans_json);
        }
        if (!spans_folded.empty()) {
            std::ofstream os(spans_folded);
            if (!os)
                SDPCM_FATAL("cannot open ", spans_folded);
            writeFoldedStacks(os, scheme.name, m.spans);
            SDPCM_PROGRESS("folded stacks written to ", spans_folded);
        }
        if (spans_top > 0) {
            printSpanTop(std::cerr, scheme.name + "/" + spec.name,
                         m.spans, spans_top);
        }
    }
    if (cfg.profile) {
        if (!profile_json.empty()) {
            std::ofstream os(profile_json);
            if (!os)
                SDPCM_FATAL("cannot open ", profile_json);
            writeProfileJson(os, scheme.name + "/" + spec.name, m.prof);
            SDPCM_PROGRESS("profile written to ", profile_json);
        }
        if (!profile_folded.empty()) {
            std::ofstream os(profile_folded);
            if (!os)
                SDPCM_FATAL("cannot open ", profile_folded);
            writeProfileFolded(os, scheme.name, m.prof);
            SDPCM_PROGRESS("profile folded stacks written to ",
                           profile_folded);
        }
        if (profile_top > 0) {
            printProfileTop(std::cerr, scheme.name + "/" + spec.name,
                            m.prof, profile_top);
        }
    }
    if (cfg.wdLedger) {
        if (!ledger_json.empty()) {
            std::ofstream os(ledger_json);
            if (!os)
                SDPCM_FATAL("cannot open ", ledger_json);
            writeWdLedgerJson(os, "sdpcm_cli",
                              {WdLedgerEntry{m.scheme, m.workload,
                                             &m.wd}});
            SDPCM_PROGRESS("wd ledger written to ", ledger_json);
        }
        if (wd_top > 0) {
            printWdTop(std::cerr, scheme.name + "/" + spec.name, m.wd,
                       wd_top);
        }
        std::cout << "\nwd ledger: " << m.wd.flips() << " flips ("
                  << m.wd.flipsWl << " wl / " << m.wd.flipsBl
                  << " bl), " << m.wd.flipsFromCorrection
                  << " by corrections, " << m.wd.outstanding
                  << " outstanding, " << m.wd.blame.size()
                  << " aggressor line(s)\n";
    }
    if (!report_path.empty()) {
        RunReport report;
        report.bench = "sdpcm_cli";
        report.config = cfg;
        report.addRun(m);
        report.writeFile(report_path);
        SDPCM_PROGRESS("report written to ", report_path);
    }
    if (m.oracle.enabled) {
        std::cout << "\noracle: " << m.oracle.mismatches
                  << " mismatch(es); checked " << m.oracle.readsChecked
                  << " reads, " << m.oracle.commitsChecked
                  << " commits, " << m.oracle.finalLinesChecked
                  << " final lines\n";
        if (m.oracle.mismatches > 0) {
            std::cout << "(re-run with --trace=FILE for per-mismatch "
                         "oracle_mismatch instants)\n";
            return 1;
        }
    }
    return 0;
}
