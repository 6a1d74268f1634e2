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
#include "sim/parallel.hh"
#include "sim/run_args.hh"
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
            "  --workload=NAME   Table 3 profile (default mcf), qstress "
            "(adversarial\n"
            "                    queue-stress mix), or 'all' to run every"
            " Table 3\n"
            "                    workload as a parallel matrix\n"
            "  --ecp=N --wq=N --wc=0|1 --idle-drain=0|1 --n=N --m=M "
            "--age=F\n"
            "  --max-cancels=N   cancellation cap per write (default 4)\n"
            "  --drain-burst=N   writes retired per drain burst (clamped "
            "to\n"
            "                    [1, wq/2])\n"
            "  --capture=FILE    write the workload's trace and exit\n"
            "  --replay=FILE     run from a captured trace file\n"
            "  --trace=FILE      write a Chrome trace-event JSON of bank\n"
            "                    activity (open in https://ui.perfetto.dev"
            ")\n"
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
            "shared with every bench (README, \"Flags shared by every "
            "tool\"):\n"
            "  --refs=N --seed=N --cores=N --jobs=N --quiet --lax-flags\n"
            "  --verify-oracle --inject=SPEC --report=FILE --endurance=F\n"
            "  --spans[=FILE] --spans-folded=FILE --spans-top=N\n"
            "  --wd-ledger[=FILE] --wd-top=N\n"
            "  --profile[=FILE] --profile-folded=FILE --profile-top=N\n"
            "  --profile-sample=N\n"
            "  --telemetry=FILE --telemetry-prom=FILE "
            "--telemetry-interval=N\n"
            "  --telemetry-window=N --monitor=RULES --watchdog=N\n"
            "  --epoch-csv[=FILE] --epoch-json=FILE\n";
        return 0;
    }

    const std::string workload_name = args.getString("workload", "mcf");
    const bool want_capture = args.has("capture");
    const std::string capture_path = args.getPath("capture", "");
    const bool want_replay = args.has("replay");
    const std::string replay_path = args.getPath("replay", "");
    const bool matrix = workload_name == "all" && !want_replay;

    RunArgs run = parseRunArgs(args, "", 10000, !matrix);
    RunnerConfig& cfg = run.cfg;
    cfg.aging.ageFraction = args.getDouble("age", 0.0);
    cfg.tracePath = args.getPath("trace", "");
    const bool want_heatmap = args.has("heatmap");
    cfg.lineCounters = args.getBool("line-counters", false) || want_heatmap;
    const std::string heatmap_kind_name =
        args.getString("heatmap", "writes");
    const unsigned heatmap_bins =
        static_cast<unsigned>(args.getInt("heatmap-bins", 64));
    const bool has_heatmap_csv = args.has("heatmap-csv");
    const std::string heatmap_csv_arg = args.getPath("heatmap-csv", "");
    const bool has_heatmap_pgm = args.has("heatmap-pgm");
    const std::string heatmap_pgm_arg = args.getPath("heatmap-pgm", "");
    if (matrix && want_heatmap)
        SDPCM_FATAL("--heatmap maps one run; --workload=all runs a matrix");

    const SchemeConfig scheme =
        schemeByName(args.getString("scheme", "lazyc+preread"), args);

    // All supported flags have been read; a typo'd option fails fast
    // here instead of silently no-oping.
    args.finishParsing();

    if (want_capture) {
        const WorkloadSpec spec = workloadFromProfile(workload_name);
        auto stream = spec.makeStream(0, cfg.seed);
        TraceFileWriter writer(capture_path);
        const auto written = writer.capture(*stream, cfg.refsPerCore);
        std::cout << "captured " << written << " records of '"
                  << workload_name << "' to " << capture_path << "\n";
        return 0;
    }

    if (matrix) {
        // Matrix mode: the scheme over every Table 3 workload, fanned
        // out across --jobs workers with ordered progress on stderr.
        const auto workloads = standardWorkloads();
        std::vector<std::string> names;
        for (const auto& w : workloads)
            names.push_back(w.name);
        if (logEnabled(LogLevel::Info)) {
            std::cout << "scheme " << scheme.name << ", "
                      << workloads.size() << " workloads, " << cfg.cores
                      << " cores x " << cfg.refsPerCore << " refs, "
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
        for (const auto& name : names) {
            const RunMetrics& m = results.front().at(name);
            t.addRow({name, TablePrinter::fmt(m.meanCpi, 3),
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
        return finishRun("sdpcm_cli", cfg, run.out, results, names);
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
                  << cfg.refsPerCore << " refs";
        if (cfg.faults.any())
            std::cout << ", inject " << cfg.faults.describe();
        std::cout << "\n\n";
    }
    // A single run is a 1x1 matrix for the shared finisher.
    const std::vector<SchemeResults> results = {
        {scheme.name, {{spec.name, runOne(scheme, spec, cfg)}}}};
    const RunMetrics& m = results.front().at(spec.name);
    m.toSnapshot().dump(std::cout);

    if (!cfg.tracePath.empty()) {
        SDPCM_PROGRESS("trace written to ", cfg.tracePath,
                       " (load in https://ui.perfetto.dev)");
    }
    if (!cfg.telemetry.path.empty()) {
        SDPCM_PROGRESS("telemetry stream written to ",
                       cfg.telemetry.path);
    }
    if (!cfg.telemetry.promPath.empty()) {
        SDPCM_PROGRESS("prometheus exposition written to ",
                       cfg.telemetry.promPath);
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
    return finishRun("sdpcm_cli", cfg, run.out, results);
}
