/**
 * @file
 * Ablation studies for the modelling choices DESIGN.md calls out:
 *
 *  1. write-driver organisation: fixed per-position windows (default)
 *     vs pooled drivers;
 *  2. the DIN word-line encoder: modelled full-DIN efficacy vs the
 *     group-inversion encoder alone (residual factor 1.0);
 *  3. the cost charged for LazyCorrection's ECP chip update: overlapped
 *     (0 cycles) vs a serialised RESET pulse (400);
 *  4. the drain low watermark: drain-until-empty vs half-queue.
 *
 * Run on a write-heavy subset (gemsFDTD, lbm, zeusmp, mcf) where the
 * choices matter.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

namespace {

std::vector<WorkloadSpec>
writeHeavy()
{
    return {workloadFromProfile("gemsFDTD"), workloadFromProfile("lbm"),
            workloadFromProfile("zeusmp"), workloadFromProfile("mcf")};
}

double
gmeanCpi(const SchemeResults& r)
{
    std::vector<double> cpis;
    for (const auto& [name, m] : r.byWorkload)
        cpis.push_back(m.meanCpi);
    return geomean(cpis);
}

} // namespace

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const RunArgs run = parseRunArgs(args, "", 6000);
    const RunnerConfig& cfg = run.cfg;
    args.finishParsing();
    banner("Ablation studies (write-heavy subset)", cfg);
    const auto workloads = writeHeavy();

    TablePrinter t({"variant", "gmean CPI (DIN)", "gmean CPI (baseline)",
                    "gmean CPI (LazyC)", "baseline/DIN",
                    "avg BL err/adj-line"});

    // Every row run, named after its variant, for the shared outputs.
    std::vector<SchemeResults> rows;
    const auto run_row = [&](const SchemeConfig& scheme,
                             const RunnerConfig& variant,
                             const std::string& name) {
        return rows.emplace_back(
            renamed(runScheme(scheme, workloads, variant),
                    scheme.name + " / " + name));
    };
    auto run_variant = [&](const std::string& name,
                           const RunnerConfig& variant) {
        std::fprintf(stderr, "variant %-32s", name.c_str());
        const auto din = run_row(SchemeConfig::din8F2(), variant, name);
        const auto base =
            run_row(SchemeConfig::baselineVnc(), variant, name);
        const auto lazy = run_row(SchemeConfig::lazyC(), variant, name);
        std::fprintf(stderr, " done\n");
        RunningStat bl;
        for (const auto& [wname, m] : base.byWorkload)
            bl.record(m.device.blErrorsPerAdjacentLine.mean());
        t.addRow({name, TablePrinter::fmt(gmeanCpi(din), 2),
                  TablePrinter::fmt(gmeanCpi(base), 2),
                  TablePrinter::fmt(gmeanCpi(lazy), 2),
                  TablePrinter::fmt(gmeanCpi(base) / gmeanCpi(din), 2),
                  TablePrinter::fmt(bl.mean(), 2)});
    };

    run_variant("default model", cfg);

    {
        RunnerConfig v = cfg;
        v.timing.windowed = false;
        run_variant("pooled write drivers", v);
    }
    {
        RunnerConfig v = cfg;
        v.din.modeledResidualFactor = 1.0;
        run_variant("inversion-only DIN (no modelled residual)", v);
    }
    {
        RunnerConfig v = cfg;
        v.din.groupBits = 8;
        v.din.vulnWeight = 4;
        run_variant("DIN 8-bit groups, weight 4", v);
    }
    t.print(std::cout);

    // Scheme-level knobs (ECP update cost, drain watermark).
    std::cout << "\n--- controller knobs (LazyC / baseline) ---\n\n";
    TablePrinter t2({"variant", "gmean CPI", "vs default"});
    // The default-model rows (rows[1], rows[2]) are the references.
    const double lazy_default = gmeanCpi(rows[2]);
    t2.addRow({"LazyC, overlapped ECP update (default)",
               TablePrinter::fmt(lazy_default, 2), "1.000"});
    {
        SchemeConfig s = SchemeConfig::lazyC();
        s.ecpUpdateCycles = 400;
        const double v =
            gmeanCpi(run_row(s, cfg, "serialised ECP update"));
        t2.addRow({"LazyC, serialised ECP update (400cyc)",
                   TablePrinter::fmt(v, 2),
                   TablePrinter::fmt(lazy_default / v, 3)});
    }
    const double base_default = gmeanCpi(rows[1]);
    t2.addRow({"baseline, 16-write drain bursts (default)",
               TablePrinter::fmt(base_default, 2), "1.000"});
    for (const unsigned burst : {4u, 64u}) {
        SchemeConfig s = SchemeConfig::baselineVnc();
        s.drainBurstWrites = burst;
        const double v = gmeanCpi(run_row(
            s, cfg, std::to_string(burst) + "-write drain bursts"));
        t2.addRow({"baseline, " + std::to_string(burst) +
                       "-write drain bursts",
                   TablePrinter::fmt(v, 2),
                   TablePrinter::fmt(base_default / v, 3)});
    }
    t2.print(std::cout);
    return finishRun("bench_ablation", cfg, run.out, rows);
}
