/**
 * @file
 * Figure 14: performance degradation across the DIMM lifetime. As the
 * DIMM ages, stuck-at cells claim ECP entries (hard errors have
 * priority), leaving LazyCorrection fewer slots to park WD errors and
 * forcing more correction writes.
 *
 * Paper reference: ~0.2% degradation as the DIMM approaches its lifetime
 * limit — negligible against the capacity loss of an aging DIMM.
 */

#include "bench_common.hh"

using namespace sdpcm;
using namespace sdpcm::bench;

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv);
    const RunArgs run = parseRunArgs(args);
    const RunnerConfig& cfg = run.cfg;
    args.finishParsing();
    banner("Figure 14: performance across the DIMM lifetime (LazyC)",
           cfg);

    const std::vector<double> ages = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    const auto workloads = standardWorkloads();

    TablePrinter t({"lifetime consumed", "gmean CPI",
                    "normalised performance", "corrections/write",
                    "hard errors materialised"});
    double fresh_cpi = 0.0;
    std::vector<SchemeResults> rows;
    for (const double age : ages) {
        RunnerConfig aged = cfg;
        aged.aging.ageFraction = age;
        std::fprintf(stderr, "running age %.0f%%", age * 100.0);
        const SchemeResults& res = rows.emplace_back(renamed(
            runScheme(SchemeConfig::lazyC(), workloads, aged),
            "LazyC age " + TablePrinter::pct(age, 0)));
        std::fprintf(stderr, " done\n");

        std::vector<double> cpis;
        double corr = 0.0;
        std::uint64_t hard = 0;
        for (const auto& [name, m] : res.byWorkload) {
            cpis.push_back(m.meanCpi);
            corr += m.correctionsPerWrite();
            hard += m.device.hardErrors;
        }
        const double gm = geomean(cpis);
        if (age == 0.0)
            fresh_cpi = gm;
        t.addRow({TablePrinter::pct(age, 0), TablePrinter::fmt(gm, 3),
                  TablePrinter::fmt(fresh_cpi / gm, 4),
                  TablePrinter::fmt(corr / res.byWorkload.size(), 4),
                  std::to_string(hard)});
    }
    t.print(std::cout);

    std::cout << "\n(paper: ~0.2% degradation at end of life; hard "
                 "errors consume ECP entries, shrinking LazyC's parking "
                 "space)\n";
    return finishRun("bench_fig14", cfg, run.out, rows);
}
