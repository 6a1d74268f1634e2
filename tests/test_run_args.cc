/**
 * @file
 * Tests for the shared run front end: the flag parser and the finisher
 * that writes a results matrix's outputs and returns its exit code.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/args.hh"
#include "obs/json.hh"
#include "sim/run_args.hh"

namespace sdpcm {
namespace {

ArgParser
parse(std::vector<const char*> argv)
{
    argv.insert(argv.begin(), "prog");
    return ArgParser(static_cast<int>(argv.size()),
                     const_cast<char**>(argv.data()));
}

/** A schemes x workloads matrix of empty cells with the oracle on. */
std::vector<SchemeResults>
matrix(const std::vector<std::string>& schemes,
       const std::vector<std::string>& workloads)
{
    std::vector<SchemeResults> results;
    for (const std::string& scheme : schemes) {
        SchemeResults& row = results.emplace_back();
        row.scheme = scheme;
        for (const std::string& workload : workloads) {
            RunMetrics& m = row.byWorkload[workload];
            m.scheme = scheme;
            m.workload = workload;
            m.oracle.enabled = true;
        }
    }
    return results;
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

TEST(RunArgs, ObserverFlagsTurnTheirObserverOn)
{
    const ArgParser args =
        parse({"--refs=300", "--spans=blame.json", "--wd-top=3",
               "--profile", "--profile-folded=p.folded", "--jobs=2"});
    const RunArgs run = parseRunArgs(args, "REPORT_x.json");
    args.finishParsing();
    EXPECT_EQ(run.cfg.refsPerCore, 300u);
    EXPECT_EQ(run.cfg.jobs, 2u);
    EXPECT_TRUE(run.cfg.spans);
    EXPECT_EQ(run.out.spansJson, "blame.json");
    EXPECT_TRUE(run.cfg.wdLedger);
    EXPECT_EQ(run.out.wdLedgerJson, "");
    EXPECT_EQ(run.out.wdTop, 3u);
    EXPECT_TRUE(run.cfg.profile);
    EXPECT_EQ(run.out.profileJson, ""); // bare: on, no file
    EXPECT_EQ(run.out.profileFolded, "p.folded");
    EXPECT_EQ(run.out.report, "REPORT_x.json");
}

TEST(RunArgs, DefaultsLeaveEveryObserverOff)
{
    const ArgParser args = parse({"--report="});
    const RunArgs run = parseRunArgs(args, "REPORT_x.json", 2000);
    EXPECT_EQ(run.cfg.refsPerCore, 2000u);
    EXPECT_FALSE(run.cfg.spans || run.cfg.wdLedger || run.cfg.profile);
    EXPECT_EQ(run.out.report, ""); // --report= turns the default off
}

TEST(RunArgsDeath, EpochSeriesIsFatalForAMatrix)
{
    const ArgParser args = parse({"--epoch-csv=e.csv"});
    EXPECT_EXIT(parseRunArgs(args), ::testing::ExitedWithCode(1),
                "this run is a matrix");
}

TEST(FinishRun, OracleVerdictIsTheExitCode)
{
    RunnerConfig cfg;
    cfg.verifyOracle = true;
    auto results = matrix({"a", "b"}, {"x", "y"});
    testing::internal::CaptureStdout();
    EXPECT_EQ(finishRun("t", cfg, {}, results), 0);
    EXPECT_NE(testing::internal::GetCapturedStdout().find(
                  "oracle: all cells clean"),
              std::string::npos);

    results[1].byWorkload["x"].oracle.mismatches = 1;
    testing::internal::CaptureStdout();
    EXPECT_EQ(finishRun("t", cfg, {}, results), 1);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("oracle MISMATCH: b / x: 1 mismatch(es)"),
              std::string::npos);

    cfg.verifyOracle = false; // the oracle did not run: no verdict
    EXPECT_EQ(finishRun("t", cfg, {}, results), 0);
}

TEST(FinishRun, WritesCellsInOneOrder)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "sdpcm_finish_run";
    std::filesystem::create_directories(dir);
    RunnerConfig cfg;
    cfg.spans = true;
    RunOutputs out;
    out.report = (dir / "report.json").string();
    out.spansJson = (dir / "spans.json").string();
    const auto results = matrix({"s"}, {"mcf", "lbm"});

    // By workload name unless the tool names an order.
    for (const bool named : {false, true}) {
        const std::vector<std::string> order =
            named ? std::vector<std::string>{"mcf", "lbm"}
                  : std::vector<std::string>{};
        EXPECT_EQ(finishRun("t", cfg, out, results, order), 0);
        const JsonValue report = parseJson(readFile(out.report));
        const JsonValue spans = parseJson(readFile(out.spansJson));
        const auto& runs = report.at("runs").array;
        ASSERT_EQ(runs.size(), 2u);
        EXPECT_EQ(runs[0].at("workload").str, named ? "mcf" : "lbm");
        EXPECT_EQ(report.at("bench").str, "t");
        EXPECT_EQ(spans.at("bench").str, "t");
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sdpcm
