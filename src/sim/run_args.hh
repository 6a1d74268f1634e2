/**
 * @file
 * The run front end shared by sdpcm_cli and every bench binary: one
 * parser for the flags all of them accept and one finisher that writes
 * every observer output a finished results matrix was asked for. A
 * single run is a 1x1 matrix, so a flag means the same thing in every
 * tool. README ("Flags shared by every tool") is the flag reference;
 * DESIGN §6 states how matrix outputs are grouped and labelled.
 */

#ifndef SDPCM_SIM_RUN_ARGS_HH
#define SDPCM_SIM_RUN_ARGS_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace sdpcm {

class ArgParser;

/** Outputs requested on the command line ("" or 0 = not requested). */
struct RunOutputs
{
    std::string report;        //!< --report=FILE, else the tool default
    std::string spansJson;     //!< --spans=FILE (span blame JSON)
    std::string spansFolded;   //!< --spans-folded=FILE
    unsigned spansTop = 0;     //!< --spans-top=N
    std::string wdLedgerJson;  //!< --wd-ledger=FILE
    unsigned wdTop = 0;        //!< --wd-top=N
    std::string profileJson;   //!< --profile=FILE
    std::string profileFolded; //!< --profile-folded=FILE
    unsigned profileTop = 0;   //!< --profile-top=N
    bool epochCsv = false;     //!< --epoch-csv[=FILE] given
    std::string epochCsvPath;  //!< its FILE; "" prints the CSV to stdout
    std::string epochJson;     //!< --epoch-json=FILE
};

/** The parsed shared flags. */
struct RunArgs
{
    RunnerConfig cfg;
    RunOutputs out;
};

/**
 * Read the shared flags (--refs --seed --cores --jobs --quiet
 * --verify-oracle --inject --telemetry* --monitor --watchdog --epoch-*
 * --spans* --wd-* --profile* --endurance --report). Every one is
 * declared, so the tool's finishParsing() accepts them; a malformed
 * value is a fatal usage error before anything runs. A tool passes its
 * own report path for an absent --report and its own --refs default.
 * The epoch series is a series of one run, so --epoch-csv/--epoch-json
 * are fatal unless `single_run`.
 */
RunArgs parseRunArgs(const ArgParser& args,
                     const std::string& default_report = "",
                     std::int64_t default_refs = 10000,
                     bool single_run = false);

/** Machine-varying report extras, ignored by the regression gate. */
using ReportEnvironment = std::vector<std::pair<std::string, double>>;

/**
 * Write every output in `out` for `results`, which `cfg` produced: the
 * run report, and the outputs of each observer `cfg` turned on (span
 * blame JSON, folded stacks and top table; ledger JSON, top table and
 * summary line; profile JSON, folded stacks and top table; telemetry
 * summary line and epoch series). Each scheme's cells are taken in `workload_order`, or by
 * workload name when it is empty. A file that cannot be written is a
 * fatal usage error. Returns the exit code: 1 when the oracle was on
 * and any cell saw a mismatch, else 0.
 */
int finishRun(const std::string& tool, const RunnerConfig& cfg,
              const RunOutputs& out,
              const std::vector<SchemeResults>& results,
              const std::vector<std::string>& workload_order = {},
              const ReportEnvironment& environment = {});

} // namespace sdpcm

#endif // SDPCM_SIM_RUN_ARGS_HH
