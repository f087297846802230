/**
 * @file
 * The unified p5sim driver: every paper table/figure, the ablation
 * studies, the simulator perf report, single-pair runs with full stat
 * dumps and multi-axis config sweeps behind one binary with
 * subcommands (tools/p5sim).
 *
 * All per-invocation state (output streams, the --csv preference, the
 * --json destination, config provenance) lives in an explicit
 * DriverContext that is threaded through the subcommand handlers —
 * there are no process-wide mutable globals, so tests drive the whole
 * CLI in-process and concurrently.
 */

#ifndef P5SIM_DRIVER_DRIVER_HH
#define P5SIM_DRIVER_DRIVER_HH

#include <cstdint>
#include <iostream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace p5 {

/**
 * Per-invocation driver state (replaces the old bench_common.hh
 * csvFlag()/jsonPath() process-wide statics).
 */
struct DriverContext
{
    /** Emit CSV instead of ASCII tables. */
    bool csv = false;

    /** Destination of the machine-readable report ("" = off). */
    std::string jsonPath;

    /** Human-readable output (tables, run summaries). */
    std::ostream *out = &std::cout;

    /** Diagnostics. */
    std::ostream *err = &std::cerr;

    /** Query input for the serve subcommand's line protocol. */
    std::istream *in = &std::cin;

    // Provenance stamped into every JSON report.
    std::string fingerprint;     ///< hex config-tree fingerprint
    std::uint64_t seed = 0;      ///< exp.seed of the effective config
    /** Sweep coordinates ("" outside the sweep subcommand). */
    std::vector<std::pair<std::string, std::string>> sweep;
};

/**
 * Entry point of the p5sim binary: argv[1] selects the subcommand
 * (table1..table4, fig2..fig6, ablation, perf, run, sweep, serve), the
 * rest are its flags. Returns the process exit code; all user errors
 * are fatal() (exit 1) like the rest of the CLI surface. @p in feeds
 * the serve subcommand's line protocol (tests inject a stringstream).
 */
int driverMain(int argc, const char *const *argv,
               std::ostream &out = std::cout,
               std::ostream &err = std::cerr,
               std::istream &in = std::cin);

/** What one `p5sim perf` row simulates, counted over the whole row. */
struct PerfOutcome
{
    std::uint64_t cycles = 0;     ///< simulated cycles
    std::uint64_t instrs = 0;     ///< committed (FAME: accounted) instrs
    std::uint64_t migrations = 0; ///< thread migrations (chip row)
    std::uint64_t warms = 0;      ///< checkpoint warm-ups
    std::uint64_t forks = 0;      ///< in-memory checkpoint forks
};

/** What a `p5sim perf` row promises: its exact outcome and the
 *  reference/feature wall-time ratio the feature must reach. */
struct PerfGate
{
    const char *name = "";
    double floor = 0;
    PerfOutcome expect;
};

/** One measured row: each arm's best wall time over interleaved runs. */
struct PerfMeasurement
{
    bool identical = true; ///< every run of both arms had the same stats
    int reps = 0;          ///< interleaved repetitions of each arm
    std::uint64_t referenceCycles = 0; ///< the reference arm's
    PerfOutcome outcome;               ///< the feature arm's
    double referenceMs = 0;
    double featureMs = 0;

    double speedup() const { return referenceMs / featureMs; }
};

/**
 * The gate `p5sim perf` enforces on one row: identical stats and sim
 * cycles across the arms, exactly the expected outcome, and a speedup
 * at or above the floor. Returns one line per violation (empty = pass).
 */
std::vector<std::string> perfViolations(const PerfGate &gate,
                                        const PerfMeasurement &m);

} // namespace p5

#endif // P5SIM_DRIVER_DRIVER_HH
