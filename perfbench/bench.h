#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the perfbench binary: command-line arguments, the raw
 * report handed to run.py, per-op output checks and the app config every
 * workload derives from its seed.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "linker/executable.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

using namespace propeller;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string raw;     ///< Where the raw report is written.
    std::string workdir; ///< Scratch directory for cache images.
    unsigned jobs = 1;   ///< min(4, nproc) worker threads.
};

/**
 * Everything a run measured, before any reduction: per-op samples,
 * run-level values, failures and (traced runs) the spans and counters.
 * run.py turns it into the named metrics.
 */
struct Report
{
    std::map<std::string, std::string> context;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;
    uint64_t ops = 0;
    uint64_t failedOps = 0;
    std::vector<std::string> failures; ///< First failures, for the log.

    /** Count one op and its failed checks (if any). */
    void finishOp(const std::vector<std::string> &failed);

    std::string toJson(const Trace &trace) const;
};

/** A 64-bit seed for stream @p stream of benchmark seed @p seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

/**
 * The bigtable-shaped app (3.7 K functions, 250 modules, 88% cold
 * objects) with its program seed derived from the benchmark seed.
 */
workload::WorkloadConfig appConfig(uint64_t seed, unsigned jobs);

/**
 * Run @p baseline and @p optimized under workload::evalOptions and
 * check that the optimized binary retires the same logical
 * instructions, conditional branches, calls and returns, starts up
 * and does not fault.  Appends a line to @p failed per violation.
 * @return simulated speedup in percent (baseline cycles / optimized
 *         cycles - 1).
 */
double simCheck(const linker::Executable &baseline,
                const linker::Executable &optimized,
                const workload::WorkloadConfig &config,
                std::vector<std::string> &failed);

int runRelease(const Args &args, Report &report, Trace &trace);
int runFleet(const Args &args, Report &report, Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
