/**
 * @file
 * perfbench: measured end-to-end and per-layer benchmark of the Propeller
 * reproduction.  Runs one closed-loop workload for a time budget, checks
 * every op's outputs and writes the raw measurements (and, traced, the
 * spans) as one JSON document; run.py reduces them to named metrics.
 *
 * Usage: perfbench --workload release|fleet --seed N
 *                  --seconds S --trace 0|1 --raw FILE --workdir DIR
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace perfbench {

void
Report::finishOp(const std::vector<std::string> &failed)
{
    ++ops;
    if (failed.empty())
        return;
    ++failedOps;
    for (const std::string &f : failed) {
        if (failures.size() < 20)
            failures.push_back("op " + std::to_string(ops - 1) + ": " + f);
    }
}

std::string
Report::toJson(const Trace &trace) const
{
    std::string j = "{\n \"context\": {";
    const char *sep = "";
    for (const auto &[k, v] : context) {
        j += sep + jsonString(k) + ": " + jsonString(v);
        sep = ", ";
    }
    j += "},\n \"values\": {";
    sep = "";
    for (const auto &[k, v] : values) {
        j += sep + jsonString(k) + ": " + jsonNumber(v);
        sep = ", ";
    }
    j += "},\n \"samples\": {";
    sep = "";
    for (const auto &[k, vs] : samples) {
        j += sep + jsonString(k) + ": [";
        const char *s2 = "";
        for (double v : vs) {
            j += s2 + jsonNumber(v);
            s2 = ", ";
        }
        j += "]";
        sep = ",\n  ";
    }
    j += "},\n \"ops\": " + std::to_string(ops) +
         ",\n \"failed_ops\": " + std::to_string(failedOps) +
         ",\n \"failures\": [";
    sep = "";
    for (const std::string &f : failures) {
        j += sep + jsonString(f);
        sep = ", ";
    }
    j += "],\n \"spans\": [";
    sep = "";
    for (const Span &s : trace.spans()) {
        j += sep;
        j += "{\"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"op\": " + std::to_string(s.op) +
             ", \"name\": " + jsonString(s.name) +
             ", \"start\": " + jsonNumber(s.start) +
             ", \"end\": " + jsonNumber(s.end) +
             ", \"cpu\": " + jsonNumber(s.cpu) +
             ", \"rss_mb\": " + jsonNumber(s.rssMb) + "}";
        sep = ",\n  ";
    }
    j += "],\n \"counters\": [";
    sep = "";
    for (const Counter &c : trace.counters()) {
        j += sep;
        j += "{\"op\": " + std::to_string(c.op) +
             ", \"name\": " + jsonString(c.name) +
             ", \"value\": " + jsonNumber(c.value) + "}";
        sep = ",\n  ";
    }
    j += "]\n}\n";
    return j;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 over (seed, stream).
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

workload::WorkloadConfig
appConfig(uint64_t seed, unsigned jobs)
{
    workload::WorkloadConfig cfg = workload::configByName("bigtable");
    cfg.seed = deriveSeed(seed, 1);
    cfg.jobs = jobs;
    return cfg;
}

double
simCheck(const linker::Executable &baseline,
         const linker::Executable &optimized,
         const workload::WorkloadConfig &config,
         std::vector<std::string> &failed)
{
    const sim::MachineOptions opts = workload::evalOptions(config);
    const sim::RunResult base = sim::run(baseline, opts);
    const sim::RunResult po = sim::run(optimized, opts);
    const sim::Counters &b = base.counters;
    const sim::Counters &p = po.counters;
    if (!base.startupOk || base.fault)
        failed.push_back("baseline failed startup or faulted");
    if (!po.startupOk || po.fault)
        failed.push_back("optimized binary failed startup or faulted");
    if (p.logicalInstructions != b.logicalInstructions ||
        p.condBranches != b.condBranches || p.calls != b.calls ||
        p.returns != b.returns)
        failed.push_back("optimized binary retired a different logical "
                         "stream than the baseline");
    if (p.cycles() == 0)
        return 0.0;
    return (static_cast<double>(b.cycles()) /
                static_cast<double>(p.cycles()) -
            1.0) *
           100.0;
}

} // namespace perfbench

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload release|fleet "
                 "--seed N --seconds S --trace 0|1 --raw FILE "
                 "--workdir DIR\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (val == nullptr)
            return usage("missing value");
        ++i;
        uint64_t n = 0;
        if (std::strcmp(flag, "--workload") == 0) {
            args.workload = val;
        } else if (std::strcmp(flag, "--seed") == 0) {
            if (!parseUnsigned(val, args.seed))
                return usage("bad --seed");
        } else if (std::strcmp(flag, "--seconds") == 0) {
            if (!parseUnsigned(val, n) || n == 0)
                return usage("bad --seconds");
            args.seconds = static_cast<double>(n);
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (!parseUnsigned(val, n) || n > 1)
                return usage("bad --trace");
            args.trace = n == 1;
        } else if (std::strcmp(flag, "--raw") == 0) {
            args.raw = val;
        } else if (std::strcmp(flag, "--workdir") == 0) {
            args.workdir = val;
        } else {
            return usage("unknown flag");
        }
    }
    if (args.raw.empty() || args.workdir.empty())
        return usage("--raw and --workdir are required");
    std::filesystem::create_directories(args.workdir);

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    args.jobs = std::min(4u, nproc);

    Report report;
    report.context = {
        {"workload", args.workload},
        {"seed", std::to_string(args.seed)},
        {"jobs", std::to_string(args.jobs)},
        {"nproc", std::to_string(nproc)},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"traced", args.trace ? "1" : "0"},
    };
    Trace trace(args.trace);

    int rc = 0;
    if (args.workload == "release")
        rc = runRelease(args, report, trace);
    else if (args.workload == "fleet")
        rc = runFleet(args, report, trace);
    else
        return usage("unknown --workload");
    if (rc != 0)
        return rc;

    std::FILE *f = std::fopen(args.raw.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.raw.c_str());
        return 1;
    }
    const std::string json = report.toJson(trace);
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                    json.size();
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "perfbench: short write to %s\n",
                     args.raw.c_str());
        return 1;
    }
    return 0;
}
