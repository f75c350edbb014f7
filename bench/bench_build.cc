/**
 * @file
 * Build-system bench: phase makespans, cold-object cache effectiveness and
 * the wall-clock speedup of the parallel per-function layout loop.  Emits
 * BENCH_build.json so CI tracks the perf trajectory over time.
 *
 * Usage: bench_build [output.json]
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "common.h"
#include "propeller/addr_map_index.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "sched/sched.h"

using namespace propeller;

namespace {

/** The workload whose layout loop is timed: its hot set is large enough
 *  for the per-function work to outweigh starting the loop's threads. */
constexpr const char *kLayoutWorkload = "bigtable";

/**
 * Median wall-clock seconds of the per-function layout loop
 * (core::computeLayout) over a DCFG and index built once, untimed.
 */
double
timeLayout(const core::WholeProgramDcfg &dcfg,
           const core::AddrMapIndex &index, unsigned threads, int reps)
{
    std::vector<double> secs;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        core::LayoutResult layout =
            core::computeLayout(dcfg, index, {}, threads);
        auto t1 = std::chrono::steady_clock::now();
        secs.push_back(std::chrono::duration<double>(t1 - t0).count());
        // Keep the result alive past the timestamp.
        if (layout.hotFunctions.empty())
            std::printf("(no hot functions?)\n");
    }
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_build.json";
    bench::printHeader(
        "BENCH build", "relink workflow cost and parallel layout",
        "cold objects come from the content cache, so the Phase 4 relink "
        "is far cheaper than a full build; WPA is per-function and "
        "parallelizes");

    buildsys::Workflow &wf = bench::workflowFor("clang");
    wf.baseline();
    wf.propellerBinary();

    std::printf("\n%-16s %12s %9s %9s\n", "phase", "makespan", "actions",
                "cached");
    static const char *kPhases[] = {
        "phase1",       "phase2.codegen", "baseline.link",
        "phase3.collect", "phase3.wpa",   "phase4.codegen",
        "phase4.link",
    };
    for (const char *phase : kPhases) {
        const buildsys::PhaseReport &r = wf.report(phase);
        std::printf("%-16s %9.1f min %9u %9u\n", phase,
                    r.makespanMinutes(), r.actions, r.cacheHits);
    }

    const buildsys::CacheStats &cache = wf.cacheStats();
    std::printf("\nartifact cache: %.0f%% hit rate (%llu hits / %llu "
                "lookups), %s stored\n",
                cache.hitRate() * 100.0,
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.hits + cache.misses),
                formatBytes(cache.storedBytes).c_str());

    buildsys::Workflow &lwf = bench::workflowFor(kLayoutWorkload);
    const core::AddrMapIndex index(lwf.metadataBinary());
    const core::WholeProgramDcfg dcfg =
        core::buildDcfg(profile::aggregate(lwf.profile()), index);
    const int kReps = 21;
    double t1 = timeLayout(dcfg, index, 1, kReps);
    double t4 = timeLayout(dcfg, index, 4, kReps);
    double speedup = t4 > 0.0 ? t1 / t4 : 0.0;
    std::printf("\nlayout loop wall clock on %s, %zu functions (median of "
                "%d): %.2f ms at 1 thread, %.2f ms at 4 threads — %.2fx\n",
                kLayoutWorkload, dcfg.functions.size(), kReps, t1 * 1e3,
                t4 * 1e3, speedup);
    std::printf("(hardware threads available: %u; speedup needs >= 4)\n",
                sched::resolveThreadCount(0));

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n  \"workload\": \"clang\",\n");
    std::fprintf(out, "  \"phase_makespan_sec\": {\n");
    for (size_t i = 0; i < std::size(kPhases); ++i) {
        std::fprintf(out, "    \"%s\": %.3f%s\n", kPhases[i],
                     wf.report(kPhases[i]).makespanSec,
                     i + 1 < std::size(kPhases) ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"cache_hit_rate\": %.4f,\n", cache.hitRate());
    std::fprintf(out, "  \"cache_stored_bytes\": %llu,\n",
                 static_cast<unsigned long long>(cache.storedBytes));
    std::fprintf(out, "  \"layout_workload\": \"%s\",\n", kLayoutWorkload);
    std::fprintf(out, "  \"layout_wall_sec_1_thread\": %.6f,\n", t1);
    std::fprintf(out, "  \"layout_wall_sec_4_threads\": %.6f,\n", t4);
    std::fprintf(out, "  \"layout_speedup_4_threads\": %.3f,\n", speedup);
    std::fprintf(out, "  \"hardware_threads\": %u\n",
                 sched::resolveThreadCount(0));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);
    return 0;
}
