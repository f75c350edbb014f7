/**
 * @file
 * Task-graph relink engine gate: on bigtable at 8 modelled workers the
 * work-stealing schedule must land within 1.03x of the critical-path
 * lower bound, beat the barrier sum — the sum of the run's own
 * phase3.wpa, phase4.codegen and phase4.link reports, each of which
 * models its phase alone, so the sum is the relink with a barrier
 * between phases — and ship byte-identical artifacts at every worker
 * count.
 *
 * Incremental-relink gates (the layout memoization tier):
 *  - a warm rerun against the cold run's cache must hit for every
 *    function (layout hit rate 1.0), cut layout+codegen modelled work
 *    by >= 3x, and stay byte-identical at jobs {1, 2, 8};
 *  - a 10%-drifted profile must miss for exactly the drifted functions
 *    and match a cold run on the same drifted profile byte for byte;
 *  - with --cache FILE the cold run persists its cache image; a second
 *    process pointed at the same file demonstrates the cross-process
 *    warm path (persisted_cache_loaded / persisted_layout_hit_rate).
 *    Without --cache the warm runs use a temporary image next to the
 *    output file, deleted before exit.
 *
 * Emits BENCH_taskgraph.json so CI tracks the schedule-quality and
 * memoization trajectory over time; --trace FILE additionally exports
 * the modelled schedule as a Chrome trace_event JSON.
 *
 * Usage: bench_taskgraph [output.json] [--cache FILE] [--trace FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "propeller/addr_map_index.h"
#include "sched/sched.h"

using namespace propeller;

namespace {

constexpr const char *kWorkload = "bigtable";
constexpr double kRatioGate = 1.03;
constexpr double kWarmSpeedupGate = 3.0;

/** Everything one engine run can vary on. */
struct EngineParams
{
    unsigned jobs = 8;
    uint32_t workers = 8;
    /** Seed the artifact cache from this image before the run. */
    const char *loadCache = nullptr;
    /** Persist the artifact cache image here after the run. */
    const char *saveCache = nullptr;
    /** Replace the collected profile (drift injection). */
    const profile::Profile *profileOverride = nullptr;
    /** Export the modelled schedule as a Chrome trace. */
    const char *tracePath = nullptr;
};

/** One engine run: shipped bytes, modelled schedule, relink wall clock. */
struct RunOutcome
{
    std::vector<uint8_t> text;
    double wallSec = 0.0;
    double modelMakespanSec = 0.0;
    double lowerBoundSec = 0.0;
    double criticalPathSec = 0.0;
    double efficiency = 0.0;
    uint64_t steals = 0;
    uint64_t stealAttempts = 0;
    double stealHitRate = 1.0;
    std::vector<double> workerIdleSec;
    uint32_t tasks = 0;
    bool cacheLoaded = false;
    uint64_t layoutHits = 0;
    uint64_t layoutMisses = 0;
    /** Sum of the three relink phase reports' makespans. */
    double barrierSumSec = 0.0;
    std::vector<sched::TaskSpan> spans;
    std::vector<std::pair<std::string, sched::ScheduleReport::Window>>
        windows;

    double
    layoutHitRate() const
    {
        uint64_t total = layoutHits + layoutMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(layoutHits) /
                                static_cast<double>(total);
    }

    /** Modelled work of the memoizable stages: per-function layout
     *  spans plus the codegen phase. */
    double
    layoutCodegenWorkSec() const
    {
        double work = 0.0;
        for (const sched::TaskSpan &s : spans) {
            if (s.phase == "phase4.codegen" ||
                (s.phase == "phase3.wpa" &&
                 s.label.rfind("layout:", 0) == 0))
                work += s.costSec;
        }
        return work;
    }
};

RunOutcome
runEngine(const EngineParams &p)
{
    workload::WorkloadConfig cfg = workload::configByName(kWorkload);
    cfg.jobs = p.jobs;
    buildsys::Workflow wf(cfg);

    // The gate is specified at 8 workers; bigtable's distributed build
    // would otherwise model 40.
    buildsys::BuildLimits limits;
    limits.workers = p.workers;
    wf.setBuildLimits(limits);

    RunOutcome out;
    if (p.loadCache)
        out.cacheLoaded = wf.loadCacheFile(p.loadCache);
    if (p.profileOverride)
        wf.overrideProfile(*p.profileOverride);

    // Prime the serial upstream phases so the wall clock below times
    // the relink (WPA + codegen + link), not profile collection.
    wf.metadataBinary();
    wf.profile();

    auto t0 = std::chrono::steady_clock::now();
    out.text = wf.propellerBinary().text;
    auto t1 = std::chrono::steady_clock::now();
    out.wallSec = std::chrono::duration<double>(t1 - t0).count();
    out.layoutHits = wf.layoutCacheStats().hits;
    out.layoutMisses = wf.layoutCacheStats().misses;
    if (p.saveCache)
        wf.saveCacheFile(p.saveCache);

    const sched::ScheduleReport &s = wf.relinkSchedule();
    out.modelMakespanSec = s.makespanSec;
    out.lowerBoundSec = s.lowerBoundSec;
    out.criticalPathSec = s.criticalPathSec;
    out.efficiency = s.parallelEfficiency;
    out.steals = s.steals;
    out.stealAttempts = s.stealAttempts;
    out.stealHitRate = s.stealHitRate();
    out.workerIdleSec = s.workerIdleSec;
    out.tasks = s.tasksExecuted;
    out.spans = s.spans;
    for (const char *phase :
         {"phase3.wpa", "phase4.codegen", "phase4.link"}) {
        out.barrierSumSec += wf.report(phase).makespanSec;
        out.windows.push_back({phase, s.phaseWindow(phase)});
    }
    if (p.tracePath && !sched::writeChromeTrace(s, p.tracePath))
        std::printf("warning: cannot write trace %s\n", p.tracePath);
    return out;
}

/**
 * A lightly drifted profile: for roughly every 10th sampled function,
 * append one single-record sample duplicating an existing
 * *intra-function* branch (target at a non-entry block start, so the
 * mapper classifies it as a plain branch).  Only those functions'
 * branch weights — and hence layout fingerprints — change.
 * @return the number of drifted functions via @p drifted_out.
 */
profile::Profile
makeDriftedProfile(const profile::Profile &prof,
                   const linker::Executable &pm, size_t *drifted_out)
{
    core::AddrMapIndex index(pm);
    profile::Profile drifted = prof;
    std::set<uint32_t> seen;
    std::set<uint32_t> chosen;
    std::vector<profile::BranchRecord> extras;
    for (const profile::LbrSample &sample : prof.samples) {
        for (uint8_t r = 0; r < sample.count; ++r) {
            const profile::BranchRecord &rec = sample.records[r];
            auto bf = index.lookup(rec.from);
            auto bt = index.lookup(rec.to);
            if (!bf || !bt || bf->funcIndex != bt->funcIndex)
                continue;
            if (bt->blockStart != rec.to ||
                bt->bbId == index.entryBlock(bt->funcIndex))
                continue;
            if (!seen.insert(bf->funcIndex).second)
                continue;
            if (seen.size() % 10 != 1)
                continue; // every 10th distinct eligible function
            chosen.insert(bf->funcIndex);
            extras.push_back(rec);
        }
    }
    for (const profile::BranchRecord &rec : extras) {
        profile::LbrSample sample;
        sample.records[0] = rec;
        sample.count = 1;
        drifted.samples.push_back(sample);
    }
    *drifted_out = chosen.size();
    return drifted;
}

bool
fileExists(const char *path)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return false;
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = "BENCH_taskgraph.json";
    const char *cache_path = nullptr;
    const char *trace_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc)
            cache_path = argv[++i];
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else
            out_path = argv[i];
    }

    bench::printHeader(
        "BENCH taskgraph", "incremental relink on the task graph",
        "profile ingestion, WPA, codegen, link and verify share one "
        "dependency-ordered schedule with critical-path-priority "
        "stealing, and per-function layouts memoize in the artifact "
        "cache, so a relink with an unchanged or lightly drifted "
        "profile re-does only the work the profile actually touched");

    // ---- Cross-process warm check (before this run overwrites the
    // cache image).
    bool persisted_loaded = false;
    double persisted_hit_rate = 0.0;
    std::vector<uint8_t> persisted_text;
    if (cache_path && fileExists(cache_path)) {
        EngineParams p;
        p.loadCache = cache_path;
        RunOutcome persisted = runEngine(p);
        persisted_loaded = persisted.cacheLoaded;
        persisted_hit_rate = persisted.layoutHitRate();
        persisted_text = std::move(persisted.text);
    }

    // ---- Cold runs ------------------------------------------------------
    const char *save_path = cache_path;
    RunOutcome graph1 = runEngine({1});
    RunOutcome graph2 = runEngine({2});
    RunOutcome graph8 =
        runEngine({8, 8, nullptr, save_path, nullptr, trace_path});

    bool bytes_identical =
        graph1.text == graph8.text && graph2.text == graph8.text;
    double ratio = graph8.lowerBoundSec > 0.0
                       ? graph8.modelMakespanSec / graph8.lowerBoundSec
                       : 1.0;
    double speedup = graph8.modelMakespanSec > 0.0
                         ? graph8.barrierSumSec / graph8.modelMakespanSec
                         : 0.0;

    std::printf("\n%s relink, %u tasks, 8 modelled workers:\n", kWorkload,
                graph8.tasks);
    std::printf("  %-26s %10.1f s\n", "critical path",
                graph8.criticalPathSec);
    std::printf("  %-26s %10.1f s\n", "lower bound",
                graph8.lowerBoundSec);
    std::printf("  %-26s %10.1f s  (%.3fx bound, gate <= %.2fx)\n",
                "task-graph makespan", graph8.modelMakespanSec, ratio,
                kRatioGate);
    std::printf("  %-26s %10.1f s  (%.2fx slower than task graph)\n",
                "barrier phase sum", graph8.barrierSumSec, speedup);
    std::printf("  %-26s %9.0f%%\n", "parallel efficiency",
                graph8.efficiency * 100.0);

    std::printf("\nphase overlap windows (modelled, would be disjoint "
                "under barriers):\n");
    for (const auto &[phase, win] : graph8.windows)
        std::printf("  %-16s [%7.1f, %7.1f] s\n", phase.c_str(),
                    win.startSec, win.endSec);
    std::vector<sched::TaskSpan> top = graph8.spans;
    std::sort(top.begin(), top.end(),
              [](const sched::TaskSpan &a, const sched::TaskSpan &b) {
                  return a.costSec > b.costSec;
              });
    std::printf("costliest tasks:\n");
    for (size_t i = 0; i < top.size() && i < 8; ++i)
        std::printf("  %-24s %7.2f s  [%7.1f, %7.1f]\n",
                    top[i].label.c_str(), top[i].costSec,
                    top[i].startSec, top[i].endSec);

    // Makespan vs. modelled workers: how the graph and the barrier sum
    // scale as the build system grants more executors (EXPERIMENTS.md
    // table).
    const uint32_t kWorkerSweep[] = {1, 2, 4, 8, 16};
    std::vector<double> sweep_graph, sweep_barrier;
    std::printf("\nmakespan vs modelled workers (graph vs barrier "
                "sum):\n  %-8s %12s %14s %8s\n", "workers",
                "task graph", "barrier sum", "speedup");
    for (uint32_t w : kWorkerSweep) {
        RunOutcome run = w == 8 ? graph8 : runEngine({8, w});
        double g = run.modelMakespanSec;
        double b = run.barrierSumSec;
        sweep_graph.push_back(g);
        sweep_barrier.push_back(b);
        std::printf("  %-8u %10.1f s %12.1f s %7.2fx\n", w, g, b,
                    g > 0.0 ? b / g : 0.0);
    }

    // ---- Warm rerun: the layout memoization tier ------------------------
    //
    // Re-run against the cold run's cache image at jobs {1, 2, 8}: every
    // per-function layout must hit (decode instead of Ext-TSP), every
    // codegen action must hit, and the shipped bytes must not move.
    const std::string tmp_cache =
        cache_path ? std::string(cache_path)
                   : std::string(out_path) + ".cache";
    if (!cache_path) {
        // The cold jobs=8 run only saved when --cache was given.
        EngineParams p;
        p.saveCache = tmp_cache.c_str();
        runEngine(p);
    }
    EngineParams warm_params;
    warm_params.loadCache = tmp_cache.c_str();
    warm_params.jobs = 1;
    RunOutcome warm1 = runEngine(warm_params);
    warm_params.jobs = 2;
    RunOutcome warm2 = runEngine(warm_params);
    warm_params.jobs = 8;
    RunOutcome warm8 = runEngine(warm_params);
    const uint64_t layout_functions =
        warm8.layoutHits + warm8.layoutMisses;
    bool warm_identical = warm1.text == graph8.text &&
                          warm2.text == graph8.text &&
                          warm8.text == graph8.text;
    bool warm_all_hits =
        warm8.layoutMisses == 0 && warm8.layoutHits > 0 &&
        warm1.layoutMisses == 0 && warm2.layoutMisses == 0;
    double cold_stage_work = graph8.layoutCodegenWorkSec();
    double warm_stage_work = warm8.layoutCodegenWorkSec();
    double warm_speedup = warm_stage_work > 0.0
                              ? cold_stage_work / warm_stage_work
                              : 0.0;

    std::printf("\nwarm rerun against the cold cache image:\n");
    std::printf("  %-26s %10llu / %llu\n", "layout hits (jobs=8)",
                static_cast<unsigned long long>(warm8.layoutHits),
                static_cast<unsigned long long>(layout_functions));
    std::printf("  %-26s %10.1f s cold -> %.1f s warm  (%.1fx, gate >= "
                "%.1fx)\n",
                "layout+codegen work", cold_stage_work, warm_stage_work,
                warm_speedup, kWarmSpeedupGate);
    std::printf("  %-26s %10.1f s  (cold %.1f s)\n", "warm makespan",
                warm8.modelMakespanSec, graph8.modelMakespanSec);
    std::printf("  byte-identical to cold at jobs {1,2,8}: %s\n",
                warm_identical ? "yes" : "NO");

    // ---- Drifted profile: only the drift misses -------------------------
    size_t drift_functions = 0;
    profile::Profile drifted;
    {
        workload::WorkloadConfig cfg = workload::configByName(kWorkload);
        cfg.jobs = 8;
        buildsys::Workflow ref(cfg);
        buildsys::BuildLimits limits;
        limits.workers = 8;
        ref.setBuildLimits(limits);
        drifted = makeDriftedProfile(ref.profile(), ref.metadataBinary(),
                                     &drift_functions);
    }
    EngineParams drift_warm_params;
    drift_warm_params.loadCache = tmp_cache.c_str();
    drift_warm_params.profileOverride = &drifted;
    RunOutcome drift_warm = runEngine(drift_warm_params);
    if (!cache_path)
        std::remove(tmp_cache.c_str());
    EngineParams drift_cold_params;
    drift_cold_params.profileOverride = &drifted;
    RunOutcome drift_cold = runEngine(drift_cold_params);

    bool drift_misses_exact =
        drift_functions > 0 &&
        drift_warm.layoutMisses == drift_functions &&
        drift_warm.layoutHits + drift_warm.layoutMisses ==
            layout_functions;
    bool drift_identical = drift_warm.text == drift_cold.text;
    std::printf("\ndrifted profile (%zu of %llu functions perturbed):\n",
                drift_functions,
                static_cast<unsigned long long>(layout_functions));
    std::printf("  %-26s %10llu  (expected %zu)\n", "layout misses",
                static_cast<unsigned long long>(drift_warm.layoutMisses),
                drift_functions);
    std::printf("  %-26s %10.3f\n", "layout hit rate",
                drift_warm.layoutHitRate());
    std::printf("  byte-identical to a cold drifted run: %s\n",
                drift_identical ? "yes" : "NO");

    std::printf("\nsteal efficiency (real execution, jobs=8 cold):\n");
    std::printf("  %-26s %llu / %llu  (%.3f hit rate)\n", "steals",
                static_cast<unsigned long long>(graph8.steals),
                static_cast<unsigned long long>(graph8.stealAttempts),
                graph8.stealHitRate);
    std::printf("  %-26s", "worker idle sec");
    for (double idle : graph8.workerIdleSec)
        std::printf(" %.3f", idle);
    std::printf("\n");

    std::printf("\nwall clock of the real relink (this machine):\n");
    std::printf("  jobs=1 %.2fs   jobs=2 %.2fs   jobs=8 %.2fs\n",
                graph1.wallSec, graph2.wallSec, graph8.wallSec);
    std::printf("\nartifacts byte-identical across jobs {1,2,8}: %s\n",
                bytes_identical ? "yes" : "NO");
    if (cache_path)
        std::printf("persisted cache image: %s (pre-existing image "
                    "loaded: %s, layout hit rate %.3f)\n",
                    cache_path, persisted_loaded ? "yes" : "no",
                    persisted_hit_rate);

    bool ratio_ok = ratio <= kRatioGate;
    bool beats_barrier = graph8.modelMakespanSec < graph8.barrierSumSec;
    bool warm_speedup_ok = warm_speedup >= kWarmSpeedupGate;
    bool persisted_ok =
        !persisted_loaded ||
        (persisted_hit_rate == 1.0 && persisted_text == graph8.text);

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"workload\": \"%s\",\n", kWorkload);
    std::fprintf(out, "  \"model_workers\": 8,\n");
    std::fprintf(out, "  \"tasks\": %u,\n", graph8.tasks);
    std::fprintf(out, "  \"critical_path_sec\": %.3f,\n",
                 graph8.criticalPathSec);
    std::fprintf(out, "  \"lower_bound_sec\": %.3f,\n",
                 graph8.lowerBoundSec);
    std::fprintf(out, "  \"makespan_sec\": %.3f,\n",
                 graph8.modelMakespanSec);
    std::fprintf(out, "  \"makespan_over_lower_bound\": %.4f,\n", ratio);
    std::fprintf(out, "  \"ratio_gate\": %.2f,\n", kRatioGate);
    std::fprintf(out, "  \"barrier_phase_sum_sec\": %.3f,\n",
                 graph8.barrierSumSec);
    std::fprintf(out, "  \"speedup_over_barrier\": %.4f,\n", speedup);
    std::fprintf(out, "  \"parallel_efficiency\": %.4f,\n",
                 graph8.efficiency);
    std::fprintf(out, "  \"wall_sec_jobs1\": %.4f,\n", graph1.wallSec);
    std::fprintf(out, "  \"wall_sec_jobs2\": %.4f,\n", graph2.wallSec);
    std::fprintf(out, "  \"wall_sec_jobs8\": %.4f,\n", graph8.wallSec);
    std::fprintf(out, "  \"steals_jobs8\": %llu,\n",
                 static_cast<unsigned long long>(graph8.steals));
    std::fprintf(out, "  \"steal_attempts_jobs8\": %llu,\n",
                 static_cast<unsigned long long>(graph8.stealAttempts));
    std::fprintf(out, "  \"steal_hit_rate_jobs8\": %.4f,\n",
                 graph8.stealHitRate);
    std::fprintf(out, "  \"worker_idle_sec_jobs8\": [");
    for (size_t i = 0; i < graph8.workerIdleSec.size(); ++i)
        std::fprintf(out, "%s%.4f", i ? ", " : "",
                     graph8.workerIdleSec[i]);
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"worker_sweep\": [1, 2, 4, 8, 16],\n");
    std::fprintf(out, "  \"sweep_graph_makespan_sec\": [");
    for (size_t i = 0; i < sweep_graph.size(); ++i)
        std::fprintf(out, "%s%.3f", i ? ", " : "", sweep_graph[i]);
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"sweep_barrier_makespan_sec\": [");
    for (size_t i = 0; i < sweep_barrier.size(); ++i)
        std::fprintf(out, "%s%.3f", i ? ", " : "", sweep_barrier[i]);
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"layout_functions\": %llu,\n",
                 static_cast<unsigned long long>(layout_functions));
    std::fprintf(out, "  \"warm_layout_hit_rate\": %.4f,\n",
                 warm8.layoutHitRate());
    std::fprintf(out, "  \"warm_layout_codegen_work_cold_sec\": %.3f,\n",
                 cold_stage_work);
    std::fprintf(out, "  \"warm_layout_codegen_work_warm_sec\": %.3f,\n",
                 warm_stage_work);
    std::fprintf(out, "  \"warm_stage_speedup\": %.4f,\n", warm_speedup);
    std::fprintf(out, "  \"warm_speedup_gate\": %.1f,\n",
                 kWarmSpeedupGate);
    std::fprintf(out, "  \"warm_makespan_sec\": %.3f,\n",
                 warm8.modelMakespanSec);
    std::fprintf(out, "  \"warm_bytes_identical\": %s,\n",
                 warm_identical ? "true" : "false");
    std::fprintf(out, "  \"drift_functions\": %zu,\n", drift_functions);
    std::fprintf(out, "  \"drift_layout_misses\": %llu,\n",
                 static_cast<unsigned long long>(
                     drift_warm.layoutMisses));
    std::fprintf(out, "  \"drift_layout_hit_rate\": %.4f,\n",
                 drift_warm.layoutHitRate());
    std::fprintf(out, "  \"drift_bytes_identical\": %s,\n",
                 drift_identical ? "true" : "false");
    std::fprintf(out, "  \"persisted_cache_loaded\": %s,\n",
                 persisted_loaded ? "true" : "false");
    std::fprintf(out, "  \"persisted_layout_hit_rate\": %.4f,\n",
                 persisted_hit_rate);
    std::fprintf(out, "  \"bytes_identical\": %s,\n",
                 bytes_identical ? "true" : "false");
    std::fprintf(out, "  \"ratio_within_gate\": %s,\n",
                 ratio_ok ? "true" : "false");
    std::fprintf(out, "  \"beats_barrier\": %s\n",
                 beats_barrier ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    bool failed = false;
    if (!bytes_identical) {
        std::printf("GATE FAILED: artifacts differ across worker "
                    "counts\n");
        failed = true;
    }
    if (!ratio_ok) {
        std::printf("GATE FAILED: makespan is %.3fx the lower bound "
                    "(gate %.2fx)\n",
                    ratio, kRatioGate);
        failed = true;
    }
    if (!beats_barrier) {
        std::printf("GATE FAILED: task graph (%.1fs) does not beat the "
                    "barrier phase sum (%.1fs)\n",
                    graph8.modelMakespanSec, graph8.barrierSumSec);
        failed = true;
    }
    if (!warm_identical) {
        std::printf("GATE FAILED: warm rerun artifacts differ from the "
                    "cold run\n");
        failed = true;
    }
    if (!warm_all_hits) {
        std::printf("GATE FAILED: warm rerun missed the layout cache "
                    "(%llu misses)\n",
                    static_cast<unsigned long long>(
                        warm8.layoutMisses));
        failed = true;
    }
    if (!warm_speedup_ok) {
        std::printf("GATE FAILED: warm layout+codegen work only %.2fx "
                    "faster (gate %.1fx)\n",
                    warm_speedup, kWarmSpeedupGate);
        failed = true;
    }
    if (!drift_misses_exact) {
        std::printf("GATE FAILED: drifted run missed %llu layouts, "
                    "expected exactly %zu of %llu\n",
                    static_cast<unsigned long long>(
                        drift_warm.layoutMisses),
                    drift_functions,
                    static_cast<unsigned long long>(layout_functions));
        failed = true;
    }
    if (!drift_identical) {
        std::printf("GATE FAILED: drifted warm run differs from the "
                    "cold drifted run\n");
        failed = true;
    }
    if (!persisted_ok) {
        std::printf("GATE FAILED: persisted cache image served %.3f "
                    "layout hit rate (expected 1.0, identical bytes)\n",
                    persisted_hit_rate);
        failed = true;
    }
    return failed ? 1 : 0;
}
