/**
 * @file
 * Work-stealing scheduler tests: graph mechanics (release order, cycle
 * rejection, exception routing), the deterministic virtual-time model,
 * OrderedSink sequencing, parallelFor — and the property the whole
 * relink engine rests on: byte-identical results and identical schedule
 * reports at any worker count, over 100 randomized DAGs with forced
 * steals.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build/workflow.h"
#include "faultinject/faultinject.h"
#include "sched/sched.h"
#include "support/hash.h"
#include "test_util.h"

namespace propeller {
namespace {

using sched::OrderedSink;
using sched::ScheduleReport;
using sched::Scheduler;
using sched::SchedulerOptions;
using sched::TaskGraph;
using sched::TaskId;

ScheduleReport
runWith(TaskGraph &graph, unsigned threads, unsigned model_workers = 8)
{
    SchedulerOptions opts;
    opts.threads = threads;
    opts.modelWorkers = model_workers;
    return Scheduler(opts).run(graph);
}

TEST(TaskGraph, EdgesGateExecution)
{
    // A diamond: the join must observe both branches' writes.
    TaskGraph g;
    int a = 0, b = 0, c = 0, d = 0;
    TaskId ta = g.add([&] { a = 1; });
    TaskId tb = g.add([&] { b = a + 1; });
    TaskId tc = g.add([&] { c = a + 2; });
    TaskId td = g.add([&] { d = b + c; });
    g.addEdge(ta, tb);
    g.addEdge(ta, tc);
    g.addEdge(tb, td);
    g.addEdge(tc, td);
    ScheduleReport rep = runWith(g, 4);
    EXPECT_EQ(d, 5);
    EXPECT_EQ(rep.tasksExecuted, 4u);
}

TEST(TaskGraph, CycleIsRejected)
{
    TaskGraph g;
    TaskId ta = g.add([] {});
    TaskId tb = g.add([] {});
    g.addEdge(ta, tb);
    g.addEdge(tb, ta);
    EXPECT_THROW(runWith(g, 2), std::logic_error);
}

TEST(TaskGraph, TaskExceptionRethrownAndDependentsSkipped)
{
    TaskGraph g;
    std::atomic<bool> downstream_ran{false};
    TaskId ta = g.add([] { throw std::runtime_error("task boom"); });
    TaskId tb = g.add([&] { downstream_ran = true; });
    g.addEdge(ta, tb);
    EXPECT_THROW(runWith(g, 2), std::runtime_error);
    EXPECT_FALSE(downstream_ran.load());
}

TEST(TaskGraph, ModelIsDeterministicAcrossThreadCounts)
{
    // The virtual-time schedule depends only on graph shape and costs,
    // so two executions of the same shape at different thread counts
    // must report identical spans, makespan and critical path.
    auto build = [](TaskGraph &g) {
        std::vector<TaskId> layer;
        TaskId root = g.add([] {}, {"root", "p0", 1.0});
        for (int i = 0; i < 12; ++i) {
            TaskId t = g.add([] {}, {"mid", "p1", 0.5 + 0.25 * i});
            g.addEdge(root, t);
            layer.push_back(t);
        }
        TaskId join = g.add([] {}, {"join", "p2", 2.0});
        for (TaskId t : layer)
            g.addEdge(t, join);
    };
    TaskGraph g1, g8;
    build(g1);
    build(g8);
    ScheduleReport r1 = runWith(g1, 1);
    ScheduleReport r8 = runWith(g8, 8);

    EXPECT_DOUBLE_EQ(r1.makespanSec, r8.makespanSec);
    EXPECT_DOUBLE_EQ(r1.criticalPathSec, r8.criticalPathSec);
    EXPECT_DOUBLE_EQ(r1.totalWorkSec, r8.totalWorkSec);
    ASSERT_EQ(r1.spans.size(), r8.spans.size());
    for (size_t i = 0; i < r1.spans.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.spans[i].startSec, r8.spans[i].startSec) << i;
        EXPECT_DOUBLE_EQ(r1.spans[i].endSec, r8.spans[i].endSec) << i;
        EXPECT_EQ(r1.spans[i].worker, r8.spans[i].worker) << i;
    }
    // Critical path: root (1.0) + slowest mid (3.25) + join (2.0).
    EXPECT_DOUBLE_EQ(r1.criticalPathSec, 6.25);
    EXPECT_GE(r1.makespanSec, r1.lowerBoundSec);
}

TEST(TaskGraph, DynamicTasksAddedDuringRun)
{
    // A coordinator task that fans out work it discovers at runtime —
    // the shape the relink engine uses for per-function layout tasks:
    // children are added with deps={self} so none is released before
    // the adder finishes wiring edges to the downstream join.
    TaskGraph g;
    constexpr size_t kChildren = 24;
    std::vector<uint64_t> value(kChildren, 0);
    std::atomic<size_t> ran{0};
    uint64_t joined = 0;

    TaskId join = g.add([&] {
        uint64_t v = 0;
        for (uint64_t x : value)
            v = mix64(v, x);
        joined = v;
    });
    TaskId fan = sched::kInvalidTask;
    fan = g.add([&] {
        for (size_t i = 0; i < kChildren; ++i) {
            TaskId child = g.add(
                [&, i] {
                    value[i] = mix64(0x9e3779b97f4a7c15ull, i);
                    ran.fetch_add(1);
                },
                {"child" + std::to_string(i), "dyn", 0.25}, {fan});
            g.addEdge(child, join);
        }
    });
    g.addEdge(fan, join);

    ScheduleReport rep = runWith(g, 8);
    EXPECT_EQ(ran.load(), kChildren);
    EXPECT_EQ(rep.tasksExecuted, kChildren + 2);
    uint64_t expect = 0;
    for (size_t i = 0; i < kChildren; ++i)
        expect = mix64(expect, mix64(0x9e3779b97f4a7c15ull, i));
    EXPECT_EQ(joined, expect);
    // The model schedules dynamic tasks too: 24 x 0.25s over 8 virtual
    // workers is three full waves.
    EXPECT_DOUBLE_EQ(rep.totalWorkSec, 6.0);
    EXPECT_DOUBLE_EQ(rep.makespanSec, 0.75);
}

TEST(TaskGraph, SetCostFromTaskBodyFeedsTheModel)
{
    TaskGraph g;
    TaskId t = g.add([&g, &t] { g.setCost(t, 4.0); }, {"late", "p", 0.0});
    (void)t;
    ScheduleReport rep = runWith(g, 2);
    EXPECT_DOUBLE_EQ(rep.totalWorkSec, 4.0);
    EXPECT_DOUBLE_EQ(rep.makespanSec, 4.0);
}

TEST(TaskGraph, PhaseWindowCoversPhaseSpans)
{
    TaskGraph g;
    TaskId a = g.add([] {}, {"a", "alpha", 2.0});
    TaskId b = g.add([] {}, {"b", "beta", 3.0});
    g.addEdge(a, b);
    ScheduleReport rep = runWith(g, 2);
    ScheduleReport::Window alpha = rep.phaseWindow("alpha");
    ScheduleReport::Window beta = rep.phaseWindow("beta");
    EXPECT_TRUE(alpha.any);
    EXPECT_DOUBLE_EQ(alpha.startSec, 0.0);
    EXPECT_DOUBLE_EQ(alpha.endSec, 2.0);
    EXPECT_DOUBLE_EQ(beta.startSec, 2.0);
    EXPECT_DOUBLE_EQ(beta.endSec, 5.0);
    EXPECT_FALSE(rep.phaseWindow("gamma").any);
}

TEST(OrderedSinkTest, CommitsRunInSequenceOrderFromAnyThread)
{
    OrderedSink sink;
    std::string out;
    // Submit out of order from racing threads; the sink must serialize
    // the commits as 0,1,2,...,N-1.
    constexpr int kN = 64;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (int i = t; i < kN; i += 8) {
                int seq = kN - 1 - i;
                sink.submit(static_cast<uint64_t>(seq), [&out, seq] {
                    out += std::to_string(seq) + ",";
                });
            }
        });
    }
    for (auto &th : threads)
        th.join();
    std::string expect;
    for (int i = 0; i < kN; ++i)
        expect += std::to_string(i) + ",";
    EXPECT_EQ(out, expect);
    EXPECT_EQ(sink.committed(), static_cast<uint64_t>(kN));
}

// ---- parallelFor ------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (size_t n : {2u, 3u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        sched::parallelFor(4, n, [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(sched::parallelFor(4, 100,
                                    [](size_t i) {
                                        if (i == 37)
                                            throw std::runtime_error("i37");
                                    }),
                 std::runtime_error);
}

TEST(ParallelFor, NestedCallsComplete)
{
    // From a loop body: every outer index runs its own inner loop.
    std::atomic<int> total{0};
    sched::parallelFor(4, 8, [&](size_t) {
        sched::parallelFor(4, 8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);

    // From graph tasks, while the outer run's workers are busy.
    std::atomic<int> inGraph{0};
    TaskGraph g;
    for (int t = 0; t < 4; ++t) {
        g.add([&] {
            sched::parallelFor(3, 16,
                               [&](size_t) { inGraph.fetch_add(1); });
        });
    }
    runWith(g, 4);
    EXPECT_EQ(inGraph.load(), 64);
}

TEST(ParallelFor, SingleThreadRunsInline)
{
    // threads=1 runs every index on the caller, in index order.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    bool onCaller = true;
    sched::parallelFor(1, 5, [&](size_t i) {
        order.push_back(static_cast<int>(i));
        onCaller = onCaller && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(onCaller);
}

// ---- The determinism property, 100 seeds ------------------------------

/**
 * One randomized run: a DAG whose tasks carry data (a hash folded over
 * the inputs), sleep pseudo-random durations to force steals, and
 * commit attribution lines through an OrderedSink.  Returns everything
 * an engine ships: result bytes, sink transcript, schedule metrics.
 */
struct PropertyOutcome
{
    uint64_t resultHash = 0;
    std::string transcript;
    double makespanSec = 0.0;
    double criticalPathSec = 0.0;
    uint64_t tasksExecuted = 0;
};

PropertyOutcome
runRandomDag(uint64_t seed, unsigned threads)
{
    // Deterministic per-seed structure: ~36 tasks, each depending on up
    // to 3 earlier tasks.
    constexpr size_t kTasks = 36;
    TaskGraph g;
    std::vector<uint64_t> value(kTasks, 0);
    std::vector<TaskId> ids(kTasks);
    OrderedSink sink;
    std::string transcript;

    for (size_t i = 0; i < kTasks; ++i) {
        uint64_t h = mix64(seed, i);
        std::vector<size_t> deps;
        if (i > 0) {
            size_t ndeps = h % 4;
            for (size_t d = 0; d < ndeps; ++d)
                deps.push_back(mix64(h, d) % i);
        }
        unsigned sleep_us = static_cast<unsigned>(mix64(h, 99) % 40);
        ids[i] = g.add(
            [&, i, deps, sleep_us, h] {
                // Unequal task durations are what force steals: a worker
                // stuck in a long task loses the rest of its deque.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(sleep_us));
                uint64_t v = h;
                for (size_t d : deps)
                    v = mix64(v, value[d]);
                value[i] = v;
                sink.submit(i, [&transcript, i, v] {
                    // Appends, not "literal" + std::string: GCC 12 at -O3
                    // reports a false -Wrestrict overlap inside the
                    // inlined insert-at-front of that operator+.
                    transcript += "task ";
                    transcript += std::to_string(i);
                    transcript += " -> ";
                    transcript += std::to_string(v % 997);
                    transcript += '\n';
                });
            },
            {std::string("t").append(std::to_string(i)), "prop",
             0.001 * static_cast<double>(h % 100)});
        for (size_t d : deps)
            g.addEdge(ids[d], ids[i]);
    }

    ScheduleReport rep = runWith(g, threads, 8);
    PropertyOutcome out;
    out.resultHash = 0xcbf29ce484222325ull;
    for (uint64_t v : value)
        out.resultHash = mix64(out.resultHash, v);
    out.transcript = std::move(transcript);
    out.makespanSec = rep.makespanSec;
    out.criticalPathSec = rep.criticalPathSec;
    out.tasksExecuted = rep.tasksExecuted;
    return out;
}

TEST(SchedulerProperty, HundredSeedsIdenticalAcrossWorkerCounts)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        PropertyOutcome base = runRandomDag(seed, 1);
        for (unsigned threads : {2u, 8u}) {
            PropertyOutcome got = runRandomDag(seed, threads);
            ASSERT_EQ(got.resultHash, base.resultHash)
                << "seed " << seed << " threads " << threads;
            ASSERT_EQ(got.transcript, base.transcript)
                << "seed " << seed << " threads " << threads;
            ASSERT_DOUBLE_EQ(got.makespanSec, base.makespanSec)
                << "seed " << seed << " threads " << threads;
            ASSERT_DOUBLE_EQ(got.criticalPathSec, base.criticalPathSec)
                << "seed " << seed << " threads " << threads;
            ASSERT_EQ(got.tasksExecuted, base.tasksExecuted);
        }
    }
}

// ---- Workflow-level identity ------------------------------------------

/** Everything the relink engine ships, for equality comparison. */
struct EngineOutput
{
    std::vector<uint8_t> text;
    std::string verifyText;
    std::vector<std::string> codegenFailures;
    std::vector<std::string> linkFailures;
    double codegenMakespan = 0.0;
    uint32_t retries = 0;
    uint64_t cacheCorruptions = 0;
};

EngineOutput
runEngine(unsigned jobs, bool faults)
{
    workload::WorkloadConfig cfg = test::smallConfig(91);
    cfg.name = "schedtest";
    cfg.jobs = jobs;

    faultinject::FaultSpec spec;
    spec.seed = 23;
    spec.cacheRate = 0.4;
    spec.execFailRate = 0.2;
    faultinject::FaultInjector injector(spec);

    buildsys::Workflow wf(cfg);
    if (faults)
        wf.setFaultHooks(&injector);

    EngineOutput out;
    out.text = wf.propellerBinary().text;
    out.verifyText = wf.verifyReport().engine.renderText();
    const buildsys::PhaseReport &cg = wf.report("phase4.codegen");
    out.codegenFailures = cg.failures;
    out.codegenMakespan = cg.makespanSec;
    out.retries = cg.retries;
    out.linkFailures = wf.report("phase4.link").failures;
    out.cacheCorruptions = wf.cacheStats().corruptions;
    return out;
}

TEST(EngineIdentity, TaskGraphMatchesSerialComposition)
{
    // The relink graph runs the WPA stages, the codegen actions and the
    // link as overlapping tasks; the serial composition behind
    // propellerBinaryWith() (runWholeProgramAnalysis, compileModules,
    // one link) runs them one after another.  Both must ship the same
    // bytes and the same Phase 3 artifacts and statistics.  Separate
    // workflows, so neither side is served the other's objects.
    for (const char *name : {"mysql", "clang"}) {
        for (unsigned jobs : {1u, 4u}) {
            workload::WorkloadConfig cfg = workload::configByName(name);
            cfg.jobs = jobs;
            std::string what =
                std::string(name) + " jobs=" + std::to_string(jobs);
            buildsys::Workflow wf(cfg);
            const linker::Executable &graph_po = wf.propellerBinary();
            const core::WpaResult &graph = wf.wpa();
            buildsys::Workflow serial_wf(cfg);
            core::WpaResult serial;
            linker::Executable po = serial_wf.propellerBinaryWith(
                core::LayoutOptions{}, &serial);

            EXPECT_EQ(graph_po.text, po.text) << what;
            EXPECT_EQ(graph.ccProf.serialize(), serial.ccProf.serialize())
                << what;
            EXPECT_EQ(graph.ldProf.serialize(), serial.ldProf.serialize())
                << what;
            EXPECT_EQ(graph.hotFunctions, serial.hotFunctions) << what;
            EXPECT_EQ(graph.stats.peakMemory, serial.stats.peakMemory)
                << what;
            EXPECT_EQ(graph.stats.extTsp.finalScore,
                      serial.stats.extTsp.finalScore)
                << what;
            EXPECT_EQ(graph.stats.extTsp.candidateEvals,
                      serial.stats.extTsp.candidateEvals)
                << what;
            EXPECT_EQ(graph.stats.extTsp.merges,
                      serial.stats.extTsp.merges)
                << what;
        }
    }
}

TEST(EngineIdentity, TaskGraphIdenticalAcrossJobCounts)
{
    // Under fault injection (cache rot + transient action failures) the
    // attribution lines and retry accounting must not depend on which
    // worker got where first.
    EngineOutput base = runEngine(1, true);
    for (unsigned jobs : {2u, 8u}) {
        EngineOutput got = runEngine(jobs, true);
        EXPECT_EQ(got.text, base.text) << "jobs " << jobs;
        EXPECT_EQ(got.verifyText, base.verifyText) << "jobs " << jobs;
        EXPECT_EQ(got.codegenFailures, base.codegenFailures);
        EXPECT_EQ(got.linkFailures, base.linkFailures);
        EXPECT_DOUBLE_EQ(got.codegenMakespan, base.codegenMakespan);
        EXPECT_EQ(got.retries, base.retries);
        EXPECT_EQ(got.cacheCorruptions, base.cacheCorruptions);
    }
}

TEST(EngineIdentity, ExhaustedRetriesRunOnCoordinator)
{
    // Every attempt of every executed codegen action fails, so each
    // exhausts its retry budget and falls back to the coordinator: the
    // build degrades in makespan, never in output.  Phase 2 and the
    // relink share one commit, so both report the same way.
    struct AlwaysFail : buildsys::FaultHooks
    {
        bool
        failAction(const std::string &, uint32_t) override
        {
            return true;
        }
    };
    const std::string kLine = "retries exhausted, ran on coordinator: ";

    workload::WorkloadConfig cfg = workload::configByName("mysql");
    cfg.jobs = 4;
    buildsys::Workflow clean(cfg);
    const std::vector<uint8_t> &want_text = clean.propellerBinary().text;

    for (unsigned jobs : {1u, 4u}) {
        cfg.jobs = jobs;
        buildsys::Workflow wf(cfg);
        AlwaysFail hooks;
        wf.setFaultHooks(&hooks);
        EXPECT_EQ(wf.propellerBinary().text, want_text) << "jobs " << jobs;

        // One line per executed action, in module order: Phase 2 runs
        // every module, the relink every module that missed the cache.
        const std::set<std::string> cold(wf.coldObjects().begin(),
                                         wf.coldObjects().end());
        std::vector<std::string> want2, want4;
        const ir::Program &prog = wf.program();
        for (size_t i = 0; i < prog.modules.size(); ++i) {
            want2.push_back(kLine + prog.modules[i]->name);
            if (cold.count(wf.phase4Objects()[i].name) == 0)
                want4.push_back(kLine + prog.modules[i]->name);
        }
        const uint32_t attempts = wf.limits().maxActionRetries + 1;
        for (const auto &[phase, want] :
             {std::pair{"phase2.codegen", want2},
              std::pair{"phase4.codegen", want4}}) {
            const buildsys::PhaseReport &got = wf.report(phase);
            EXPECT_GT(got.actions, 0u) << phase;
            EXPECT_EQ(got.failures, want) << phase << " jobs " << jobs;
            EXPECT_EQ(got.actions, want.size()) << phase;
            EXPECT_EQ(got.retries, got.actions * attempts) << phase;
            EXPECT_GT(got.makespanSec, clean.report(phase).makespanSec)
                << phase;
        }
    }
}

TEST(EngineIdentity, WarmLayoutCacheRerunIsByteIdentical)
{
    // A second relink against the first run's persisted cache image
    // must hit the layout memo for every function and still ship the
    // same bytes at every job count.
    const std::string path =
        ::testing::TempDir() + "/sched_warm_cache.bin";
    std::remove(path.c_str());

    workload::WorkloadConfig cfg = test::smallConfig(91);
    cfg.name = "schedtest";
    cfg.jobs = 8;

    buildsys::Workflow cold(cfg);
    std::vector<uint8_t> cold_text = cold.propellerBinary().text;
    const buildsys::CacheStats &cold_stats = cold.layoutCacheStats();
    EXPECT_EQ(cold_stats.hits, 0u);
    EXPECT_GT(cold_stats.misses, 0u);
    ASSERT_TRUE(cold.saveCacheFile(path));

    for (unsigned jobs : {1u, 2u, 8u}) {
        workload::WorkloadConfig warm_cfg = cfg;
        warm_cfg.jobs = jobs;
        buildsys::Workflow warm(warm_cfg);
        ASSERT_TRUE(warm.loadCacheFile(path));
        EXPECT_EQ(warm.propellerBinary().text, cold_text)
            << "jobs " << jobs;
        const buildsys::CacheStats &ws = warm.layoutCacheStats();
        EXPECT_EQ(ws.misses, 0u) << "jobs " << jobs;
        EXPECT_EQ(ws.hits, cold_stats.misses) << "jobs " << jobs;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace propeller
