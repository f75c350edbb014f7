/**
 * @file
 * The pipeline determinism guarantee: the per-function WPA loop and the
 * per-module codegen fan-out, both on sched::parallelFor, must produce
 * byte-identical artifacts at any thread count.  parallelFor's own
 * tests (ParallelFor.*) live with the scheduler in test_sched.cc.
 */

#include <gtest/gtest.h>

#include "build/workflow.h"
#include "test_util.h"

namespace propeller {
namespace {

/** WPA artifacts and the relinked binary, at a given thread count. */
struct PipelineArtifacts
{
    std::string ccProf;
    std::string ldProf;
    std::vector<uint8_t> text;
    uint64_t entryAddress = 0;
};

PipelineArtifacts
runPipeline(unsigned jobs)
{
    workload::WorkloadConfig cfg = test::smallConfig(63);
    cfg.name = "threads";
    cfg.jobs = jobs;
    buildsys::Workflow wf(cfg);
    PipelineArtifacts out;
    out.ccProf = wf.wpa().ccProf.serialize();
    out.ldProf = wf.wpa().ldProf.serialize();
    out.text = wf.propellerBinary().text;
    out.entryAddress = wf.propellerBinary().entryAddress;
    return out;
}

TEST(ThreadingDeterminism, ArtifactsIdenticalAcrossThreadCounts)
{
    PipelineArtifacts serial = runPipeline(1);
    PipelineArtifacts parallel = runPipeline(8);

    EXPECT_EQ(serial.ccProf, parallel.ccProf);
    EXPECT_EQ(serial.ldProf, parallel.ldProf);
    EXPECT_EQ(serial.entryAddress, parallel.entryAddress);
    // The whole relinked .text, byte for byte.
    ASSERT_EQ(serial.text.size(), parallel.text.size());
    EXPECT_EQ(serial.text, parallel.text);
}

TEST(ThreadingDeterminism, LayoutIdenticalAcrossThreadCounts)
{
    // Drive the layout loop directly through the ablation entry point so
    // the comparison isolates the parallel Ext-TSP stage.  Concurrency
    // is the workflow-wide jobs setting now, so each count gets its own
    // workflow over the same seed.
    workload::WorkloadConfig cfg = test::smallConfig(64);
    cfg.name = "threads2";
    cfg.jobs = 1;
    buildsys::Workflow wf1(cfg);
    cfg.jobs = 8;
    buildsys::Workflow wf8(cfg);

    core::WpaResult wpa1, wpa8;
    linker::Executable exe1 = wf1.propellerBinaryWith({}, &wpa1);
    linker::Executable exe8 = wf8.propellerBinaryWith({}, &wpa8);

    EXPECT_EQ(wpa1.ccProf.serialize(), wpa8.ccProf.serialize());
    EXPECT_EQ(wpa1.ldProf.serialize(), wpa8.ldProf.serialize());
    // Order-independent stat sums must match exactly, including the
    // floating-point Ext-TSP score (merged in function order).
    EXPECT_EQ(wpa1.stats.extTsp.finalScore, wpa8.stats.extTsp.finalScore);
    EXPECT_EQ(exe1.text, exe8.text);
}

TEST(ThreadingDeterminism, ReferenceSolverArtifactsIdenticalAtAnyThreads)
{
    // The acceptance gate for the incremental Ext-TSP solver: the lazy
    // heap and the reference full-scan retrieval must emit byte-identical
    // cc_prof/ld_prof at 1 and at 8 threads (4 combinations total).
    workload::WorkloadConfig cfg = test::smallConfig(65);
    cfg.name = "threads3";

    std::string cc_base, ld_base;
    for (unsigned threads : {1u, 8u}) {
        cfg.jobs = threads;
        buildsys::Workflow wf(cfg);
        for (bool reference : {false, true}) {
            core::LayoutOptions opts;
            opts.extTsp.referenceSolver = reference;
            core::WpaResult wpa;
            wf.propellerBinaryWith(opts, &wpa);
            std::string cc = wpa.ccProf.serialize();
            std::string ld = wpa.ldProf.serialize();
            if (cc_base.empty()) {
                cc_base = cc;
                ld_base = ld;
                continue;
            }
            EXPECT_EQ(cc, cc_base)
                << "threads=" << threads << " reference=" << reference;
            EXPECT_EQ(ld, ld_base)
                << "threads=" << threads << " reference=" << reference;
        }
    }
}

} // namespace
} // namespace propeller
