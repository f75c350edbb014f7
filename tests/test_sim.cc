/**
 * @file
 * Unit tests for the machine simulator: functional semantics, determinism,
 * layout invariance, branch bias statistics, microarchitectural component
 * models (caches, iTLB, predictor), LBR collection, heat maps, the
 * timing-free profiler against the timed run, and pinned counters of
 * the timed run.
 */

#include <gtest/gtest.h>

#include "build/workflow.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "sim/branch_pred.h"
#include "sim/caches.h"
#include "sim/itlb.h"
#include "sim/machine.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller::sim {
namespace {

linker::Executable
linkTiny(codegen::Options copts = {},
         std::vector<std::string> order = {})
{
    ir::Program program = test::tinyProgram();
    linker::Options lopts;
    lopts.entrySymbol = "main";
    lopts.symbolOrder = std::move(order);
    return linker::link(codegen::compileProgram(program, copts), lopts);
}

MachineOptions
smallRun(uint64_t budget = 50'000)
{
    MachineOptions opts;
    opts.seed = 7;
    opts.maxInstructions = budget;
    return opts;
}

TEST(Machine, ExecutesTinyProgram)
{
    RunResult r = run(linkTiny(), smallRun());
    EXPECT_TRUE(r.startupOk);
    EXPECT_FALSE(r.fault);
    // Budget cuts can leave at most the current call depth unmatched.
    EXPECT_LE(r.counters.returns, r.counters.calls);
    EXPECT_LE(r.counters.calls - r.counters.returns, 1u);
    EXPECT_GT(r.counters.condBranches, 0u);
    EXPECT_GT(r.counters.cycles(), r.counters.instructions / 2);
}

TEST(Machine, DeterministicAcrossRuns)
{
    RunResult a = run(linkTiny(), smallRun());
    RunResult b = run(linkTiny(), smallRun());
    EXPECT_EQ(a.counters.cycles(), b.counters.cycles());
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.takenBranches, b.counters.takenBranches);
}

TEST(Machine, SeedChangesOutcomesButNotStructure)
{
    MachineOptions o1 = smallRun();
    MachineOptions o2 = smallRun();
    o2.seed = 99;
    RunResult a = run(linkTiny(), o1);
    RunResult b = run(linkTiny(), o2);
    EXPECT_EQ(a.counters.logicalInstructions,
              b.counters.logicalInstructions);
    EXPECT_NE(a.counters.condTaken, b.counters.condTaken)
        << "different input streams take different paths";
}

TEST(Machine, LayoutInvariantLogicalStream)
{
    // Same program, three different layouts: one section per function,
    // one per block, reversed symbol order.
    linker::Executable a = linkTiny();
    codegen::Options all;
    all.bbSections = codegen::BbSectionsMode::All;
    linker::Executable b = linkTiny(all);
    linker::Executable c = linkTiny({}, {"work", "main"});

    RunResult ra = run(a, smallRun());
    RunResult rb = run(b, smallRun());
    RunResult rc = run(c, smallRun());
    EXPECT_EQ(ra.counters.logicalInstructions,
              rb.counters.logicalInstructions);
    EXPECT_EQ(ra.counters.condBranches, rb.counters.condBranches);
    // Note: condTaken is NOT invariant — polarity inversion is exactly
    // how layouts trade taken branches for fall-throughs.
    EXPECT_EQ(ra.counters.calls, rb.counters.calls);
    EXPECT_EQ(ra.counters.calls, rc.counters.calls);
    EXPECT_EQ(ra.counters.returns, rc.counters.returns);
}

TEST(Machine, BranchBiasControlsFrequency)
{
    // tinyProgram's branch 1000 has bias 240/256 = 93.75% to bb1.
    RunResult r = run(linkTiny(), smallRun(200'000));
    // bb1 executes makeWork(2, 20): count via cycles is awkward; instead
    // check the cold path frequency through the branch counters: branch
    // 1000 is the only non-loop conditional, executed once per work()
    // call; bias keeps the taken path near 93.75%.
    // work() is called once per loop iteration of main (bias 250/256).
    double cond = static_cast<double>(r.counters.condBranches);
    EXPECT_GT(cond, 0);
    // Per iteration: branch 1000 in work() plus the inner latch (the
    // outer latch fires once per 255 iterations).
    EXPECT_NEAR(cond / static_cast<double>(r.counters.calls), 2.0, 0.2);
}

TEST(Machine, PeriodicBranchExactTripCount)
{
    // Build main with a periodic loop of exactly 5 trips around a call.
    using namespace ir;
    Program program;
    program.name = "p";
    program.entryFunction = "main";
    auto mod = std::make_unique<Module>();
    mod->name = "m";
    auto fn = test::makeFunction("main", 3);
    fn->blocks[0]->insts = {makeWork(0, 0), makeBr(1)};
    fn->blocks[1]->insts = {makeWork(1, 1), makeLoopBr(1, 2, 5, 1)};
    fn->blocks[2]->insts = {makeRet()};
    mod->functions.push_back(std::move(fn));
    program.modules.push_back(std::move(mod));

    linker::Options lopts;
    lopts.entrySymbol = "main";
    linker::Executable exe =
        linker::link(codegen::compileProgram(program, {}), lopts);
    RunResult r = run(exe, smallRun(1000));
    EXPECT_TRUE(r.halted);
    // Loop body executes exactly 5 times: 4 taken back edges + 1 exit.
    EXPECT_EQ(r.counters.condBranches, 5u);
    EXPECT_EQ(r.counters.condTaken, 4u);
}

TEST(Machine, HaltsOnFinalReturn)
{
    RunResult r = run(linkTiny(), smallRun(100'000'000));
    EXPECT_TRUE(r.halted) << "main's nested loops exit after 255*255 trips";
    EXPECT_LT(r.counters.instructions, 100'000'000u);
}

TEST(Machine, IntegrityCheckFailureStopsStartup)
{
    linker::Executable exe = linkTiny();
    exe.integrityChecks.push_back({"work", 0xdeadbeefull});
    RunResult r = run(exe, smallRun());
    EXPECT_FALSE(r.startupOk);
    EXPECT_EQ(r.counters.instructions, 0u);
}

TEST(Machine, CorruptTextFaults)
{
    linker::Executable exe = linkTiny();
    // Overwrite the entry with an undefined opcode.
    exe.text[exe.entryAddress - exe.textBase] = 0x33;
    exe.integrityChecks.clear();
    RunResult r = run(exe, smallRun());
    EXPECT_TRUE(r.fault);
    EXPECT_EQ(r.faultPc, exe.entryAddress);
}

TEST(Machine, LbrSamplesCollected)
{
    MachineOptions opts = smallRun(100'000);
    opts.collectLbr = true;
    opts.lbrSamplePeriod = 1'000;
    RunResult r = run(linkTiny(), opts);
    EXPECT_GT(r.profile.samples.size(), 50u);
    EXPECT_LT(r.profile.samples.size(), 130u);
    for (const auto &sample : r.profile.samples) {
        ASSERT_LE(sample.count, profile::kLbrDepth);
        for (unsigned i = 0; i < sample.count; ++i) {
            // Every record must point inside the text image.
            EXPECT_GE(sample.records[i].from, 0x400000u);
            EXPECT_GE(sample.records[i].to, 0x400000u);
        }
    }
}

TEST(Machine, LbrRecordsAreRealTakenBranches)
{
    MachineOptions opts = smallRun(50'000);
    opts.collectLbr = true;
    opts.lbrSamplePeriod = 500;
    linker::Executable exe = linkTiny();
    RunResult r = run(exe, opts);
    ASSERT_FALSE(r.profile.samples.empty());
    for (const auto &sample : r.profile.samples) {
        for (unsigned i = 0; i < sample.count; ++i) {
            uint64_t from = sample.records[i].from;
            auto inst = isa::decode(exe.text.data() + (from - exe.textBase),
                                    16);
            ASSERT_TRUE(inst.has_value());
            EXPECT_TRUE(inst->isControlFlow())
                << "LBR 'from' must be a control transfer";
        }
    }
}

TEST(Machine, HeatMapDimensionsAndMass)
{
    MachineOptions opts = smallRun(20'000);
    opts.recordHeatMap = true;
    opts.heatAddrBuckets = 8;
    opts.heatTimeBuckets = 4;
    RunResult r = run(linkTiny(), opts);
    ASSERT_EQ(r.heatMap.size(), 8u);
    ASSERT_EQ(r.heatMap[0].size(), 4u);
    uint64_t mass = 0;
    for (const auto &row : r.heatMap)
        for (uint64_t v : row)
            mass += v;
    EXPECT_EQ(mass, r.counters.instructions);
}

// ---- Timing-free profiling ------------------------------------------------

/** A metadata binary (.bb_addr_map kept) of @p program. */
linker::Executable
linkMetadata(const ir::Program &program)
{
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    linker::Options lopts;
    lopts.entrySymbol = program.entryFunction;
    return linker::link(codegen::compileProgram(program, copts), lopts);
}

/** collectProfile's bytes must be the timed run's; returns the profile. */
profile::Profile
expectTimedProfile(const linker::Executable &exe, const MachineOptions &opts,
                   const std::string &what)
{
    profile::Profile timed = run(exe, opts).profile;
    profile::Profile untimed = collectProfile(exe, opts);
    EXPECT_EQ(untimed.serialize(), timed.serialize()) << what;
    return untimed;
}

/**
 * The byte-identity oracle for the timing-free loop: every application
 * shape, a drifted program, and the startup-failure and corrupt-text
 * images profile exactly as under the timed model.
 */
TEST(Machine, CollectProfileMatchesTimedRun)
{
    for (const workload::WorkloadConfig &cfg : workload::appConfigs()) {
        profile::Profile prof = expectTimedProfile(
            linkMetadata(workload::generate(cfg)),
            workload::profileOptions(cfg), cfg.name);
        EXPECT_GT(prof.samples.size(), 100u) << cfg.name;
    }

    const workload::WorkloadConfig &mysql = workload::configByName("mysql");
    ir::Program drifted = workload::generate(mysql);
    ASSERT_GT(workload::applyDrift(drifted, {mysql.seed + 10, 0.10}).total(),
              0u);
    expectTimedProfile(linkMetadata(drifted), workload::profileOptions(mysql),
                       "mysql, 10% drift");

    MachineOptions opts = workload::profileOptions(test::smallConfig());
    linker::Executable bad_check = linkTiny();
    bad_check.integrityChecks.push_back({"work", 0xdeadbeefull});
    EXPECT_EQ(expectTimedProfile(bad_check, opts, "integrity failure")
                  .binaryHash,
              0u);

    linker::Executable corrupt = linkTiny();
    corrupt.text[corrupt.entryAddress - corrupt.textBase] = 0x33;
    corrupt.integrityChecks.clear();
    EXPECT_EQ(expectTimedProfile(corrupt, opts, "corrupt text").totalRetired,
              0u);
}

// ---- Golden counters ------------------------------------------------------

/** Digest of every modelled outcome of one timed run. */
uint64_t
runDigest(const RunResult &r)
{
    test::Digest d;
    const Counters &c = r.counters;
    for (uint64_t v :
         {c.instructions, c.logicalInstructions, c.quarterCycles,
          c.l1iMisses, c.l2CodeMisses, c.fetchStallQC, c.itlbMisses,
          c.itlbStallMisses, c.baclears, c.takenBranches, c.dsbMisses,
          c.dsbAccesses, c.condBranches, c.condTaken, c.jumpsRetired,
          c.mispredicts, c.calls, c.returns})
        d.add(v);
    d.add(r.startupOk ? 1 : 0);
    d.add(r.fault ? 1 : 0);
    d.add(r.faultPc);
    d.add(r.halted ? 1 : 0);
    d.add(r.heatMap.size());
    for (const auto &row : r.heatMap) {
        d.add(row.size());
        for (uint64_t v : row)
            d.add(v);
    }
    return d.value();
}

/**
 * One digest over sim::run on the baseline and Propeller binaries of
 * @p cfg under workload::evalOptions, the baseline with the heat map on:
 * every counter, the startup/fault/halt outcome and the heat map.
 */
uint64_t
goldenRuns(const workload::WorkloadConfig &cfg)
{
    buildsys::Workflow wf(cfg);
    MachineOptions heat = workload::evalOptions(cfg);
    heat.recordHeatMap = true;
    RunResult base = run(wf.baseline(), heat);
    RunResult po = run(wf.propellerBinary(), workload::evalOptions(cfg));
    // The digest only pins what the runs model: make sure both ran the
    // whole budget through every frontend structure.
    for (const RunResult *r : {&base, &po}) {
        EXPECT_TRUE(r->startupOk && !r->fault);
        EXPECT_EQ(r->counters.logicalInstructions, cfg.evalInstructions);
        EXPECT_GT(r->counters.l2CodeMisses, 0u);
        EXPECT_GT(r->counters.itlbStallMisses, 0u);
        EXPECT_GT(r->counters.baclears, 0u);
        EXPECT_GT(r->counters.mispredicts, 0u);
        EXPECT_GT(r->counters.dsbMisses, 0u);
    }
    EXPECT_NE(po.counters.takenBranches, base.counters.takenBranches)
        << "the relink changed no layout";
    test::Digest d;
    d.add(runDigest(base));
    d.add(runDigest(po));
    return d.value();
}

// The LinkGolden apps (tests/test_linker.cc).  A change to the machine
// loop or its structure sizes that claims no modelled cycle moved must
// leave these passing.
TEST(SimGolden, SmallAppWithIntegrityChecks)
{
    workload::WorkloadConfig cfg = test::smallConfig(47);
    cfg.integrityCheckedFunctions = 2;
    uint64_t got = goldenRuns(cfg);
    EXPECT_EQ(got, 0xdb966a5ecc5c969aull) << "0x" << hashDigest(got);
}

TEST(SimGolden, HandAsmApp)
{
    workload::WorkloadConfig cfg = test::smallConfig(73);
    cfg.integrityCheckedFunctions = 1;
    cfg.handAsmFunctions = 3;
    uint64_t got = goldenRuns(cfg);
    EXPECT_EQ(got, 0x9d73b40f2e5b2b2aull) << "0x" << hashDigest(got);
}

TEST(Machine, CollectProfileRejectsTimingOptions)
{
    linker::Executable exe = linkTiny();
    MachineOptions heat = smallRun();
    heat.recordHeatMap = true;
    EXPECT_DEATH(collectProfile(exe, heat), "need sim::run");
}

// ---- Component models ----------------------------------------------------

TEST(Caches, LruEviction)
{
    SetAssocCache cache(1, 2, 6); // 1 set, 2 ways, 64B lines.
    EXPECT_FALSE(cache.access(0x000));
    EXPECT_FALSE(cache.access(0x040));
    EXPECT_TRUE(cache.access(0x000));  // Touch A: B becomes LRU.
    EXPECT_FALSE(cache.access(0x080)); // Evicts B.
    EXPECT_TRUE(cache.access(0x000));
    EXPECT_FALSE(cache.access(0x040)) << "B was evicted";
}

TEST(Caches, SetIndexingSeparatesSets)
{
    SetAssocCache cache(2, 1, 6);
    EXPECT_FALSE(cache.access(0x000)); // Set 0.
    EXPECT_FALSE(cache.access(0x040)); // Set 1.
    EXPECT_TRUE(cache.access(0x000));
    EXPECT_TRUE(cache.access(0x040));
}

TEST(Caches, SameLineHits)
{
    SetAssocCache cache(4, 2, 6);
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)) << "same 64B line";
    EXPECT_TRUE(cache.contains(0x100));
    EXPECT_FALSE(cache.contains(0x200));
}

TEST(Itlb, HugePagesCoverMore)
{
    Itlb tlb(4, 4, 2, 16, 4);
    // 4K pages: 5 distinct pages thrash a 4-entry TLB.
    uint64_t misses = 0;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t page = 0; page < 5; ++page)
            misses += tlb.access(page << 12, false).l1Miss;
    }
    EXPECT_GT(misses, 5u);

    Itlb tlb2(4, 4, 2, 16, 4);
    // The same five 4K-page addresses fit in one 2M page.
    uint64_t huge_misses = 0;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t page = 0; page < 5; ++page)
            huge_misses += tlb2.access(page << 12, true).l1Miss;
    }
    EXPECT_EQ(huge_misses, 1u);
}

TEST(Itlb, StlbCatchesL1Misses)
{
    Itlb tlb(1, 1, 1, 64, 8);
    EXPECT_TRUE(tlb.access(0x0000, false).stlbMiss) << "cold: full walk";
    tlb.access(0x1000, false); // Evicts L1 entry for page 0.
    ItlbResult r = tlb.access(0x0000, false);
    EXPECT_TRUE(r.l1Miss);
    EXPECT_FALSE(r.stlbMiss) << "STLB still holds page 0";
}

TEST(BranchPredictor, BimodalLearnsBias)
{
    BranchPredictor bp(10, 16, 2, 8);
    uint64_t pc = 0x400100;
    for (int i = 0; i < 8; ++i)
        bp.updateConditional(pc, true);
    EXPECT_TRUE(bp.predictConditional(pc));
    for (int i = 0; i < 8; ++i)
        bp.updateConditional(pc, false);
    EXPECT_FALSE(bp.predictConditional(pc));
}

TEST(BranchPredictor, BtbMissThenHit)
{
    BranchPredictor bp(10, 16, 2, 8);
    EXPECT_FALSE(bp.btbAccess(0x400100));
    EXPECT_TRUE(bp.btbAccess(0x400100));
}

TEST(BranchPredictor, ReturnStackMatches)
{
    BranchPredictor bp(10, 16, 2, 4);
    bp.pushReturn(0x1000);
    bp.pushReturn(0x2000);
    EXPECT_TRUE(bp.popReturn(0x2000));
    EXPECT_TRUE(bp.popReturn(0x1000));
    EXPECT_FALSE(bp.popReturn(0x3000)) << "empty stack mispredicts";
}

TEST(BranchPredictor, ReturnStackOverflowWraps)
{
    BranchPredictor bp(10, 16, 2, 2);
    bp.pushReturn(0x1);
    bp.pushReturn(0x2);
    bp.pushReturn(0x3); // Overwrites 0x1.
    EXPECT_TRUE(bp.popReturn(0x3));
    EXPECT_TRUE(bp.popReturn(0x2));
    EXPECT_FALSE(bp.popReturn(0x1)) << "overwritten by wrap-around";
}

TEST(MachineCounters, HugePagesReduceItlbStalls)
{
    workload::WorkloadConfig cfg = test::smallConfig(5);
    cfg.name = "tlbtest";
    ir::Program program = workload::generate(cfg);
    auto objects = codegen::compileProgram(program, {});
    linker::Options lopts;
    lopts.entrySymbol = "main";
    linker::Executable small_pages = linker::link(objects, lopts);
    lopts.hugePagesText = true;
    linker::Executable huge_pages = linker::link(objects, lopts);

    MachineOptions opts = smallRun(300'000);
    RunResult rs = run(small_pages, opts);
    RunResult rh = run(huge_pages, opts);
    EXPECT_LE(rh.counters.itlbMisses, rs.counters.itlbMisses);
}

} // namespace
} // namespace propeller::sim
