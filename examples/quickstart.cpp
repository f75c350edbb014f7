/**
 * @file
 * Quickstart: the whole Propeller workflow on a ten-line program.
 *
 * Walks the paper's four phases end to end against a tiny hand-written
 * program, printing every intermediate artifact:
 *
 *   Phase 1/2: compile the IR with BB-address-map metadata and link;
 *   Phase 3:   run it under the machine simulator collecting LBR samples,
 *              then run the whole-program analysis to get cc_prof/ld_prof;
 *   Phase 4:   re-run codegen with basic block sections and relink with
 *              the symbol order;
 *   finally:   run baseline and optimized binaries on identical inputs
 *              and compare cycles.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "codegen/codegen.h"
#include "ir/verifier.h"
#include "linker/linker.h"
#include "propeller/propeller.h"
#include "sim/machine.h"

using namespace propeller;

namespace {

/** main() loops calling work(); work() has a hot path and a cold path. */
ir::Program
makeProgram()
{
    using namespace ir;
    Program program;
    program.name = "quickstart";
    program.entryFunction = "main";
    auto mod = std::make_unique<Module>();
    mod->name = "app";

    auto work = std::make_unique<Function>();
    work->name = "work";
    for (uint32_t id = 0; id < 4; ++id) {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = id;
        work->blocks.push_back(std::move(bb));
    }
    // bb0: branch to the *cold* path with probability 8/256 — but the
    // stale baseline laid the cold path (bb1) right after bb0.
    work->blocks[0]->insts = {makeWork(1, 1),
                              makeCondBr(/*true=*/1, /*false=*/2,
                                         /*bias=*/8, /*id=*/1)};
    work->blocks[1]->insts = {makeWork(2, 2), makeWork(2, 3),
                              makeWork(2, 4), makeBr(3)}; // Cold.
    work->blocks[2]->insts = {makeWork(3, 5), makeBr(3)}; // Hot.
    work->blocks[3]->insts = {makeWork(4, 6), makeRet()};

    auto main_fn = std::make_unique<Function>();
    main_fn->name = "main";
    for (uint32_t id = 0; id < 4; ++id) {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = id;
        main_fn->blocks.push_back(std::move(bb));
    }
    // Two nested request loops so runs are budget-bound and stable.
    main_fn->blocks[0]->insts = {makeWork(0, 0), makeBr(1)};
    main_fn->blocks[1]->insts = {makeCall("work"),
                                 makeLoopBr(1, 2, 200, /*id=*/2)};
    main_fn->blocks[2]->insts = {makeWork(0, 9),
                                 makeLoopBr(1, 3, 200, /*id=*/3)};
    main_fn->blocks[3]->insts = {makeRet()};

    mod->functions.push_back(std::move(work));
    mod->functions.push_back(std::move(main_fn));
    program.modules.push_back(std::move(mod));
    return program;
}

} // namespace

int
main()
{
    std::printf("== Propeller quickstart ==\n\n");

    ir::Program program = makeProgram();
    support::Status status = ir::verify(program);
    if (!status.ok()) {
        std::printf("IR invalid: %s\n", status.toString().c_str());
        return 1;
    }

    // ---- Phases 1 & 2: compile with metadata, link ----------------------
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    auto objects = codegen::compileProgram(program, copts);
    std::printf("Phase 1/2: compiled %zu object(s); object sections:\n",
                objects.size());
    for (const auto &sec : objects[0].sections)
        std::printf("  %-18s %llu bytes\n", sec.name.c_str(),
                    static_cast<unsigned long long>(sec.size()));

    linker::Options lopts;
    lopts.entrySymbol = "main";
    linker::Executable metadata = linker::link(objects, lopts);
    std::printf("  linked: text=%llu bytes, entry=0x%llx\n\n",
                static_cast<unsigned long long>(metadata.text.size()),
                static_cast<unsigned long long>(metadata.entryAddress));

    // ---- Phase 3: profile + whole-program analysis ----------------------
    sim::MachineOptions popts;
    popts.seed = 11;
    popts.maxInstructions = 200'000;
    popts.collectLbr = true;
    popts.lbrSamplePeriod = 500;
    profile::Profile profiled = sim::collectProfile(metadata, popts);
    std::printf("Phase 3: collected %zu LBR samples over %llu retired "
                "instructions\n",
                profiled.samples.size(),
                static_cast<unsigned long long>(profiled.totalRetired));

    core::WpaResult wpa = core::runWholeProgramAnalysis(metadata, profiled);
    std::printf("  cc_prof.txt:\n%s", wpa.ccProf.serialize().c_str());
    std::printf("  ld_prof.txt:\n%s\n", wpa.ldProf.serialize().c_str());

    // ---- Phase 4: relink with basic block sections -----------------------
    codegen::Options copts2;
    copts2.bbSections = codegen::BbSectionsMode::Clusters;
    copts2.clusters = &wpa.ccProf.clusters;
    copts2.emitAddrMapSection = true;
    auto objects2 = codegen::compileProgram(program, copts2);
    linker::Options lopts2;
    lopts2.entrySymbol = "main";
    lopts2.symbolOrder = wpa.ldProf.symbolOrder;
    linker::LinkStats link_stats;
    linker::Executable optimized =
        linker::link(objects2, lopts2, &link_stats);
    std::printf("Phase 4: relinked with %u sections, %u branches shrunk, "
                "%u fall-throughs deleted\n",
                link_stats.sectionsLinked, link_stats.branchesShrunk,
                link_stats.fallThroughsDeleted);
    for (const auto &sym : optimized.symbols)
        std::printf("  %-12s [0x%llx, 0x%llx)\n", sym.name.c_str(),
                    static_cast<unsigned long long>(sym.start),
                    static_cast<unsigned long long>(sym.end));

    // ---- Compare ----------------------------------------------------------
    sim::MachineOptions eopts;
    eopts.seed = 99;
    eopts.maxInstructions = 200'000;
    linker::Options base_opts;
    base_opts.entrySymbol = "main";
    base_opts.stripAddrMaps = true;
    linker::Executable baseline = linker::link(objects, base_opts);

    sim::RunResult rb = sim::run(baseline, eopts);
    sim::RunResult ro = sim::run(optimized, eopts);
    std::printf("\nbaseline : %llu cycles, %llu taken branches\n",
                static_cast<unsigned long long>(rb.counters.cycles()),
                static_cast<unsigned long long>(rb.counters.takenBranches));
    std::printf("propeller: %llu cycles, %llu taken branches  (%+.2f%%)\n",
                static_cast<unsigned long long>(ro.counters.cycles()),
                static_cast<unsigned long long>(ro.counters.takenBranches),
                100.0 * (static_cast<double>(rb.counters.cycles()) /
                             static_cast<double>(ro.counters.cycles()) -
                         1.0));
    std::printf("\nidentical logical work: %llu vs %llu instructions\n",
                static_cast<unsigned long long>(
                    rb.counters.logicalInstructions),
                static_cast<unsigned long long>(
                    ro.counters.logicalInstructions));
    std::printf("\n(a program this small fits every cache, so the win "
                "here is the taken-branch\nreduction; run the bench_* "
                "binaries for the paper-scale results)\n");
    return 0;
}
