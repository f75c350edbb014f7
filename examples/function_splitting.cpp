/**
 * @file
 * Low-overhead function splitting with basic block sections (paper 4.6).
 *
 * Builds one function whose body is half cold error handling — the shape
 * the Google fleet study found in half of all hot functions — and shows
 * exactly what the basic-block-sections mechanism does to it:
 *
 *   - the object file grows a `.text.handler.cold` section whose symbol
 *     the linker can place anywhere;
 *   - no call-thunk overhead is added (contrast with heuristic-based
 *     splitting, Figure 2 of the paper);
 *   - the hot primary section shrinks below the i-cache line budget and
 *     front-end stalls drop.
 *
 * Build & run:  ./build/examples/function_splitting
 */

#include <cstdio>

#include "codegen/codegen.h"
#include "ir/verifier.h"
#include "linker/linker.h"
#include "propeller/propeller.h"
#include "sim/machine.h"

using namespace propeller;

namespace {

ir::Program
makeProgram()
{
    using namespace ir;
    Program program;
    program.name = "splitting";
    program.entryFunction = "main";
    auto mod = std::make_unique<Module>();
    mod->name = "server";

    // handler(): entry dispatches across four hot blocks, each guarded by
    // a rarely-taken error path of several blocks (inlined right there,
    // as a profile-less compiler would).
    auto handler = std::make_unique<Function>();
    handler->name = "handler";
    uint32_t next_id = 0;
    auto block = [&]() {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = next_id++;
        handler->blocks.push_back(std::move(bb));
        return handler->blocks.back()->id;
    };
    uint32_t branch_id = 100;
    uint32_t prev = block(); // Entry.
    handler->blocks[prev]->insts = {makeWork(0, 1)};
    for (int region = 0; region < 4; ++region) {
        uint32_t cold1 = block();
        uint32_t cold2 = block();
        uint32_t join = block();
        // Rare error path: two blocks of cleanup code.
        handler->blocks[prev]->insts.push_back(
            makeCondBr(cold1, join, /*bias=*/2, branch_id++));
        handler->blocks[cold1]->insts = {makeWork(1, 10), makeWork(1, 11),
                                         makeWork(1, 12), makeBr(cold2)};
        handler->blocks[cold2]->insts = {makeWork(1, 13), makeWork(1, 14),
                                         makeRet()};
        handler->blocks[join]->insts = {makeWork(2, 20), makeWork(2, 21)};
        prev = join;
    }
    handler->blocks[prev]->insts.push_back(makeRet());

    auto main_fn = std::make_unique<Function>();
    main_fn->name = "main";
    for (uint32_t id = 0; id < 3; ++id) {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = id;
        main_fn->blocks.push_back(std::move(bb));
    }
    main_fn->blocks[0]->insts = {ir::makeBr(1)};
    main_fn->blocks[1]->insts = {ir::makeCall("handler"),
                                 ir::makeLoopBr(1, 2, 250, 1)};
    main_fn->blocks[2]->insts = {ir::makeRet()};

    mod->functions.push_back(std::move(handler));
    mod->functions.push_back(std::move(main_fn));
    program.modules.push_back(std::move(mod));
    return program;
}

void
printSections(const char *label, const std::vector<elf::ObjectFile> &objs)
{
    std::printf("%s\n", label);
    for (const auto &sec : objs[0].sections) {
        if (sec.type == elf::SectionType::Text) {
            std::printf("  %-24s %4llu bytes\n", sec.name.c_str(),
                        static_cast<unsigned long long>(sec.size()));
        }
    }
}

} // namespace

int
main()
{
    std::printf("== Function splitting with basic block sections ==\n\n");
    ir::Program program = makeProgram();
    if (support::Status status = ir::verify(program); !status.ok()) {
        std::printf("IR invalid: %s\n", status.toString().c_str());
        return 1;
    }

    codegen::Options meta;
    meta.emitAddrMapSection = true;
    auto base_objs = codegen::compileProgram(program, meta);
    printSections("before (function sections):", base_objs);

    linker::Options lopts;
    lopts.entrySymbol = "main";
    linker::Executable metadata = linker::link(base_objs, lopts);

    // Profile and compute the layout.
    sim::MachineOptions popts;
    popts.maxInstructions = 300'000;
    popts.collectLbr = true;
    popts.lbrSamplePeriod = 400;
    profile::Profile profiled = sim::collectProfile(metadata, popts);
    core::WpaResult wpa = core::runWholeProgramAnalysis(metadata, profiled);

    codegen::Options split;
    split.bbSections = codegen::BbSectionsMode::Clusters;
    split.clusters = &wpa.ccProf.clusters;
    split.emitAddrMapSection = true;
    auto split_objs = codegen::compileProgram(program, split);
    std::printf("\n");
    printSections("after (profile-driven clusters):", split_objs);
    std::printf("\n  note: no call thunks, no extra instructions in the "
                "hot path — the cold\n  cluster is just another section "
                "the linker places far away (paper Fig. 2).\n\n");

    linker::Options lopts2 = lopts;
    lopts2.symbolOrder = wpa.ldProf.symbolOrder;
    linker::Executable optimized = linker::link(split_objs, lopts2);

    sim::MachineOptions eopts;
    eopts.seed = 5;
    eopts.maxInstructions = 300'000;
    sim::RunResult rb = sim::run(linker::link(base_objs, lopts), eopts);
    sim::RunResult rs = sim::run(optimized, eopts);
    std::printf("i-cache misses: %llu -> %llu;  cycles: %llu -> %llu "
                "(%+.2f%%)\n",
                static_cast<unsigned long long>(rb.counters.l1iMisses),
                static_cast<unsigned long long>(rs.counters.l1iMisses),
                static_cast<unsigned long long>(rb.counters.cycles()),
                static_cast<unsigned long long>(rs.counters.cycles()),
                100.0 * (static_cast<double>(rb.counters.cycles()) /
                             static_cast<double>(rs.counters.cycles()) -
                         1.0));
    return 0;
}
