/**
 * @file
 * Inter-procedural layout on the paper's Figure 3 scenario.
 *
 * foo() is multi-modal: it branches into one of two loops, each calling a
 * different non-inlined callee.  Intra-procedural layout can keep both
 * callees near foo but not near their call sites; inter-procedural layout
 * splits foo into per-loop sections and interleaves the callees between
 * them.  This example prints both cc_prof/ld_prof outputs and the final
 * symbol maps so the difference is visible byte by byte.
 *
 * Build & run:  ./build/examples/interprocedural_layout
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
    program.name = "fig3";
    program.entryFunction = "main";
    auto mod = std::make_unique<Module>();
    mod->name = "fig3_mod";

    auto makeLeaf = [&](const char *name) {
        auto fn = std::make_unique<Function>();
        fn->name = name;
        auto bb = std::make_unique<BasicBlock>();
        bb->id = 0;
        for (int i = 0; i < 8; ++i)
            bb->insts.push_back(makeWork(1, 10 + i));
        bb->insts.push_back(makeRet());
        fn->blocks.push_back(std::move(bb));
        mod->functions.push_back(std::move(fn));
    };
    makeLeaf("callee_a");
    makeLeaf("callee_b");

    // foo: entry -> loop1 (calls callee_a) | loop2 (calls callee_b) -> exit
    auto foo = std::make_unique<Function>();
    foo->name = "foo";
    for (uint32_t id = 0; id < 4; ++id) {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = id;
        foo->blocks.push_back(std::move(bb));
    }
    foo->blocks[0]->insts = {makeWork(0, 1),
                             makeCondBr(1, 2, 128, 500)};
    foo->blocks[1]->insts = {makeWork(2, 2), makeCall("callee_a"),
                             makeLoopBr(1, 3, 24, 501)};
    foo->blocks[2]->insts = {makeWork(3, 3), makeCall("callee_b"),
                             makeLoopBr(2, 3, 24, 502)};
    foo->blocks[3]->insts = {makeWork(4, 4), makeRet()};
    mod->functions.push_back(std::move(foo));

    auto main_fn = std::make_unique<Function>();
    main_fn->name = "main";
    for (uint32_t id = 0; id < 3; ++id) {
        auto bb = std::make_unique<BasicBlock>();
        bb->id = id;
        main_fn->blocks.push_back(std::move(bb));
    }
    main_fn->blocks[0]->insts = {ir::makeBr(1)};
    main_fn->blocks[1]->insts = {ir::makeCall("foo"),
                                 ir::makeLoopBr(1, 2, 250, 503)};
    main_fn->blocks[2]->insts = {ir::makeRet()};
    mod->functions.push_back(std::move(main_fn));

    program.modules.push_back(std::move(mod));
    return program;
}

void
show(const char *label, const core::WpaResult &wpa,
     const ir::Program &program)
{
    std::printf("-- %s --\ncc_prof.txt:\n%sld_prof.txt:\n%s", label,
                wpa.ccProf.serialize().c_str(),
                wpa.ldProf.serialize().c_str());

    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::Clusters;
    copts.clusters = &wpa.ccProf.clusters;
    copts.emitAddrMapSection = true;
    auto objs = codegen::compileProgram(program, copts);
    linker::Options lopts;
    lopts.entrySymbol = "main";
    lopts.symbolOrder = wpa.ldProf.symbolOrder;
    linker::Executable exe = linker::link(objs, lopts);
    std::printf("final layout:\n");
    for (const auto &sym : exe.symbols) {
        std::printf("  0x%06llx  %s\n",
                    static_cast<unsigned long long>(sym.start),
                    sym.name.c_str());
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("== Inter-procedural layout (paper Figure 3) ==\n\n");
    ir::Program program = makeProgram();
    if (support::Status status = ir::verify(program); !status.ok()) {
        std::printf("IR invalid: %s\n", status.toString().c_str());
        return 1;
    }

    codegen::Options meta;
    meta.emitAddrMapSection = true;
    auto objs = codegen::compileProgram(program, meta);
    linker::Options lopts;
    lopts.entrySymbol = "main";
    linker::Executable metadata = linker::link(objs, lopts);

    sim::MachineOptions popts;
    popts.maxInstructions = 400'000;
    popts.collectLbr = true;
    popts.lbrSamplePeriod = 300;
    profile::Profile profiled = sim::collectProfile(metadata, popts);

    core::LayoutOptions intra;
    show("intra-procedural",
         core::runWholeProgramAnalysis(metadata, profiled, intra),
         program);

    core::LayoutOptions inter;
    inter.interProcedural = true;
    inter.interProcMinRunBlocks = 1; // Keep even single-block loop runs.
    show("inter-procedural (foo split around its callees)",
         core::runWholeProgramAnalysis(metadata, profiled, inter),
         program);
    return 0;
}
