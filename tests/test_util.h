#ifndef PROPELLER_TESTS_TEST_UTIL_H
#define PROPELLER_TESTS_TEST_UTIL_H

/**
 * @file
 * Shared helpers for the test suite: tiny hand-built IR programs, a
 * small synthetic workload config that keeps tests fast, a
 * field-by-field comparison of linked images, a golden-value digest and
 * journal framing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "build/journal.h"
#include "ir/ir.h"
#include "linker/executable.h"
#include "support/hash.h"
#include "workload/workload.h"

namespace propeller::test {

/** One digest over a stream of fields, for golden-value tests. */
class Digest
{
  public:
    void add(uint64_t v) { h_ = hashCombine(h_, v); }

    void
    add(const std::string &s)
    {
        add(s.size());
        h_ = fnv1a(s, h_);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = kFnvOffset;
};

/** A small but structurally complete workload (fast to build and run). */
inline workload::WorkloadConfig
smallConfig(uint64_t seed = 47)
{
    workload::WorkloadConfig cfg;
    cfg.name = "testapp";
    cfg.seed = seed;
    cfg.modules = 12;
    cfg.functions = 80;
    cfg.hotFunctions = 26;
    cfg.coldObjectFraction = 0.6;
    cfg.minBlocks = 3;
    cfg.maxBlocks = 26;
    cfg.coldPathDensity = 0.35;
    // Enough profile staleness that layout has something to fix even at
    // this tiny scale.
    cfg.pgoStaleness = 0.4;
    cfg.handAsmFunctions = 1;
    cfg.multiModalFunctions = 2;
    cfg.evalInstructions = 600'000;
    cfg.profileInstructions = 600'000;
    cfg.sampleLbrPeriod = 2'000;
    return cfg;
}

/**
 * Build a function from a compact description: each entry is a block; the
 * caller wires terminators manually afterwards if needed.
 */
inline std::unique_ptr<ir::Function>
makeFunction(const std::string &name, size_t blocks)
{
    auto fn = std::make_unique<ir::Function>();
    fn->name = name;
    for (size_t i = 0; i < blocks; ++i) {
        auto bb = std::make_unique<ir::BasicBlock>();
        bb->id = static_cast<uint32_t>(i);
        fn->blocks.push_back(std::move(bb));
    }
    return fn;
}

/**
 * A tiny two-function program: main loops calling "work"; work has a hot
 * diamond plus a cold error path.  Used across linker/sim/propeller tests.
 */
inline ir::Program
tinyProgram()
{
    using namespace ir;
    Program program;
    program.name = "tiny";
    program.entryFunction = "main";

    auto mod = std::make_unique<Module>();
    mod->name = "tiny_mod";

    // work(): bb0 -> (bb1 hot | bb2 cold) -> bb3 ret
    auto work = makeFunction("work", 4);
    work->blocks[0]->insts = {makeWork(1, 10),
                              makeCondBr(1, 2, 240, 1000)};
    work->blocks[1]->insts = {makeWork(2, 20), makeWork(3, 30),
                              makeBr(3)};
    work->blocks[2]->insts = {makeWork(4, 40), makeWork(4, 41),
                              makeWork(4, 42), makeBr(3)};
    work->blocks[3]->insts = {makeWork(5, 50), makeRet()};

    // main(): two nested periodic request loops (~65K iterations), so
    // simulation runs are budget-bound and comparable across seeds.
    auto main_fn = makeFunction("main", 4);
    main_fn->blocks[0]->insts = {makeWork(0, 1), makeBr(1)};
    main_fn->blocks[1]->insts = {makeCall("work"),
                                 makeLoopBr(1, 2, 255, 1001)};
    main_fn->blocks[2]->insts = {makeWork(0, 2),
                                 makeLoopBr(1, 3, 255, 1002)};
    main_fn->blocks[3]->insts = {makeRet()};

    mod->functions.push_back(std::move(work));
    mod->functions.push_back(std::move(main_fn));
    program.modules.push_back(std::move(mod));
    return program;
}

/** Every field of two linked images. */
inline void
expectSameImage(const linker::Executable &a, const linker::Executable &b,
                const std::string &what)
{
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.textBase, b.textBase) << what;
    EXPECT_EQ(a.entryAddress, b.entryAddress) << what;
    EXPECT_EQ(a.text, b.text) << what;
    EXPECT_EQ(a.identityHash, b.identityHash) << what;
    EXPECT_EQ(a.hugePagesText, b.hugePagesText) << what;

    ASSERT_EQ(a.symbols.size(), b.symbols.size()) << what;
    for (size_t i = 0; i < a.symbols.size(); ++i) {
        const linker::FuncRange &x = a.symbols[i];
        const linker::FuncRange &y = b.symbols[i];
        EXPECT_TRUE(x.name == y.name &&
                    x.parentFunction == y.parentFunction &&
                    x.start == y.start && x.end == y.end &&
                    x.isPrimary == y.isPrimary &&
                    x.isHandAsm == y.isHandAsm)
            << what << ": symbol " << x.name;
    }

    ASSERT_EQ(a.bbAddrMap.size(), b.bbAddrMap.size()) << what;
    for (size_t i = 0; i < a.bbAddrMap.size(); ++i) {
        const linker::ExecFuncMap &x = a.bbAddrMap[i];
        const linker::ExecFuncMap &y = b.bbAddrMap[i];
        EXPECT_EQ(x.function, y.function) << what;
        EXPECT_EQ(x.functionHash, y.functionHash) << what;
        ASSERT_EQ(x.blocks.size(), y.blocks.size()) << what;
        for (size_t k = 0; k < x.blocks.size(); ++k) {
            const linker::ExecBlock &p = x.blocks[k];
            const linker::ExecBlock &q = y.blocks[k];
            EXPECT_TRUE(p.bbId == q.bbId && p.address == q.address &&
                        p.size == q.size && p.flags == q.flags &&
                        p.hash == q.hash &&
                        std::ranges::equal(x.successors(p),
                                           y.successors(q)))
                << what << ": " << x.function << " bb" << p.bbId;
        }
    }

    ASSERT_EQ(a.integrityChecks.size(), b.integrityChecks.size()) << what;
    for (size_t i = 0; i < a.integrityChecks.size(); ++i) {
        EXPECT_EQ(a.integrityChecks[i].function,
                  b.integrityChecks[i].function) << what;
        EXPECT_EQ(a.integrityChecks[i].expectedHash,
                  b.integrityChecks[i].expectedHash) << what;
    }

    ASSERT_EQ(a.frames.size(), b.frames.size()) << what;
    for (size_t i = 0; i < a.frames.size(); ++i) {
        EXPECT_TRUE(a.frames[i].sectionSymbol == b.frames[i].sectionSymbol &&
                    a.frames[i].start == b.frames[i].start &&
                    a.frames[i].end == b.frames[i].end)
            << what << ": frame " << a.frames[i].sectionSymbol;
    }

    EXPECT_EQ(a.sizes.text, b.sizes.text) << what;
    EXPECT_EQ(a.sizes.ehFrame, b.sizes.ehFrame) << what;
    EXPECT_EQ(a.sizes.bbAddrMap, b.sizes.bbAddrMap) << what;
    EXPECT_EQ(a.sizes.relocs, b.sizes.relocs) << what;
    EXPECT_EQ(a.sizes.debug, b.sizes.debug) << what;
    EXPECT_EQ(a.sizes.other, b.sizes.other) << what;
}

/** @p payload framed as a journal container stamped @p generation. */
inline std::vector<uint8_t>
journaled(uint64_t generation, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> buf(buildsys::kJournalHeaderBytes + payload.size());
    std::copy(payload.begin(), payload.end(),
              buf.begin() + buildsys::kJournalHeaderBytes);
    buildsys::encodeJournal(generation, buf);
    return buf;
}

} // namespace propeller::test

#endif // PROPELLER_TESTS_TEST_UTIL_H
