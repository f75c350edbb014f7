/**
 * @file
 * Unit tests for the mini-IR: construction helpers, CFG queries and the
 * structural verifier (parameterized over violation cases).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "ir/verifier.h"
#include "test_util.h"

namespace propeller::ir {
namespace {

TEST(IrFactories, BuildExpectedKinds)
{
    EXPECT_EQ(makeWork(1, 2).kind, InstKind::Work);
    EXPECT_EQ(makeWorkWide(1, 2).kind, InstKind::WorkWide);
    EXPECT_EQ(makeLoad(1, 2).kind, InstKind::Load);
    EXPECT_EQ(makeStore(1, 2).kind, InstKind::Store);
    EXPECT_EQ(makeCall("f").kind, InstKind::Call);
    EXPECT_EQ(makeCall("f").callee, "f");
    EXPECT_EQ(makeRet().kind, InstKind::Ret);
    EXPECT_EQ(makeBr(3).target, 3u);

    Inst cond = makeCondBr(1, 2, 128, 77);
    EXPECT_EQ(cond.trueTarget, 1u);
    EXPECT_EQ(cond.falseTarget, 2u);
    EXPECT_EQ(cond.bias, 128);
    EXPECT_EQ(cond.branchId, 77u);
    EXPECT_FALSE(cond.periodic);

    Inst loop = makeLoopBr(0, 1, 16, 78);
    EXPECT_TRUE(loop.periodic);
    EXPECT_EQ(loop.bias, 16);

    Inst degenerate = makeLoopBr(0, 1, 0, 79);
    EXPECT_GE(degenerate.bias, 2) << "trip counts below 2 are clamped";
}

TEST(IrPredicates, TerminatorDetection)
{
    EXPECT_TRUE(makeRet().isTerminator());
    EXPECT_TRUE(makeBr(0).isTerminator());
    EXPECT_TRUE(makeCondBr(0, 1, 1, 1).isTerminator());
    EXPECT_FALSE(makeWork(0, 0).isTerminator());
    EXPECT_FALSE(makeCall("f").isTerminator());
}

TEST(IrBlocks, SuccessorsFromTerminator)
{
    BasicBlock bb;
    bb.insts = {makeWork(0, 0), makeCondBr(3, 5, 10, 1)};
    EXPECT_EQ(bb.successors(), (std::vector<uint32_t>{3, 5}));
    bb.insts.back() = makeBr(9);
    EXPECT_EQ(bb.successors(), (std::vector<uint32_t>{9}));
    bb.insts.back() = makeRet();
    EXPECT_TRUE(bb.successors().empty());
}

TEST(IrProgram, QueriesOnTinyProgram)
{
    Program program = test::tinyProgram();
    EXPECT_EQ(program.functionCount(), 2u);
    EXPECT_EQ(program.blockCount(), 8u);
    EXPECT_GT(program.instCount(), 10u);
    ASSERT_NE(program.findFunction("work"), nullptr);
    EXPECT_EQ(program.findFunction("work")->blocks.size(), 4u);
    EXPECT_EQ(program.findFunction("nope"), nullptr);

    const Function *work = program.findFunction("work");
    ASSERT_NE(work->findBlock(3), nullptr);
    EXPECT_EQ(work->findBlock(3)->id, 3u);
    EXPECT_EQ(work->findBlock(99), nullptr);
    EXPECT_EQ(work->entry().id, 0u);
}

TEST(IrVerifier, AcceptsTinyProgram)
{
    Program program = test::tinyProgram();
    EXPECT_TRUE(verify(program).ok());
}

/** A mutation to apply to tinyProgram plus the expected error substring. */
struct VerifierCase
{
    const char *name;
    void (*mutate)(Program &);
    const char *expected;
};

/**
 * Print a case as its expected error. Without this gtest prints the raw
 * pointer bytes, so the listed test names change from run to run.
 */
void
PrintTo(const VerifierCase &c, std::ostream *os)
{
    *os << c.expected;
}

void
dropTerminator(Program &p)
{
    p.modules[0]->functions[0]->blocks[1]->insts.pop_back();
}

void
terminatorMidBlock(Program &p)
{
    auto &insts = p.modules[0]->functions[0]->blocks[1]->insts;
    insts.insert(insts.begin(), makeRet());
}

void
branchToNowhere(Program &p)
{
    p.modules[0]->functions[0]->blocks[0]->insts.back() =
        makeCondBr(1, 42, 100, 500);
}

void
duplicateBlockId(Program &p)
{
    p.modules[0]->functions[0]->blocks[2]->id = 1;
}

void
callUnknown(Program &p)
{
    auto &insts = p.modules[0]->functions[1]->blocks[1]->insts;
    insts[0] = makeCall("ghost");
}

void
duplicateBranchId(Program &p)
{
    p.modules[0]->functions[1]->blocks[1]->insts.back() =
        makeCondBr(1, 2, 250, 1000); // 1000 already used in "work".
}

void
badEntryFunction(Program &p)
{
    p.entryFunction = "missing";
}

void
emptyBlock(Program &p)
{
    p.modules[0]->functions[0]->blocks[2]->insts.clear();
}

void
landingPadEntry(Program &p)
{
    p.modules[0]->functions[0]->blocks[0]->isLandingPad = true;
}

void
duplicateFunctionName(Program &p)
{
    p.modules[0]->functions[1]->name = "work";
}

class VerifierViolations : public ::testing::TestWithParam<VerifierCase>
{
};

TEST_P(VerifierViolations, AreReported)
{
    Program program = test::tinyProgram();
    GetParam().mutate(program);
    std::vector<support::Status> errors = verifyAll(program);
    ASSERT_FALSE(errors.empty());
    EXPECT_FALSE(verify(program).ok());
    bool found = false;
    for (const auto &error : errors) {
        EXPECT_FALSE(error.ok());
        found |= error.message().find(GetParam().expected) !=
                 std::string::npos;
    }
    EXPECT_TRUE(found) << "expected '" << GetParam().expected
                       << "', got: " << errors[0].toString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VerifierViolations,
    ::testing::Values(
        VerifierCase{"dropTerminator", dropTerminator,
                     "does not end with a terminator"},
        VerifierCase{"terminatorMidBlock", terminatorMidBlock,
                     "terminator before end"},
        VerifierCase{"branchToNowhere", branchToNowhere,
                     "branch to unknown block"},
        VerifierCase{"duplicateBlockId", duplicateBlockId,
                     "duplicate block id"},
        VerifierCase{"callUnknown", callUnknown,
                     "call to unknown function"},
        VerifierCase{"duplicateBranchId", duplicateBranchId,
                     "duplicate branch id"},
        VerifierCase{"badEntryFunction", badEntryFunction,
                     "entry function"},
        VerifierCase{"emptyBlock", emptyBlock, "empty block"},
        VerifierCase{"landingPadEntry", landingPadEntry,
                     "entry block is a landing pad"},
        VerifierCase{"duplicateFunctionName", duplicateFunctionName,
                     "duplicate function name"}),
    [](const ::testing::TestParamInfo<VerifierCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace propeller::ir
