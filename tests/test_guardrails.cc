/**
 * @file
 * Death tests for the structural guardrails: producer bugs (unresolved
 * symbols, duplicate symbols, malformed cluster specs) must be caught by
 * assertions rather than corrupting output binaries.
 */

#include <gtest/gtest.h>

#include "build/workflow.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "test_util.h"

namespace propeller {
namespace {

// The linker guardrails are PROPELLER_CHECKs on the abort-on-corruption
// wrapper (linker::link), which stay armed in Release builds, so these
// death tests run unconditionally.  Typed-error behaviour of the same
// failures via linkChecked() is covered in test_faults.cc.

TEST(GuardrailsDeathTest, LinkerRejectsUnresolvedSymbol)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    // Corrupt a call site to target a ghost symbol.
    for (auto &sec : objects[0].sections) {
        for (auto &piece : sec.pieces) {
            if (piece.site && piece.site->op == isa::Opcode::Call)
                piece.site->targetSymbol = "ghost";
        }
    }
    linker::Options opts;
    opts.entrySymbol = "main";
    EXPECT_DEATH(linker::link(objects, opts), "unresolved symbol");
}

TEST(GuardrailsDeathTest, LinkerRejectsDuplicateSectionSymbols)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    auto duplicate = objects;
    duplicate[0].name = "copy.o";
    objects.push_back(duplicate[0]);
    linker::Options opts;
    opts.entrySymbol = "main";
    EXPECT_DEATH(linker::link(objects, opts), "duplicate section symbol");
}

TEST(GuardrailsDeathTest, LinkerRejectsMissingEntry)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    linker::Options opts;
    opts.entrySymbol = "nonexistent";
    EXPECT_DEATH(linker::link(objects, opts), "entry symbol");
}

// Workflow input seams are PROPELLER_CHECKs too: an override after its
// product was pulled would leave products built from different inputs.
TEST(GuardrailsDeathTest, MetadataBinaryOverrideMustPrecedeThePull)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    buildsys::Workflow wf(test::smallConfig());
    linker::Executable pm = wf.metadataBinary();
    EXPECT_DEATH(wf.overrideMetadataBinary(pm),
                 "overrideMetadataBinary after the metadata binary");
}

// The codegen guardrails are plain asserts (cluster specs reaching the
// backend have been sanitized; a violation is a producer bug), so their
// death tests only exist in Debug builds.
#ifndef NDEBUG

TEST(GuardrailsDeathTest, CodegenRejectsIncompleteClusterSpec)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ir::Program program = test::tinyProgram();
    codegen::ClusterMap clusters;
    codegen::ClusterSpec spec;
    spec.clusters = {{0, 1}}; // Blocks 2 and 3 of "work" unlisted.
    clusters.emplace("work", spec);
    codegen::Options opts;
    opts.bbSections = codegen::BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    EXPECT_DEATH(codegen::compileProgram(program, opts),
                 "cover every block");
}

TEST(GuardrailsDeathTest, CodegenRejectsWrongPrimaryHead)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ir::Program program = test::tinyProgram();
    codegen::ClusterMap clusters;
    codegen::ClusterSpec spec;
    spec.clusters = {{1, 0, 2, 3}}; // Entry not first.
    clusters.emplace("work", spec);
    codegen::Options opts;
    opts.bbSections = codegen::BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    EXPECT_DEATH(codegen::compileProgram(program, opts),
                 "start with the entry block");
}

#endif // NDEBUG

} // namespace
} // namespace propeller
