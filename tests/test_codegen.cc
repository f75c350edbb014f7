/**
 * @file
 * Unit tests for the compiler backend: section planning, basic block
 * sections, branch-site emission, address maps, CFI and the landing-pad
 * rule of paper section 4.5.
 */

#include <gtest/gtest.h>

#include "codegen/codegen.h"
#include "test_util.h"

namespace propeller::codegen {
namespace {

using elf::ObjectFile;
using elf::SectionType;

const ir::Module &
tinyModule(ir::Program &program)
{
    return *program.modules[0];
}

/** The object's address maps, decoded from its .bb_addr_map section. */
std::vector<elf::FunctionAddrMap>
addrMapsOf(const ObjectFile &obj)
{
    int sect = obj.findSection(".bb_addr_map");
    EXPECT_GE(sect, 0);
    if (sect < 0)
        return {};
    auto maps = elf::decodeAddrMapsChecked(obj.sections[sect].bytes);
    EXPECT_TRUE(maps.ok()) << maps.status().toString();
    return maps.ok() ? std::move(maps).value()
                     : std::vector<elf::FunctionAddrMap>{};
}

TEST(CodegenBaseline, OneSectionPerFunction)
{
    ir::Program program = test::tinyProgram();
    Options opts;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    int text_sections = 0;
    for (const auto &sec : obj.sections)
        text_sections += (sec.type == SectionType::Text);
    EXPECT_EQ(text_sections, 2);
    EXPECT_GE(obj.findSection(".text.work"), 0);
    EXPECT_GE(obj.findSection(".text.main"), 0);
    ASSERT_EQ(obj.symbols.size(), 2u);
    for (const auto &sym : obj.symbols)
        EXPECT_EQ(sym.kind, elf::SymbolKind::Function);
}

TEST(CodegenBaseline, CallSitesBecomeBranchSites)
{
    ir::Program program = test::tinyProgram();
    ObjectFile obj = compileModule(tinyModule(program), Options{});
    const elf::Section &main_sec =
        obj.sections[obj.findSection(".text.main")];
    int calls = 0;
    for (const auto &piece : main_sec.pieces) {
        if (piece.site && piece.site->op == isa::Opcode::Call) {
            ++calls;
            EXPECT_EQ(piece.site->targetSymbol, "work");
            EXPECT_EQ(piece.site->targetBb, elf::kSectionStart);
        }
    }
    EXPECT_EQ(calls, 1);
}

TEST(CodegenBaseline, IntraSectionFallthroughEmitsNoJump)
{
    // In "work", bb1 ends with Br(3) and bb2 follows bb1; bb2's Br(3)
    // falls through to bb3 with no instruction.
    ir::Program program = test::tinyProgram();
    ObjectFile obj = compileModule(tinyModule(program), Options{});
    const elf::Section &sec = obj.sections[obj.findSection(".text.work")];
    int jumps = 0;
    for (const auto &piece : sec.pieces) {
        if (piece.site && piece.site->op == isa::Opcode::JmpNear)
            ++jumps;
    }
    // bb1 -> bb3 needs a jump over bb2; bb2 -> bb3 falls through.
    EXPECT_EQ(jumps, 1);
}

TEST(CodegenBaseline, AddrMapMatchesEmittedSizes)
{
    ir::Program program = test::tinyProgram();
    Options opts;
    opts.emitAddrMapSection = true;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    const std::vector<elf::FunctionAddrMap> maps = addrMapsOf(obj);
    ASSERT_EQ(maps.size(), 2u);
    for (const auto &map : maps) {
        for (const auto &range : map.ranges) {
            int sec_idx = obj.findSection(".text." + range.sectionSymbol);
            ASSERT_GE(sec_idx, 0);
            uint64_t sec_size = obj.sections[sec_idx].size();
            const auto &blocks = range.blocks;
            ASSERT_FALSE(blocks.empty());
            EXPECT_EQ(blocks.front().offset, 0u);
            for (size_t i = 0; i + 1 < blocks.size(); ++i) {
                EXPECT_EQ(blocks[i].offset + blocks[i].size,
                          blocks[i + 1].offset);
            }
            EXPECT_EQ(blocks.back().offset + blocks.back().size, sec_size);
        }
    }
    EXPECT_GE(obj.findSection(".bb_addr_map"), 0);
}

TEST(CodegenBaseline, AddrMapSectionOnlyWhenRequested)
{
    ir::Program program = test::tinyProgram();
    ObjectFile obj = compileModule(tinyModule(program), Options{});
    EXPECT_EQ(obj.findSection(".bb_addr_map"), -1);
}

TEST(CodegenClusters, SplitsIntoNamedSections)
{
    ir::Program program = test::tinyProgram();
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0, 1, 3}, {2}};
    spec.coldIndex = 1;
    clusters.emplace("work", spec);

    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    EXPECT_GE(obj.findSection(".text.work"), 0);
    EXPECT_GE(obj.findSection(".text.work.cold"), 0);
    // main has no spec: single section.
    EXPECT_GE(obj.findSection(".text.main"), 0);
    EXPECT_EQ(obj.findSection(".text.main.cold"), -1);

    bool found_cold_symbol = false;
    for (const auto &sym : obj.symbols) {
        if (sym.name == "work.cold") {
            found_cold_symbol = true;
            EXPECT_EQ(sym.kind, elf::SymbolKind::Cluster);
            EXPECT_EQ(sym.parentFunction, "work");
        }
    }
    EXPECT_TRUE(found_cold_symbol);
}

TEST(CodegenClusters, NumericSuffixesForExtraClusters)
{
    ir::Program program = test::tinyProgram();
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0}, {1}, {3}, {2}};
    spec.coldIndex = 3;
    clusters.emplace("work", spec);

    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    opts.emitAddrMapSection = true;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    EXPECT_GE(obj.findSection(".text.work.1"), 0);
    EXPECT_GE(obj.findSection(".text.work.2"), 0);
    EXPECT_GE(obj.findSection(".text.work.cold"), 0);

    // Four ranges in the address map, one per cluster.
    bool found = false;
    for (const auto &map : addrMapsOf(obj)) {
        if (map.functionName == "work") {
            found = true;
            EXPECT_EQ(map.ranges.size(), 4u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(CodegenClusters, CrossSectionCondBrGetsExplicitFallthrough)
{
    // Cluster {0} alone: its CondBr(1, 2) has both successors in other
    // sections -> Jcc site plus a fall-through Jmp site.
    ir::Program program = test::tinyProgram();
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0}, {1}, {2}, {3}};
    clusters.emplace("work", spec);

    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    const elf::Section &sec = obj.sections[obj.findSection(".text.work")];
    ASSERT_EQ(sec.pieces.size(), 2u);
    ASSERT_TRUE(sec.pieces[0].site.has_value());
    EXPECT_EQ(sec.pieces[0].site->op, isa::Opcode::JccNear);
    EXPECT_EQ(sec.pieces[0].site->targetBb, 1u);
    ASSERT_TRUE(sec.pieces[1].site.has_value());
    EXPECT_EQ(sec.pieces[1].site->op, isa::Opcode::JmpNear);
    EXPECT_TRUE(sec.pieces[1].site->isFallThrough);
    EXPECT_EQ(sec.pieces[1].site->targetBb, 2u);
}

TEST(CodegenClusters, InvertedPolarityWhenTrueTargetIsNext)
{
    // Cluster {0, 1, ...}: trueTarget 1 follows the CondBr -> inverted
    // Jcc targeting the false successor.
    ir::Program program = test::tinyProgram();
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0, 1, 3}, {2}};
    spec.coldIndex = 1;
    clusters.emplace("work", spec);

    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    const elf::Section &sec = obj.sections[obj.findSection(".text.work")];
    ASSERT_TRUE(sec.pieces[0].site.has_value());
    const elf::BranchSite &site = *sec.pieces[0].site;
    EXPECT_EQ(site.op, isa::Opcode::JccNear);
    EXPECT_TRUE(site.flags & isa::kJccInvert);
    EXPECT_EQ(site.targetBb, 2u) << "targets the false successor";
}

TEST(CodegenAllMode, OneSectionPerBlock)
{
    ir::Program program = test::tinyProgram();
    Options opts;
    opts.bbSections = BbSectionsMode::All;
    ObjectFile obj = compileModule(tinyModule(program), opts);
    // work: 4 blocks, main: 4 blocks -> 8 text sections.
    int text_sections = 0;
    for (const auto &sec : obj.sections)
        text_sections += (sec.type == SectionType::Text);
    EXPECT_EQ(text_sections, 8);
    EXPECT_GE(obj.findSection(".text.work.b2"), 0);
}

TEST(CodegenEh, LandingPadSectionGetsNopPrefix)
{
    ir::Program program = test::tinyProgram();
    // Mark bb2 of work as a landing pad and isolate it in a section.
    program.modules[0]->functions[0]->blocks[2]->isLandingPad = true;
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0, 1, 3}, {2}};
    spec.coldIndex = 1;
    clusters.emplace("work", spec);

    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    opts.emitAddrMapSection = true;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    const elf::Section &cold =
        obj.sections[obj.findSection(".text.work.cold")];
    ASSERT_FALSE(cold.pieces.empty());
    EXPECT_FALSE(cold.pieces[0].block.has_value())
        << "first piece is the nop prefix, not a block";
    ASSERT_EQ(cold.pieces[0].bytes.size(), 1u);
    EXPECT_EQ(cold.pieces[0].bytes[0],
              static_cast<uint8_t>(isa::Opcode::Nop));
    // The landing-pad block therefore starts at a nonzero offset.
    for (const auto &map : addrMapsOf(obj)) {
        if (map.functionName != "work")
            continue;
        EXPECT_EQ(map.ranges[1].blocks[0].offset, 1u);
        EXPECT_TRUE(map.ranges[1].blocks[0].flags & elf::kBbLandingPad);
    }
}

TEST(CodegenEh, FrameDescriptorsPerSection)
{
    ir::Program program = test::tinyProgram();
    ClusterMap clusters;
    ClusterSpec spec;
    spec.clusters = {{0, 1, 3}, {2}};
    spec.coldIndex = 1;
    clusters.emplace("work", spec);
    Options opts;
    opts.bbSections = BbSectionsMode::Clusters;
    opts.clusters = &clusters;
    ObjectFile obj = compileModule(tinyModule(program), opts);
    // work: 2 fragments, main: 1 -> 3 FDEs (paper 4.4).
    EXPECT_EQ(obj.frames.size(), 3u);
    int eh = obj.findSection(".eh_frame");
    ASSERT_GE(eh, 0);
    uint64_t expected = 0;
    for (const auto &fde : obj.frames)
        expected += fde.byteSize();
    EXPECT_GE(obj.sections[eh].size(), expected);
}

TEST(CodegenHandAsm, EmitsBlobWithoutAddrMap)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->functions[0]->isHandAsm = true;
    Options opts;
    opts.bbSections = BbSectionsMode::All; // Must be ignored for hand-asm.
    opts.emitAddrMapSection = true;
    ObjectFile obj = compileModule(tinyModule(program), opts);

    const elf::Section &sec = obj.sections[obj.findSection(".text.work")];
    EXPECT_TRUE(sec.isHandAsm);
    // Trailing data blob piece has no block mark.
    EXPECT_FALSE(sec.pieces.back().block.has_value());
    EXPECT_FALSE(sec.pieces.back().bytes.empty());
    const std::vector<elf::FunctionAddrMap> maps = addrMapsOf(obj);
    EXPECT_EQ(maps.size(), 1u);
    for (const auto &map : maps)
        EXPECT_NE(map.functionName, "work");
}

TEST(CodegenIntegrity, CheckedFunctionsRecorded)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->functions[1]->hasIntegrityCheck = true;
    ObjectFile obj = compileModule(tinyModule(program), Options{});
    ASSERT_EQ(obj.integrityCheckedFunctions.size(), 1u);
    EXPECT_EQ(obj.integrityCheckedFunctions[0], "main");
}

TEST(CodegenRodata, EmittedWhenConfigured)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->rodataBytes = 256;
    ObjectFile obj = compileModule(tinyModule(program), Options{});
    int idx = obj.findSection(".rodata.tiny_mod");
    ASSERT_GE(idx, 0);
    EXPECT_EQ(obj.sections[idx].size(), 256u);
    EXPECT_EQ(obj.sections[idx].type, SectionType::RoData);
}

TEST(CodegenDeterminism, SameInputSameBytes)
{
    ir::Program p1 = test::tinyProgram();
    ir::Program p2 = test::tinyProgram();
    Options opts;
    opts.emitAddrMapSection = true;
    EXPECT_EQ(compileModule(*p1.modules[0], opts).serialize(),
              compileModule(*p2.modules[0], opts).serialize());
}

TEST(CodegenDebugInfo, EmitsSectionAndRelocations)
{
    ir::Program program = test::tinyProgram();
    Options opts;
    opts.emitDebugInfo = true;
    ObjectFile obj = compileModule(tinyModule(program), opts);
    int dbg = obj.findSection(".debug_info");
    ASSERT_GE(dbg, 0);
    EXPECT_EQ(obj.sections[dbg].type, SectionType::Debug);
    EXPECT_GT(obj.sections[dbg].size(), 0u);
    EXPECT_GT(obj.debugRelocs, 0u);
    // Debug relocations land in the size breakdown's .rela bucket.
    auto with = obj.sizeBreakdown();
    ObjectFile plain = compileModule(tinyModule(program), Options{});
    auto without = plain.sizeBreakdown();
    EXPECT_GT(with.relocs, without.relocs);
    EXPECT_GT(with.debug, 0u);
    EXPECT_EQ(without.debug, 0u);
}

TEST(CodegenDebugInfo, MoreFragmentsMoreRangeEntries)
{
    ir::Program program = test::tinyProgram();
    Options single;
    single.emitDebugInfo = true;
    Options split;
    split.emitDebugInfo = true;
    split.bbSections = BbSectionsMode::All;
    ObjectFile a = compileModule(tinyModule(program), single);
    ObjectFile b = compileModule(tinyModule(program), split);
    EXPECT_GT(b.debugRelocs, a.debugRelocs)
        << "each extra fragment needs DW_AT_ranges endpoint relocations";
}

TEST(CodegenNames, ClusterSymbolNaming)
{
    EXPECT_EQ(clusterSymbolName("f", 0, false), "f");
    EXPECT_EQ(clusterSymbolName("f", 1, true), "f.cold");
    EXPECT_EQ(clusterSymbolName("f", 2, false), "f.2");
}

} // namespace
} // namespace propeller::codegen
