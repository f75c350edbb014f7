/**
 * @file
 * Unit tests for the linker: symbol ordering, relocation resolution, the
 * relaxation pass (fall-through deletion and branch shrinking), metadata
 * handling and integrity-check generation.
 */

#include <gtest/gtest.h>

#include "build/workflow.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "support/hash.h"
#include "test_util.h"

namespace propeller::linker {
namespace {

std::vector<elf::ObjectFile>
compiled(const ir::Program &program, codegen::Options copts = {})
{
    return codegen::compileProgram(program, copts);
}

Options
baseOptions()
{
    Options opts;
    opts.entrySymbol = "main";
    return opts;
}

TEST(Linker, ResolvesSymbolsAndEntry)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());

    const FuncRange *main_range = exe.findSymbol("main");
    ASSERT_NE(main_range, nullptr);
    EXPECT_EQ(exe.entryAddress, main_range->start);
    EXPECT_TRUE(main_range->isPrimary);
    ASSERT_NE(exe.findSymbol("work"), nullptr);
    EXPECT_EQ(exe.findSymbol("ghost"), nullptr);
    EXPECT_GE(exe.textBase, 0x400000u);
    EXPECT_FALSE(exe.text.empty());
}

TEST(Linker, SymbolOrderControlsLayout)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.symbolOrder = {"main", "work"};
    Executable a = link(compiled(program), opts);
    opts.symbolOrder = {"work", "main"};
    Executable b = link(compiled(program), opts);

    EXPECT_LT(a.findSymbol("main")->start, a.findSymbol("work")->start);
    EXPECT_LT(b.findSymbol("work")->start, b.findSymbol("main")->start);
}

TEST(Linker, UnknownOrderEntriesIgnored)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.symbolOrder = {"nonexistent", "work"};
    Executable exe = link(compiled(program), opts);
    EXPECT_LT(exe.findSymbol("work")->start, exe.findSymbol("main")->start);
}

/** Decode every instruction of every non-hand-asm symbol range. */
void
verifyDecodable(const Executable &exe)
{
    for (const auto &sym : exe.symbols) {
        if (sym.isHandAsm)
            continue;
        uint64_t pc = sym.start;
        while (pc < sym.end) {
            auto inst = isa::decode(exe.text.data() + (pc - exe.textBase),
                                    sym.end - pc);
            ASSERT_TRUE(inst.has_value())
                << "undecodable byte at " << std::hex << pc << " in "
                << sym.name;
            // Branch targets must land inside the image.
            if (inst->isCondBranch() || inst->isUncondBranch() ||
                inst->isCall()) {
                uint64_t target =
                    pc + inst->size() + static_cast<int64_t>(inst->rel);
                EXPECT_TRUE(exe.containsText(target))
                    << "wild branch at " << std::hex << pc;
            }
            pc += inst->size();
        }
    }
}

TEST(Linker, AllInstructionsDecodableAndTargetsInImage)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());
    verifyDecodable(exe);
}

TEST(LinkerRelax, ShrinksShortRangeBranches)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    Options opts = baseOptions();
    link(compiled(program), opts, &stats);
    EXPECT_GT(stats.branchesShrunk, 0u)
        << "tiny program branches all fit in rel8";

    opts.relax = false;
    link(compiled(program), opts, &stats);
    EXPECT_EQ(stats.branchesShrunk, 0u);
    EXPECT_EQ(stats.fallThroughsDeleted, 0u);
}

TEST(LinkerRelax, DeletesFallThroughJumpsInAllBlockSections)
{
    // One section per block keeps original order at link time, so every
    // explicit fall-through jump whose target follows it is deletable.
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    LinkStats stats;
    Executable exe = link(compiled(program, copts), baseOptions(), &stats);
    EXPECT_GT(stats.fallThroughsDeleted, 0u);
    verifyDecodable(exe);
}

TEST(LinkerRelax, RelaxedBinaryIsSmaller)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    Options opts = baseOptions();
    Executable relaxed = link(compiled(program, copts), opts);
    opts.relax = false;
    Executable fat = link(compiled(program, copts), opts);
    EXPECT_LT(relaxed.text.size(), fat.text.size());
}

TEST(LinkerRelax, ConvergesWithinIterationCap)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    link(compiled(program), baseOptions(), &stats);
    EXPECT_LE(stats.relaxIterations, 8u);
    EXPECT_GE(stats.relaxIterations, 2u);
}

TEST(Linker, BbAddrMapHasAbsoluteContiguousBlocks)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    Executable exe = link(compiled(program, copts), baseOptions());

    ASSERT_EQ(exe.bbAddrMap.size(), 2u);
    for (const auto &map : exe.bbAddrMap) {
        const FuncRange *range = exe.findSymbol(map.function);
        ASSERT_NE(range, nullptr);
        for (const auto &block : map.blocks) {
            EXPECT_GE(block.address, range->start);
            EXPECT_LE(block.address + block.size, range->end);
        }
    }
}

TEST(Linker, AddrMapsDroppedWithoutMetadataSection)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());
    EXPECT_TRUE(exe.bbAddrMap.empty())
        << "no .bb_addr_map sections -> no executable map";
}

TEST(Linker, DropAddrMapsOfColdObjects)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    auto objects = compiled(program, copts);

    std::set<std::string> cold = {"tiny_mod.o"};
    Options opts = baseOptions();
    opts.dropAddrMapsOf = &cold;
    Executable exe = link(objects, opts);
    EXPECT_TRUE(exe.bbAddrMap.empty());
    EXPECT_EQ(exe.sizes.bbAddrMap, 0u);

    Options keep = baseOptions();
    Executable exe2 = link(objects, keep);
    EXPECT_GT(exe2.sizes.bbAddrMap, 0u);
    EXPECT_FALSE(exe2.bbAddrMap.empty());
}

TEST(Linker, EmitRelocsCountsRelaSizes)
{
    ir::Program program = test::tinyProgram();
    auto objects = compiled(program);
    Options opts = baseOptions();
    Executable plain = link(objects, opts);
    EXPECT_EQ(plain.sizes.relocs, 0u);

    opts.emitRelocs = true;
    Executable bm = link(objects, opts);
    EXPECT_GT(bm.sizes.relocs, 0u);
    EXPECT_EQ(bm.sizes.relocs % elf::kRelaEntrySize, 0u);
    EXPECT_EQ(bm.text, plain.text) << "relocs do not change the image";
}

TEST(Linker, HugePagesAlignBase)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.hugePagesText = true;
    Executable exe = link(compiled(program), opts);
    EXPECT_TRUE(exe.hugePagesText);
    EXPECT_EQ(exe.textBase % (2ull * 1024 * 1024), 0u);
}

TEST(Linker, IntegrityChecksHashPrimaryRanges)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->functions[0]->hasIntegrityCheck = true;
    Executable exe = link(compiled(program), baseOptions());
    ASSERT_EQ(exe.integrityChecks.size(), 1u);
    EXPECT_EQ(exe.integrityChecks[0].function, "work");
    EXPECT_NE(exe.integrityChecks[0].expectedHash, 0u);

    // Different layouts produce different hashes (same function content).
    Options opts = baseOptions();
    opts.symbolOrder = {"main", "work"};
    Executable other = link(compiled(program), opts);
    // Hash may or may not change depending on displacement encodings, but
    // the mechanism must recompute; at minimum it is self-consistent.
    ASSERT_EQ(other.integrityChecks.size(), 1u);
}

TEST(Linker, MemoryModelScalesWithInputs)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    link(compiled(program), baseOptions(), &stats);
    // Runtime floor plus a multiple of the inputs.
    constexpr uint64_t kFloor = 192 * 1024;
    EXPECT_GT(stats.peakMemory, kFloor + stats.inputBytes);
    EXPECT_LT(stats.peakMemory, kFloor + stats.inputBytes * 4);
}

TEST(Linker, ExternalMeterPulsed)
{
    ir::Program program = test::tinyProgram();
    MemoryMeter meter;
    Options opts = baseOptions();
    opts.meter = &meter;
    LinkStats stats;
    link(compiled(program), opts, &stats);
    EXPECT_EQ(meter.peak(), stats.peakMemory);
    EXPECT_EQ(meter.live(), 0u);
}

TEST(Linker, SizesBreakdownConsistent)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->rodataBytes = 128;
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    Executable exe = link(compiled(program, copts), baseOptions());
    EXPECT_EQ(exe.sizes.text, exe.text.size());
    EXPECT_GT(exe.sizes.ehFrame, 0u);
    EXPECT_GT(exe.sizes.bbAddrMap, 0u);
    EXPECT_GE(exe.sizes.other, 128u);
    EXPECT_EQ(exe.fileSize(), 4096 + exe.sizes.total());
}

TEST(Linker, DebugRelocsOnlyWithEmitRelocs)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitDebugInfo = true;
    auto objects = compiled(program, copts);

    Options opts = baseOptions();
    Executable stripped = link(objects, opts);
    EXPECT_GT(stripped.sizes.debug, 0u);
    EXPECT_EQ(stripped.sizes.relocs, 0u);

    opts.emitRelocs = true;
    Executable bm = link(objects, opts);
    EXPECT_GT(bm.sizes.relocs, 0u);
    EXPECT_GT(bm.sizes.relocs,
              link(compiled(program), opts).sizes.relocs)
        << "debug relocations inflate --emit-relocs binaries";
}

TEST(Linker, DeterministicOutput)
{
    ir::Program program = test::tinyProgram();
    Executable a = link(compiled(program), baseOptions());
    Executable b = link(compiled(program), baseOptions());
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.entryAddress, b.entryAddress);
}

// ---- Golden link digests ----------------------------------------------
//
// One digest over every Executable and LinkStats field, per link shape
// the pipeline runs.  The twin and engine-identity tests compare this
// linker with itself, so a change that shifts the output the same way on
// every path shows only here.  The expected values were computed with
// the map-keyed linker that the flat-array linker replaced.

uint64_t
linkDigest(const Executable &exe, const LinkStats &stats)
{
    test::Digest d;
    d.add(exe.name);
    d.add(exe.textBase);
    d.add(exe.entryAddress);
    d.add(exe.text.size());
    d.add(fnv1a(exe.text));
    d.add(exe.identityHash);
    d.add(exe.hugePagesText ? 1 : 0);
    d.add(exe.symbols.size());
    for (const auto &sym : exe.symbols) {
        d.add(sym.name);
        d.add(sym.parentFunction);
        d.add(sym.start);
        d.add(sym.end);
        d.add(sym.isPrimary ? 1 : 0);
        d.add(sym.isHandAsm ? 1 : 0);
    }
    d.add(exe.bbAddrMap.size());
    for (const auto &map : exe.bbAddrMap) {
        d.add(map.function);
        d.add(map.functionHash);
        d.add(map.blocks.size());
        for (const auto &block : map.blocks) {
            d.add(block.bbId);
            d.add(block.address);
            d.add(block.size);
            d.add(block.flags);
            d.add(block.hash);
            d.add(block.succCount);
            for (uint32_t succ : map.successors(block))
                d.add(succ);
        }
    }
    d.add(exe.integrityChecks.size());
    for (const auto &check : exe.integrityChecks) {
        d.add(check.function);
        d.add(check.expectedHash);
    }
    d.add(exe.frames.size());
    for (const auto &frame : exe.frames) {
        d.add(frame.sectionSymbol);
        d.add(frame.start);
        d.add(frame.end);
    }
    d.add(exe.sizes.text);
    d.add(exe.sizes.ehFrame);
    d.add(exe.sizes.bbAddrMap);
    d.add(exe.sizes.relocs);
    d.add(exe.sizes.debug);
    d.add(exe.sizes.other);

    d.add(stats.inputBytes);
    d.add(stats.sectionsLinked);
    d.add(stats.fallThroughsDeleted);
    d.add(stats.branchesShrunk);
    d.add(stats.relaxIterations);
    d.add(stats.peakMemory);
    d.add(stats.quarantinedFunctions);
    d.add(stats.quarantined.size());
    for (const auto &name : stats.quarantined)
        d.add(name);
    d.add(stats.addrMapsRejected);
    d.add(stats.rejectedAddrMapObjects.size());
    for (const auto &name : stats.rejectedAddrMapObjects)
        d.add(name);
    return d.value();
}

/** Digests of the five link shapes of one app. */
struct GoldenLinks
{
    uint64_t phase2 = 0;    ///< Phase 2, .bb_addr_map kept.
    uint64_t stripped = 0;  ///< Phase 2 objects, maps stripped.
    uint64_t phase4 = 0;    ///< Phase 4 objects in ld_prof order.
    uint64_t boltInput = 0; ///< --emit-relocs, maps stripped.
    uint64_t hugePages = 0; ///< 2 MiB text, cold objects' maps dropped.
};

GoldenLinks
goldenLinks(const workload::WorkloadConfig &cfg, bool debug_info)
{
    buildsys::Workflow wf(cfg);
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    copts.emitDebugInfo = debug_info;
    auto phase2 = compiled(wf.program(), copts);

    Options base;
    base.outputName = cfg.name;
    base.entrySymbol = wf.program().entryFunction;

    auto digest = [](const std::vector<elf::ObjectFile> &objects,
                     const Options &opts) {
        LinkStats stats;
        auto exe = linkChecked(objects, opts, &stats);
        EXPECT_TRUE(exe.ok()) << exe.status().toString();
        return exe.ok() ? linkDigest(exe.value(), stats) : 0;
    };

    GoldenLinks out;
    out.phase2 = digest(phase2, base);

    // The digests only pin what the links produce: make sure the Phase 2
    // image carries every kind of metadata the digest covers.
    Executable pm = link(phase2, base);
    EXPECT_FALSE(pm.frames.empty());
    EXPECT_FALSE(pm.integrityChecks.empty());
    bool has_succs = false, has_hash = false;
    for (const auto &map : pm.bbAddrMap) {
        for (const auto &block : map.blocks) {
            has_succs |= block.succCount != 0;
            has_hash |= block.hash != 0;
        }
    }
    EXPECT_TRUE(has_succs && has_hash);

    Options stripped = base;
    stripped.stripAddrMaps = true;
    out.stripped = digest(phase2, stripped);

    Options po = base;
    po.symbolOrder = wf.wpa().ldProf.symbolOrder;
    out.phase4 = digest(wf.phase4Objects(), po);

    Options bm = stripped;
    bm.emitRelocs = true;
    out.boltInput = digest(phase2, bm);

    std::set<std::string> cold(wf.coldObjects().begin(),
                               wf.coldObjects().end());
    Options huge = base;
    huge.hugePagesText = true;
    huge.dropAddrMapsOf = &cold;
    out.hugePages = digest(phase2, huge);
    return out;
}

void
expectGolden(const GoldenLinks &got, const GoldenLinks &want)
{
    EXPECT_EQ(got.phase2, want.phase2)
        << "phase2 0x" << hashDigest(got.phase2);
    EXPECT_EQ(got.stripped, want.stripped)
        << "stripped 0x" << hashDigest(got.stripped);
    EXPECT_EQ(got.phase4, want.phase4)
        << "phase4 0x" << hashDigest(got.phase4);
    EXPECT_EQ(got.boltInput, want.boltInput)
        << "boltInput 0x" << hashDigest(got.boltInput);
    EXPECT_EQ(got.hugePages, want.hugePages)
        << "hugePages 0x" << hashDigest(got.hugePages);
}

TEST(LinkGolden, SmallAppWithIntegrityChecks)
{
    workload::WorkloadConfig cfg = test::smallConfig(47);
    cfg.integrityCheckedFunctions = 2;
    GoldenLinks want;
    want.phase2 = 0x21f2ecb29503aa26ull;
    want.stripped = 0x696baa639c93e13eull;
    want.phase4 = 0x43dc96bbd7bc831aull;
    want.boltInput = 0x9fb42654023410b1ull;
    want.hugePages = 0xd0083e7b22cbeb68ull;
    expectGolden(goldenLinks(cfg, false), want);
}

TEST(LinkGolden, HandAsmAppWithDebugInfo)
{
    workload::WorkloadConfig cfg = test::smallConfig(73);
    cfg.integrityCheckedFunctions = 1;
    cfg.handAsmFunctions = 3;
    GoldenLinks want;
    want.phase2 = 0x97da84c59d4dbe29ull;
    want.stripped = 0xe91f1e4980c6c195ull;
    want.phase4 = 0x632fb3c27d97c2daull;
    want.boltInput = 0x765c47851f629fc2ull;
    want.hugePages = 0x738c1476ff19e35eull;
    expectGolden(goldenLinks(cfg, true), want);
}

} // namespace
} // namespace propeller::linker
