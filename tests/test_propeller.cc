/**
 * @file
 * Unit tests for the Propeller core: address map indexing, profile
 * mapping, Ext-TSP, hfsort, directives and layout computation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "build/workflow.h"
#include "support/bytes.h"
#include "support/rng.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "propeller/addr_map_index.h"
#include "propeller/directives.h"
#include "propeller/ext_tsp.h"
#include "propeller/hfsort.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "propeller/propeller.h"
#include "sim/machine.h"
#include "test_util.h"

namespace propeller::core {
namespace {

linker::Executable
metadataTiny()
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    linker::Options lopts;
    lopts.entrySymbol = "main";
    return linker::link(codegen::compileProgram(program, copts), lopts);
}

TEST(AddrMapIndex, LookupResolvesEveryBlock)
{
    linker::Executable exe = metadataTiny();
    AddrMapIndex index(exe);
    EXPECT_EQ(index.functionNames().size(), 2u);
    EXPECT_EQ(index.blockCount(), 8u);

    for (const auto &map : exe.bbAddrMap) {
        for (const auto &block : map.blocks) {
            if (block.size == 0)
                continue;
            auto ref = index.lookup(block.address);
            ASSERT_TRUE(ref.has_value());
            EXPECT_EQ(ref->bbId, block.bbId);
            // Last byte also resolves to the same block.
            auto last = index.lookup(block.address + block.size - 1);
            ASSERT_TRUE(last.has_value());
            EXPECT_EQ(last->bbId, block.bbId);
        }
    }
    EXPECT_FALSE(index.lookup(0x100).has_value());
}

TEST(AddrMapIndex, NextWalksLayoutOrder)
{
    linker::Executable exe = metadataTiny();
    AddrMapIndex index(exe);
    // Walk from the entry of main to the end; blocks must be contiguous
    // within each section.
    auto cur = index.lookup(exe.entryAddress);
    ASSERT_TRUE(cur.has_value());
    int steps = 0;
    while (auto nxt = index.next(*cur)) {
        ++steps;
        EXPECT_GE(nxt->blockStart, cur->blockStart);
        cur = nxt;
        if (steps > 20)
            break;
    }
    EXPECT_GT(steps, 2);
}

TEST(AddrMapIndex, EntryBlocksFromPrimarySymbols)
{
    linker::Executable exe = metadataTiny();
    AddrMapIndex index(exe);
    for (size_t f = 0; f < index.functionNames().size(); ++f)
        EXPECT_EQ(index.entryBlock(static_cast<uint32_t>(f)), 0u);
}

TEST(AddrMapIndex, BlocksOfReturnsAllBlocks)
{
    linker::Executable exe = metadataTiny();
    AddrMapIndex index(exe);
    for (size_t f = 0; f < index.functionNames().size(); ++f) {
        auto blocks = index.blocksOf(static_cast<uint32_t>(f));
        EXPECT_EQ(blocks.size(), 4u);
    }
    EXPECT_TRUE(index.block(0, 2).has_value());
    EXPECT_FALSE(index.block(0, 99).has_value());
}

TEST(AddrMapIndex, FindFunctionMatchesFunctionNames)
{
    linker::Executable exe = metadataTiny();
    // A repeated block id makes "work"'s map inconsistent, so the
    // damaged copy's index quarantines it.
    linker::Executable damaged = exe;
    auto work = std::find_if(
        damaged.bbAddrMap.begin(), damaged.bbAddrMap.end(),
        [](const linker::ExecFuncMap &m) { return m.function == "work"; });
    ASSERT_NE(work, damaged.bbAddrMap.end());
    ASSERT_GE(work->blocks.size(), 2u);
    work->blocks[1].bbId = work->blocks[0].bbId;

    for (const linker::Executable *e : {&exe, &damaged}) {
        AddrMapIndex index(*e);
        const std::vector<std::string> &names = index.functionNames();
        for (size_t i = 0; i < names.size(); ++i)
            EXPECT_EQ(index.findFunction(names[i]), static_cast<int>(i))
                << names[i];
        EXPECT_EQ(index.findFunction("no_such_function"), -1);
    }

    AddrMapIndex index(damaged);
    ASSERT_EQ(index.quarantined(), std::vector<std::string>{"work"});
    EXPECT_EQ(index.functionNames().size(), 1u);
    EXPECT_EQ(index.findFunction("work"), -1);
}

// ---- Golden index answers ----------------------------------------------
//
// One digest over every answer the index gives for an executable: each
// lookup, range walk, block, successor and name query, the quarantine
// list and the modelled footprint.  A change to how the index is built
// must leave all of them unchanged.  The expected values were computed
// with the index that scanned for block ids and kept a hash map of
// successor vectors per function.

void
addRef(test::Digest &d, const std::optional<BlockRef> &ref)
{
    d.add(ref.has_value() ? 1 : 0);
    if (!ref)
        return;
    d.add(ref->funcIndex);
    d.add(ref->bbId);
    d.add(ref->blockStart);
    d.add(ref->blockEnd);
    d.add(ref->flags);
    d.add(ref->hash);
    d.add(ref->intervalIndex);
}

uint64_t
indexDigest(const linker::Executable &exe)
{
    const AddrMapIndex index(exe);

    // Probes: every block's start, last byte and first byte past its
    // end (a gap or the next block), the text image's edges, and block
    // ids and names no map holds.
    std::vector<uint64_t> probes = {0, exe.textBase, exe.textEnd(),
                                    exe.textEnd() - 1, UINT64_MAX};
    std::vector<uint32_t> ids = {99, 0xFFFFFFF0u, 0xFFFFFFFFu};
    std::vector<std::string> names = {"", "no_such_function"};
    for (const auto &map : exe.bbAddrMap) {
        names.push_back(map.function);
        for (const auto &block : map.blocks) {
            probes.push_back(block.address);
            probes.push_back(block.address + block.size - 1);
            probes.push_back(block.address + block.size);
            ids.push_back(block.bbId);
        }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    test::Digest d;
    for (uint64_t addr : probes)
        addRef(d, index.lookup(addr));

    const std::vector<std::string> &functions = index.functionNames();
    d.add(functions.size());
    for (uint32_t f = 0; f < functions.size(); ++f) {
        d.add(functions[f]);
        d.add(index.entryBlock(f));
        d.add(index.functionHash(f));
        const std::vector<BlockRef> blocks = index.blocksOf(f);
        d.add(blocks.size());
        for (const BlockRef &ref : blocks) {
            addRef(d, ref);
            addRef(d, index.next(ref));
        }
        for (uint32_t id : ids) {
            addRef(d, index.block(f, id));
            const std::span<const uint32_t> succs = index.successors(f, id);
            d.add(succs.size());
            for (uint32_t s : succs)
                d.add(s);
        }
    }
    for (const std::string &name : names)
        d.add(static_cast<uint64_t>(index.findFunction(name)));
    d.add(index.quarantined().size());
    for (const std::string &name : index.quarantined())
        d.add(name);
    d.add(index.blockCount());
    d.add(index.footprint());
    return d.value();
}

/** A small-config workflow shared by the golden tests. */
buildsys::Workflow &
goldenWorkflow()
{
    static buildsys::Workflow wf(test::smallConfig(47));
    return wf;
}

TEST(AddrMapIndexGolden, SmallMetadataBinary)
{
    EXPECT_EQ(indexDigest(goldenWorkflow().metadataBinary()),
              0x99f014a519042fc5ull);
}

TEST(AddrMapIndexGolden, VerifyImageInLdProfOrder)
{
    const linker::Executable &exe = goldenWorkflow().verifiedBinary();
    // Maps follow the ld_prof section order, so the blocks do not
    // arrive in address order and the index must sort them.
    std::vector<uint64_t> addrs;
    for (const auto &map : exe.bbAddrMap)
        for (const auto &block : map.blocks)
            addrs.push_back(block.address);
    EXPECT_FALSE(std::is_sorted(addrs.begin(), addrs.end()));
    EXPECT_EQ(indexDigest(exe), 0x97864c9b6d2582f7ull);
}

TEST(AddrMapIndexGolden, HandBuiltEdgeCases)
{
    // Text at address 0, so a size that wraps past 2^64 lands inside
    // the image and only the wrap check rejects it.
    linker::Executable exe;
    exe.textBase = 0;
    exe.text.assign(0x400, 0);
    auto map = [&](const std::string &name, uint64_t hash) {
        exe.bbAddrMap.push_back(linker::ExecFuncMap{name, {}, hash, {}});
        return exe.bbAddrMap.size() - 1;
    };
    auto block = [&](size_t m, uint32_t id, uint64_t addr, uint32_t size,
                     std::vector<uint32_t> succs = {}, uint8_t flags = 0) {
        exe.bbAddrMap[m].addBlock({.bbId = id,
                                   .address = addr,
                                   .size = size,
                                   .flags = flags,
                                   .hash = hashCombine(addr, id)},
                                  succs);
    };
    auto symbol = [&](const std::string &name, const std::string &parent,
                      uint64_t start, bool primary) {
        exe.symbols.push_back({name, parent, start, start + 8, primary});
    };

    // One function split over two maps: the first map's hash is the
    // function's.
    size_t split = map("split", 0x51);
    block(split, 0, 0x100, 8, {2, 1}, elf::kBbFallThrough);
    block(split, 2, 0x108, 4, {}, elf::kBbReturns);
    size_t dup = map("dup", 0x52); // Repeated block id.
    block(dup, 1, 0x120, 4, {1});
    block(dup, 1, 0x124, 4);
    size_t overlap = map("overlap", 0x53);
    block(overlap, 0, 0x130, 8);
    block(overlap, 1, 0x134, 8);
    size_t outside = map("outside", 0x54); // Ends past the text image.
    block(outside, 0, 0x3f8, 0x10);
    size_t wraps = map("wraps", 0x55);
    block(wraps, 0, 0xfffffffffffffff8ull, 0x10);
    map("empty", 0x56);
    // "after" starts where "zero" ends with a zero-size block, and its
    // map comes first, so the tie sorts the zero-size block after the
    // sized one and lookup must step back to it.  Block 5 is past the
    // function's block count.
    size_t after = map("after", 0x57);
    block(after, 0, 0x208, 8, {5});
    block(after, 5, 0x210, 0, {}, elf::kBbReturns);
    // Zero-size blocks sharing an address, in map order.
    size_t zero = map("zero", 0x58);
    block(zero, 0, 0x200, 0, {1}, elf::kBbFallThrough);
    block(zero, 1, 0x200, 0, {2}, elf::kBbFallThrough);
    block(zero, 2, 0x200, 6, {3, 4});
    block(zero, 3, 0x206, 2, {4}, elf::kBbLandingPad);
    block(zero, 4, 0x208, 0);
    size_t huge = map("huge", 0x59);
    block(huge, 0xFFFFFFF0u, 0x240, 4, {0});
    block(huge, 0, 0x244, 4, {0xFFFFFFF0u, 0});
    size_t split_b = map("split", 0x5a);
    block(split_b, 1, 0x300, 8, {3});
    block(split_b, 3, 0x308, 0);

    symbol("split", "split", 0x100, true);
    symbol("split.cold", "split", 0x300, false);
    symbol("split.mid", "split", 0x104, true); // Starts no block.
    symbol("dup", "dup", 0x120, true);
    symbol("zero", "zero", 0x200, true);
    symbol("after", "after", 0x208, true);
    symbol("huge", "huge", 0x240, true);
    symbol("ghost", "ghost", 0x380, true);

    AddrMapIndex index(exe);
    EXPECT_EQ(index.quarantined(),
              (std::vector<std::string>{"dup", "outside", "overlap",
                                        "wraps"}));
    for (uint64_t addr : {0x208ull, 0x20full}) {
        const std::optional<BlockRef> ref = index.lookup(addr);
        ASSERT_TRUE(ref.has_value()) << std::hex << addr;
        EXPECT_EQ(index.functionNames()[ref->funcIndex], "after");
        EXPECT_EQ(ref->bbId, 0u);
    }
    EXPECT_EQ(indexDigest(exe), 0xdf055b7c9116f271ull);
}

TEST(ProfileMapper, RecoversGroundTruthEdges)
{
    linker::Executable exe = metadataTiny();
    sim::MachineOptions opts;
    opts.seed = 3;
    opts.maxInstructions = 400'000;
    opts.collectLbr = true;
    opts.lbrSamplePeriod = 500;
    sim::RunResult run = sim::run(exe, opts);

    AddrMapIndex index(exe);
    MapperStats stats;
    WholeProgramDcfg dcfg =
        buildDcfg(profile::aggregate(run.profile), index, &stats);

    EXPECT_EQ(stats.unmappedRecords, 0u);
    ASSERT_EQ(dcfg.functions.size(), 2u);
    int work = dcfg.findFunction("work");
    ASSERT_GE(work, 0);
    const FunctionDcfg &fn = dcfg.functions[work];

    // Ground truth: bb0 -CondBr bias 240-> bb1 (93.75%) / bb2 (6.25%).
    uint64_t w01 = 0;
    uint64_t w02 = 0;
    for (const auto &edge : fn.edges) {
        uint32_t from = fn.nodes[edge.fromNode].bbId;
        uint32_t to = fn.nodes[edge.toNode].bbId;
        if (from == 0 && to == 1)
            w01 += edge.weight;
        if (from == 0 && to == 2)
            w02 += edge.weight;
    }
    EXPECT_GT(w01, 0u);
    EXPECT_GT(w02, 0u);
    double ratio = static_cast<double>(w01) /
                   static_cast<double>(w01 + w02);
    EXPECT_NEAR(ratio, 240.0 / 256.0, 0.05);

    // Call edges main -> work observed.
    EXPECT_FALSE(dcfg.callEdges.empty());
    EXPECT_GT(stats.callEdges, 0u);
}

TEST(ProfileMapper, EntryNodeAlwaysPresent)
{
    linker::Executable exe = metadataTiny();
    sim::MachineOptions opts;
    opts.collectLbr = true;
    opts.maxInstructions = 50'000;
    opts.lbrSamplePeriod = 5'000;
    sim::RunResult run = sim::run(exe, opts);
    AddrMapIndex index(exe);
    WholeProgramDcfg dcfg =
        buildDcfg(profile::aggregate(run.profile), index, nullptr);
    for (const auto &fn : dcfg.functions) {
        ASSERT_LT(fn.entryNode, fn.nodes.size());
        EXPECT_EQ(fn.nodes[fn.entryNode].bbId, 0u);
    }
}

// ---- Ext-TSP ---------------------------------------------------------

TEST(ExtTspScore, RewardsFallthroughMost)
{
    std::vector<LayoutNode> nodes = {{10, 1}, {10, 1}};
    std::vector<LayoutEdge> edges = {{0, 1, 100}};
    double adjacent = extTspScore(nodes, edges, {0, 1});
    double reversed = extTspScore(nodes, edges, {1, 0});
    EXPECT_DOUBLE_EQ(adjacent, 100.0);
    EXPECT_LT(reversed, adjacent);
    EXPECT_GT(reversed, 0.0) << "short backward jumps score a little";
}

TEST(ExtTspScore, DistanceDecaysToZero)
{
    std::vector<LayoutNode> nodes = {{10, 1}, {2000, 0}, {10, 1}};
    std::vector<LayoutEdge> edges = {{0, 2, 100}};
    // Forward jump over 2000 bytes exceeds the 1024 window.
    EXPECT_DOUBLE_EQ(extTspScore(nodes, edges, {0, 1, 2}), 0.0);
}

TEST(ExtTspOrder, ChainsLinearCfg)
{
    // 0 -> 1 -> 2 -> 3 heavy chain, scrambled initial indices.
    std::vector<LayoutNode> nodes(4, {16, 100});
    std::vector<LayoutEdge> edges = {
        {0, 1, 100}, {1, 2, 100}, {2, 3, 100}};
    auto order = extTspOrder(nodes, edges, 0);
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(ExtTspOrder, PicksHotDiamondSide)
{
    // 0 -> 1 (hot) / 0 -> 2 (cold), both -> 3.
    std::vector<LayoutNode> nodes(4, {16, 0});
    std::vector<LayoutEdge> edges = {
        {0, 1, 90}, {0, 2, 10}, {1, 3, 90}, {2, 3, 10}};
    auto order = extTspOrder(nodes, edges, 0);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u) << "hot side must follow the branch";
}

TEST(ExtTspOrder, EntryStaysFirstEvenWhenCold)
{
    std::vector<LayoutNode> nodes = {{16, 1}, {16, 1000}, {16, 1000}};
    std::vector<LayoutEdge> edges = {{1, 2, 1000}, {0, 1, 1}};
    auto order = extTspOrder(nodes, edges, 0);
    EXPECT_EQ(order[0], 0u);
}

TEST(ExtTspOrder, CoversAllNodesExactlyOnce)
{
    std::vector<LayoutNode> nodes(10, {8, 1});
    std::vector<LayoutEdge> edges = {{0, 5, 3}, {5, 2, 7}, {9, 0, 1}};
    auto order = extTspOrder(nodes, edges, 0);
    std::vector<bool> seen(10, false);
    for (uint32_t n : order) {
        ASSERT_LT(n, 10u);
        EXPECT_FALSE(seen[n]);
        seen[n] = true;
    }
    EXPECT_EQ(order.size(), 10u);
}

TEST(ExtTspOrder, HeapAndReferenceScanAgreeExactly)
{
    // Pseudo-random graph; the lazy heap and the reference full scan
    // share delta scoring and the (gain, key) tie-break, so they must
    // make identical greedy decisions — not merely equally good ones.
    Rng rng(99);
    std::vector<LayoutNode> nodes(40);
    for (auto &node : nodes)
        node = {8 + rng.below(40), rng.below(1000)};
    std::vector<LayoutEdge> edges;
    for (int i = 0; i < 120; ++i) {
        uint32_t a = static_cast<uint32_t>(rng.below(40));
        uint32_t b = static_cast<uint32_t>(rng.below(40));
        edges.push_back({a, b, 1 + rng.below(500)});
    }
    ExtTspOptions heap_opts;
    ExtTspOptions scan_opts;
    scan_opts.referenceSolver = true;
    ExtTspStats hs;
    ExtTspStats ss;
    auto ho = extTspOrder(nodes, edges, 0, heap_opts, &hs);
    auto so = extTspOrder(nodes, edges, 0, scan_opts, &ss);
    EXPECT_EQ(ho, so);
    EXPECT_EQ(hs.finalScore, ss.finalScore);
    EXPECT_GT(hs.merges, 0u);
    EXPECT_EQ(hs.merges, ss.merges);
    EXPECT_GT(hs.heapPops, 0u);
    EXPECT_EQ(ss.heapPops, 0u) << "the reference path never pops";
}

/** Random layout problem for the property tests below. */
void
randomCfg(uint64_t seed, std::vector<LayoutNode> &nodes,
          std::vector<LayoutEdge> &edges)
{
    Rng rng(seed * 7919 + 11);
    size_t n = 2 + rng.below(60);
    nodes.assign(n, {});
    for (auto &node : nodes)
        node = {1 + rng.below(64), rng.below(1000)};
    edges.clear();
    size_t m = rng.below(4 * n);
    for (size_t e = 0; e < m; ++e) {
        edges.push_back({static_cast<uint32_t>(rng.below(n)),
                         static_cast<uint32_t>(rng.below(n)),
                         1 + rng.below(1000)});
    }
}

TEST(ExtTspProperty, HeapMatchesReferenceSolverOnRandomCfgs)
{
    // The acceptance property of the incremental solver: across >= 100
    // seeded random CFGs (with self loops, parallel edges, disconnected
    // nodes and gain ties), lazy-heap retrieval and the reference full
    // scan produce identical chain orders and final scores.
    int checked = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        std::vector<LayoutNode> nodes;
        std::vector<LayoutEdge> edges;
        randomCfg(seed, nodes, edges);

        ExtTspOptions heap_opts;
        ExtTspOptions ref_opts;
        ref_opts.referenceSolver = true;
        ExtTspStats hs;
        ExtTspStats rs;
        auto ho = extTspOrder(nodes, edges, 0, heap_opts, &hs);
        auto ro = extTspOrder(nodes, edges, 0, ref_opts, &rs);
        ASSERT_EQ(ho, ro) << "divergent layout at seed " << seed;
        ASSERT_EQ(hs.finalScore, rs.finalScore) << "seed " << seed;
        ASSERT_EQ(hs.merges, rs.merges) << "seed " << seed;
        ++checked;
    }
    EXPECT_EQ(checked, 100);
}

TEST(ExtTspProperty, DeltaScoringMatchesLegacyRescoreQuality)
{
    // Delta gains equal full-rescan gains in exact arithmetic but not
    // bitwise, so near-ties may resolve differently; the resulting
    // layout quality must still match to float noise.
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        std::vector<LayoutNode> nodes;
        std::vector<LayoutEdge> edges;
        randomCfg(seed, nodes, edges);

        ExtTspOptions delta_opts;
        ExtTspOptions legacy_opts;
        legacy_opts.legacyRescore = true;
        ExtTspStats ds;
        ExtTspStats ls;
        auto dorder = extTspOrder(nodes, edges, 0, delta_opts, &ds);
        auto lorder = extTspOrder(nodes, edges, 0, legacy_opts, &ls);
        double tolerance = 1e-6 * std::max(1.0, ls.finalScore);
        EXPECT_NEAR(ds.finalScore, ls.finalScore, tolerance)
            << "seed " << seed;
        EXPECT_LE(ds.candidateEvals, ls.candidateEvals)
            << "delta scoring must never do more work; seed " << seed;
    }
}

TEST(ExtTspOrder, ImprovesOverRandomOrders)
{
    Rng rng(7);
    std::vector<LayoutNode> nodes(30);
    for (auto &node : nodes)
        node = {8 + rng.below(60), rng.below(100)};
    std::vector<LayoutEdge> edges;
    for (int i = 0; i < 80; ++i) {
        edges.push_back({static_cast<uint32_t>(rng.below(30)),
                         static_cast<uint32_t>(rng.below(30)),
                         1 + rng.below(200)});
    }
    auto order = extTspOrder(nodes, edges, 0);
    double solved = extTspScore(nodes, edges, order);
    // Identity order (a "random" baseline).
    std::vector<uint32_t> identity(30);
    for (uint32_t i = 0; i < 30; ++i)
        identity[i] = i;
    EXPECT_GE(solved, extTspScore(nodes, edges, identity));
}

TEST(ExtTspOrder, SingleNode)
{
    std::vector<LayoutNode> nodes = {{16, 1}};
    auto order = extTspOrder(nodes, {}, 0);
    EXPECT_EQ(order, (std::vector<uint32_t>{0}));
}

// ---- hfsort ----------------------------------------------------------

TEST(Hfsort, CalleeFollowsHotCaller)
{
    std::vector<HfsortNode> nodes = {
        {100, 1000}, {100, 900}, {100, 10}};
    std::vector<HfsortArc> arcs = {{0, 1, 900}, {2, 1, 5}};
    auto order = hfsortOrder(nodes, arcs);
    ASSERT_EQ(order.size(), 3u);
    // Function 1 clusters directly after its dominant caller 0.
    auto pos = [&](uint32_t f) {
        return std::find(order.begin(), order.end(), f) - order.begin();
    };
    EXPECT_EQ(pos(1), pos(0) + 1);
    EXPECT_EQ(pos(2), 2) << "cold function last";
}

TEST(Hfsort, ClusterSizeBounded)
{
    HfsortOptions opts;
    opts.maxClusterSize = 150;
    std::vector<HfsortNode> nodes = {{100, 1000}, {100, 900}, {100, 800}};
    std::vector<HfsortArc> arcs = {{0, 1, 900}, {1, 2, 800}};
    auto order = hfsortOrder(nodes, arcs, opts);
    // 0+1 merge (200 > 150 disallowed) -> actually 0+1 already exceeds:
    // each cluster is 100 bytes, merged 200 > 150, so no merges at all;
    // order is by density.
    EXPECT_EQ(order[0], 0u);
}

TEST(Hfsort, ColdFunctionsKeepIndexOrder)
{
    std::vector<HfsortNode> nodes = {{10, 0}, {10, 0}, {10, 5}};
    auto order = hfsortOrder(nodes, {});
    EXPECT_EQ(order[0], 2u);
    EXPECT_EQ(order[1], 0u);
    EXPECT_EQ(order[2], 1u);
}

// ---- Directives ------------------------------------------------------

TEST(Directives, CcProfileRoundtrip)
{
    // The exact cc_prof.txt text: functions in name order, one '!!' line
    // per cluster in layout order, the cold cluster marked.
    CcProfile cc;
    codegen::ClusterSpec spec;
    spec.clusters = {{0, 3, 5}, {1}, {2, 4}};
    spec.coldIndex = 2;
    cc.clusters.emplace("foo", spec);
    codegen::ClusterSpec solo;
    solo.clusters = {{0, 1}};
    cc.clusters.emplace("bar", solo);

    const std::string text = "!bar\n"
                             "!!0 1\n"
                             "!foo\n"
                             "!!0 3 5\n"
                             "!!1\n"
                             "!!cold 2 4\n";
    EXPECT_EQ(cc.serialize(), text);
    EXPECT_EQ(cc.sizeInBytes(), text.size());
}

TEST(Directives, LdProfileRoundtrip)
{
    // The exact ld_prof.txt text: one symbol per line, in order.
    LdProfile ld;
    ld.symbolOrder = {"main", "work", "work.cold"};
    EXPECT_EQ(ld.serialize(), "main\nwork\nwork.cold\n");
    EXPECT_EQ(ld.sizeInBytes(), 20u);
}

// ---- Encoded layouts (the layout memo tier) --------------------------

TEST(LayoutCodec, ColdIndexOutsideClustersRejected)
{
    FunctionLayout layout;
    layout.spec.clusters = {{0, 3, 5}, {1}, {2, 4}};
    layout.stats.merges = 4;
    layout.stats.finalScore = 12.5;
    const uint64_t nclusters = layout.spec.clusters.size();

    // The cold index is the word after the clusters, before the six
    // stats words.
    const std::vector<uint8_t> valid = encodeFunctionLayout(layout);
    const size_t cold_at = valid.size() - 7 * 8;
    const uint64_t bad[] = {nclusters, (uint64_t{1} << 32) + 1,
                            ~uint64_t{0} - 1};
    for (uint64_t cold : bad) {
        std::vector<uint8_t> bytes = valid;
        putLe64(cold, bytes.data() + cold_at);
        FunctionLayout out;
        EXPECT_FALSE(decodeFunctionLayout(bytes, out))
            << "cold word 0x" << std::hex << cold;
    }

    for (int cold = -1; cold < static_cast<int>(nclusters); ++cold) {
        layout.spec.coldIndex = cold;
        const std::vector<uint8_t> bytes = encodeFunctionLayout(layout);
        FunctionLayout out;
        ASSERT_TRUE(decodeFunctionLayout(bytes, out)) << "cold " << cold;
        EXPECT_EQ(out.spec.coldIndex, cold);
        EXPECT_EQ(out.spec.clusters, layout.spec.clusters);
        EXPECT_EQ(encodeFunctionLayout(out), bytes) << "cold " << cold;
    }
}

// ---- Whole-program analysis ----------------------------------------

class WpaTest : public ::testing::Test
{
  protected:
    static buildsys::Workflow &
    workflow()
    {
        static buildsys::Workflow wf(test::smallConfig(11));
        return wf;
    }
};

TEST_F(WpaTest, ClusterSpecsCoverEveryBlockExactlyOnce)
{
    const WpaResult &wpa = workflow().wpa();
    ASSERT_FALSE(wpa.ccProf.clusters.empty());
    for (const auto &[fn_name, spec] : wpa.ccProf.clusters) {
        const ir::Function *fn =
            workflow().program().findFunction(fn_name);
        ASSERT_NE(fn, nullptr);
        std::set<uint32_t> listed;
        size_t total = 0;
        for (const auto &cluster : spec.clusters) {
            for (uint32_t id : cluster) {
                EXPECT_TRUE(listed.insert(id).second);
                ++total;
            }
        }
        EXPECT_EQ(total, fn->blocks.size());
        EXPECT_EQ(spec.clusters[0][0], fn->entry().id);
    }
}

TEST_F(WpaTest, SplitProducesColdClusters)
{
    const WpaResult &wpa = workflow().wpa();
    int with_cold = 0;
    for (const auto &[fn, spec] : wpa.ccProf.clusters)
        with_cold += (spec.coldIndex >= 0);
    EXPECT_GT(with_cold, 0) << "splitting must find cold blocks";
}

TEST_F(WpaTest, LdProfListsHotPrimaries)
{
    const WpaResult &wpa = workflow().wpa();
    EXPECT_EQ(wpa.ldProf.symbolOrder.size(), wpa.hotFunctions.size());
    // Every listed symbol is a hot function name (intra mode lists
    // primaries only).
    std::set<std::string> hot(wpa.hotFunctions.begin(),
                              wpa.hotFunctions.end());
    for (const auto &sym : wpa.ldProf.symbolOrder)
        EXPECT_TRUE(hot.count(sym)) << sym;
}

TEST_F(WpaTest, StatsPopulated)
{
    const WpaResult &wpa = workflow().wpa();
    EXPECT_GT(wpa.stats.peakMemory, 0u);
    EXPECT_GT(wpa.stats.profileBytes, 0u);
    EXPECT_GT(wpa.stats.dcfgFootprint, 0u);
    EXPECT_EQ(wpa.stats.hotFunctions, wpa.hotFunctions.size());
    EXPECT_GT(wpa.stats.extTsp.merges, 0u);
}

TEST_F(WpaTest, NoSplitOptionKeepsOneCluster)
{
    LayoutOptions opts;
    opts.splitFunctions = false;
    WpaResult wpa = runWholeProgramAnalysis(workflow().metadataBinary(),
                                            workflow().profile(), opts);
    for (const auto &[fn, spec] : wpa.ccProf.clusters) {
        EXPECT_EQ(spec.clusters.size(), 1u);
        EXPECT_EQ(spec.coldIndex, -1);
    }
}

TEST_F(WpaTest, InterProceduralLayoutIsValidAndInterleaved)
{
    LayoutOptions opts;
    opts.interProcedural = true;
    WpaResult wpa = runWholeProgramAnalysis(workflow().metadataBinary(),
                                            workflow().profile(), opts);
    // Coverage invariant still holds.
    for (const auto &[fn_name, spec] : wpa.ccProf.clusters) {
        const ir::Function *fn =
            workflow().program().findFunction(fn_name);
        ASSERT_NE(fn, nullptr);
        std::set<uint32_t> listed;
        for (const auto &cluster : spec.clusters)
            for (uint32_t id : cluster)
                EXPECT_TRUE(listed.insert(id).second);
        EXPECT_EQ(listed.size(), fn->blocks.size());
        EXPECT_EQ(spec.clusters[0][0], fn->entry().id);
    }
    // Global order may interleave multiple functions' runs: at least as
    // many entries as hot functions.
    EXPECT_GE(wpa.ldProf.symbolOrder.size(), wpa.hotFunctions.size());

    // The interproc binary must still execute identical logical work.
    linker::Executable po = workflow().propellerBinaryWith(opts);
    sim::MachineOptions mopts =
        workload::evalOptions(workflow().config());
    sim::RunResult base = sim::run(workflow().baseline(), mopts);
    sim::RunResult inter = sim::run(po, mopts);
    ASSERT_FALSE(inter.fault);
    EXPECT_EQ(base.counters.logicalInstructions,
              inter.counters.logicalInstructions);
    EXPECT_EQ(base.counters.condBranches, inter.counters.condBranches);
}

} // namespace
} // namespace propeller::core
