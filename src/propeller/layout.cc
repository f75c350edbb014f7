#include "propeller/layout.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "propeller/hfsort.h"
#include "sched/sched.h"
#include "support/bytes.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::core {

namespace {

/** Hot node indices of one function: every sampled block. */
std::vector<char>
hotMask(const FunctionDcfg &fn)
{
    std::vector<char> hot(fn.nodes.size(), 0);
    for (size_t i = 0; i < fn.nodes.size(); ++i)
        hot[i] = fn.nodes[i].freq > 0;
    hot[fn.entryNode] = 1; // The entry block anchors the primary cluster.
    return hot;
}

void
accumulate(ExtTspStats &total, const ExtTspStats &one)
{
    total.merges += one.merges;
    total.candidateEvals += one.candidateEvals;
    total.retrievals += one.retrievals;
    total.heapPops += one.heapPops;
    total.staleSkips += one.staleSkips;
    total.finalScore += one.finalScore;
}

/** Shared context for both strategies. */
struct Ctx
{
    const WholeProgramDcfg &dcfg;
    const AddrMapIndex &index;
    const LayoutOptions &opts;

    explicit Ctx(const WholeProgramDcfg &d, const AddrMapIndex &i,
                 const LayoutOptions &o)
        : dcfg(d), index(i), opts(o)
    {
    }

    /** @p fn's address-map index (every DCFG function has a map). */
    uint32_t
    funcIndexOf(const FunctionDcfg &fn) const
    {
        int f = index.findFunction(fn.function);
        PROPELLER_CHECK(f >= 0, "DCFG function missing from the address map");
        return static_cast<uint32_t>(f);
    }

    /** Cold block ids of @p fn, in original (address) order. */
    std::vector<uint32_t>
    coldBlocks(const FunctionDcfg &fn, const std::vector<char> &hot) const
    {
        std::unordered_set<uint32_t> hot_ids;
        for (size_t i = 0; i < fn.nodes.size(); ++i) {
            if (hot[i])
                hot_ids.insert(fn.nodes[i].bbId);
        }
        std::vector<uint32_t> cold;
        uint32_t func_index = funcIndexOf(fn);
        for (const auto &ref : index.blocksOf(func_index)) {
            if (!hot_ids.count(ref.bbId))
                cold.push_back(ref.bbId);
        }
        return cold;
    }
};

/** Lay out one function's hot subgraph (intra-procedural strategy). */
FunctionLayout
layoutOneFunction(const Ctx &ctx, size_t f)
{
    const FunctionDcfg &fn = ctx.dcfg.functions[f];
    FunctionLayout out;
    {
        std::vector<char> hot = hotMask(fn);

        // Build the hot-subgraph layout problem.
        std::vector<LayoutNode> nodes;
        std::vector<uint32_t> node_bb;
        std::vector<int> hot_index(fn.nodes.size(), -1);
        for (size_t i = 0; i < fn.nodes.size(); ++i) {
            if (!hot[i])
                continue;
            hot_index[i] = static_cast<int>(nodes.size());
            nodes.push_back({std::max<uint64_t>(fn.nodes[i].size, 1),
                             fn.nodes[i].freq});
            node_bb.push_back(fn.nodes[i].bbId);
        }
        std::vector<LayoutEdge> edges;
        for (const auto &edge : fn.edges) {
            int a = hot_index[edge.fromNode];
            int b = hot_index[edge.toNode];
            if (a >= 0 && b >= 0) {
                edges.push_back({static_cast<uint32_t>(a),
                                 static_cast<uint32_t>(b), edge.weight});
            }
        }

        std::vector<uint32_t> hot_order_idx;
        if (ctx.opts.reorderBlocks) {
            hot_order_idx = extTspOrder(
                nodes, edges,
                static_cast<uint32_t>(hot_index[fn.entryNode]),
                ctx.opts.extTsp, &out.stats);
        } else {
            // Keep original (address) order of the hot blocks.
            uint32_t func_index = ctx.funcIndexOf(fn);
            std::unordered_map<uint32_t, uint32_t> idx_of_bb;
            for (size_t i = 0; i < node_bb.size(); ++i)
                idx_of_bb.emplace(node_bb[i], static_cast<uint32_t>(i));
            // Entry first, then address order.
            hot_order_idx.push_back(hot_index[fn.entryNode]);
            for (const auto &ref : ctx.index.blocksOf(func_index)) {
                auto it = idx_of_bb.find(ref.bbId);
                if (it == idx_of_bb.end())
                    continue;
                if (it->second ==
                    static_cast<uint32_t>(hot_index[fn.entryNode]))
                    continue;
                hot_order_idx.push_back(it->second);
            }
        }

        std::vector<uint32_t> hot_order;
        hot_order.reserve(hot_order_idx.size());
        for (uint32_t i : hot_order_idx)
            hot_order.push_back(node_bb[i]);
        assert(!hot_order.empty() &&
               hot_order.front() == fn.nodes[fn.entryNode].bbId);

        std::vector<uint32_t> cold = ctx.coldBlocks(fn, hot);

        if (!cold.empty() && ctx.opts.splitFunctions) {
            out.spec.clusters.push_back(std::move(hot_order));
            out.spec.coldIndex = 1;
            out.spec.clusters.push_back(std::move(cold));
        } else {
            hot_order.insert(hot_order.end(), cold.begin(), cold.end());
            out.spec.clusters.push_back(std::move(hot_order));
        }
    }
    return out;
}

/** Global order: C3 over the hot function call graph. */
LdProfile
globalHfsortOrder(const Ctx &ctx)
{
    LdProfile ldProf;
    std::vector<HfsortNode> fnodes(ctx.dcfg.functions.size());
    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        const FunctionDcfg &fn = ctx.dcfg.functions[f];
        uint64_t hot_size = 0;
        uint64_t samples = 0;
        for (const auto &node : fn.nodes) {
            if (node.freq > 0) {
                hot_size += node.size;
                samples += node.freq;
            }
        }
        fnodes[f].size = std::max<uint64_t>(hot_size, 1);
        fnodes[f].samples = samples;
    }
    std::vector<HfsortArc> arcs;
    for (const auto &call : ctx.dcfg.callEdges)
        arcs.push_back({call.callerDcfg, call.calleeDcfg, call.weight});

    for (uint32_t f : hfsortOrder(fnodes, arcs)) {
        ldProf.symbolOrder.push_back(ctx.dcfg.functions[f].function);
    }
    // Cold clusters stay unlisted: the linker leaves them in input order,
    // far from the hot text placed first.
    return ldProf;
}

/** Merge per-function slots + order, in function order (deterministic). */
void
mergeIntraLayout(const Ctx &ctx, std::vector<FunctionLayout> slots,
                 LdProfile order, LayoutResult &result)
{
    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        const FunctionDcfg &fn = ctx.dcfg.functions[f];
        accumulate(result.extTspStats, slots[f].stats);
        result.ccProf.clusters.emplace(fn.function,
                                       std::move(slots[f].spec));
        result.hotFunctions.push_back(fn.function);
    }
    result.ldProf = std::move(order);
}

void
intraProceduralLayout(const Ctx &ctx, unsigned jobs, LayoutResult &result)
{
    // Each function's layout problem is independent (this is the paper's
    // memory/parallelism argument for WPA vs BOLT), so the loop fans out
    // with sched::parallelFor.  Results land in per-function slots and
    // merge in function order, keeping cc_prof/ld_prof — including the
    // floating-point Ext-TSP score sum — byte-identical at any thread
    // count.
    std::vector<FunctionLayout> slots(ctx.dcfg.functions.size());
    sched::parallelFor(jobs, ctx.dcfg.functions.size(), [&](size_t f) {
        slots[f] = layoutOneFunction(ctx, f);
    });
    mergeIntraLayout(ctx, std::move(slots), globalHfsortOrder(ctx),
                     result);
}

void
interProceduralLayout(const Ctx &ctx, LayoutResult &result)
{
    // ---- Build the whole-program layout problem -------------------------
    struct GlobalNode
    {
        uint32_t dcfgIdx;
        uint32_t nodeIdx;
    };
    std::vector<LayoutNode> nodes;
    std::vector<GlobalNode> origin;
    std::vector<std::vector<int>> global_index(ctx.dcfg.functions.size());
    std::vector<std::vector<char>> hot_masks(ctx.dcfg.functions.size());

    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        const FunctionDcfg &fn = ctx.dcfg.functions[f];
        hot_masks[f] = hotMask(fn);
        global_index[f].assign(fn.nodes.size(), -1);
        for (size_t i = 0; i < fn.nodes.size(); ++i) {
            if (!hot_masks[f][i])
                continue;
            global_index[f][i] = static_cast<int>(nodes.size());
            nodes.push_back({std::max<uint64_t>(fn.nodes[i].size, 1),
                             fn.nodes[i].freq});
            origin.push_back({static_cast<uint32_t>(f),
                              static_cast<uint32_t>(i)});
        }
    }

    std::vector<LayoutEdge> edges;
    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        for (const auto &edge : ctx.dcfg.functions[f].edges) {
            int a = global_index[f][edge.fromNode];
            int b = global_index[f][edge.toNode];
            if (a >= 0 && b >= 0) {
                edges.push_back({static_cast<uint32_t>(a),
                                 static_cast<uint32_t>(b), edge.weight});
            }
        }
    }
    for (const auto &call : ctx.dcfg.callEdges) {
        int a = global_index[call.callerDcfg][call.callerNode];
        int b = global_index[call.calleeDcfg]
                            [ctx.dcfg.functions[call.calleeDcfg].entryNode];
        if (a >= 0 && b >= 0) {
            // Call edges are damped: a call's locality benefit is weaker
            // than a fall-through's (the return path goes the other way),
            // and undamped call weights over-fragment functions.
            edges.push_back({static_cast<uint32_t>(a),
                             static_cast<uint32_t>(b),
                             std::max<uint64_t>(call.weight / 2, 1)});
        }
    }

    // Pin the program entry ("main" when sampled, else hottest function).
    int entry_global = -1;
    int main_dcfg = ctx.dcfg.findFunction("main");
    if (main_dcfg >= 0) {
        entry_global =
            global_index[main_dcfg]
                        [ctx.dcfg.functions[main_dcfg].entryNode];
    }
    if (entry_global < 0) {
        uint64_t best = 0;
        for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
            const FunctionDcfg &fn = ctx.dcfg.functions[f];
            uint64_t w = fn.totalWeight();
            int g = global_index[f][fn.entryNode];
            if (g >= 0 && (entry_global < 0 || w > best)) {
                best = w;
                entry_global = g;
            }
        }
    }
    assert(entry_global >= 0 && "no hot entry block in the whole program");

    ExtTspStats stats;
    std::vector<uint32_t> order =
        extTspOrder(nodes, edges, static_cast<uint32_t>(entry_global),
                    ctx.opts.extTsp, &stats);
    accumulate(result.extTspStats, stats);

    // ---- Cut the global chain into per-function runs --------------------
    struct Run
    {
        uint32_t dcfgIdx;
        std::vector<uint32_t> bbIds;
        bool dead = false;
    };
    std::vector<Run> runs;
    for (uint32_t g : order) {
        const GlobalNode &gn = origin[g];
        uint32_t bb = ctx.dcfg.functions[gn.dcfgIdx].nodes[gn.nodeIdx].bbId;
        if (runs.empty() || runs.back().dcfgIdx != gn.dcfgIdx)
            runs.push_back({gn.dcfgIdx, {}, false});
        runs.back().bbIds.push_back(bb);
    }

    // Per function: locate the primary run (contains the entry block) and
    // list the other runs in global order.
    std::vector<int> primary_run(ctx.dcfg.functions.size(), -1);
    for (size_t r = 0; r < runs.size(); ++r) {
        const FunctionDcfg &fn = ctx.dcfg.functions[runs[r].dcfgIdx];
        uint32_t entry_bb = fn.nodes[fn.entryNode].bbId;
        for (uint32_t bb : runs[r].bbIds) {
            if (bb == entry_bb) {
                primary_run[runs[r].dcfgIdx] = static_cast<int>(r);
                break;
            }
        }
    }

    // Splitting a function is only worth a section when the fragment has
    // substance (paper 3.4: extra clusters are created "when profitable"):
    // fold singleton runs back into their function's primary run.
    for (size_t r = 0; r < runs.size(); ++r) {
        Run &run = runs[r];
        if (static_cast<int>(r) == primary_run[run.dcfgIdx] ||
            run.bbIds.size() >= ctx.opts.interProcMinRunBlocks) {
            continue;
        }
        Run &primary = runs[primary_run[run.dcfgIdx]];
        primary.bbIds.insert(primary.bbIds.end(), run.bbIds.begin(),
                             run.bbIds.end());
        run.dead = true;
    }

    // Build cluster specs; non-primary runs are numbered in global order,
    // matching codegen's cluster symbol naming.
    std::vector<std::string> run_symbol(runs.size());
    std::vector<size_t> numeric_counter(ctx.dcfg.functions.size(), 0);
    std::vector<codegen::ClusterSpec> specs(ctx.dcfg.functions.size());

    // First pass: primaries (entry moved to the front of its run).
    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        const FunctionDcfg &fn = ctx.dcfg.functions[f];
        uint32_t entry_bb = fn.nodes[fn.entryNode].bbId;
        assert(primary_run[f] >= 0 && "hot function lost its entry run");
        Run &run = runs[primary_run[f]];
        auto it = std::find(run.bbIds.begin(), run.bbIds.end(), entry_bb);
        std::rotate(run.bbIds.begin(), it, it + 1);
        specs[f].clusters.push_back(run.bbIds);
        run_symbol[primary_run[f]] = fn.function;
    }
    // Second pass: secondary runs in global order.
    for (size_t r = 0; r < runs.size(); ++r) {
        uint32_t f = runs[r].dcfgIdx;
        if (runs[r].dead || static_cast<int>(r) == primary_run[f])
            continue;
        specs[f].clusters.push_back(runs[r].bbIds);
        run_symbol[r] = ctx.dcfg.functions[f].function + "." +
                        std::to_string(++numeric_counter[f]);
    }
    // Cold clusters last.
    for (size_t f = 0; f < ctx.dcfg.functions.size(); ++f) {
        const FunctionDcfg &fn = ctx.dcfg.functions[f];
        std::vector<uint32_t> cold = ctx.coldBlocks(fn, hot_masks[f]);
        if (!cold.empty() && ctx.opts.splitFunctions) {
            specs[f].coldIndex = static_cast<int>(specs[f].clusters.size());
            specs[f].clusters.push_back(std::move(cold));
        } else if (!cold.empty()) {
            auto &primary = specs[f].clusters.front();
            primary.insert(primary.end(), cold.begin(), cold.end());
        }
        result.ccProf.clusters.emplace(fn.function, std::move(specs[f]));
        result.hotFunctions.push_back(fn.function);
    }

    // Global symbol order: every surviving run in chain order.
    for (size_t r = 0; r < runs.size(); ++r) {
        if (!runs[r].dead)
            result.ldProf.symbolOrder.push_back(run_symbol[r]);
    }
}

} // namespace

struct LayoutContext::Impl
{
    LayoutOptions opts; ///< Owned: ctx keeps a reference.
    Ctx ctx;

    Impl(const WholeProgramDcfg &dcfg, const AddrMapIndex &index,
         const LayoutOptions &o)
        : opts(o), ctx(dcfg, index, opts)
    {
    }
};

LayoutContext::LayoutContext(const WholeProgramDcfg &dcfg,
                             const AddrMapIndex &index,
                             const LayoutOptions &opts)
    : impl_(std::make_unique<Impl>(dcfg, index, opts))
{
    assert(!opts.interProcedural &&
           "LayoutContext decomposes the intra-procedural strategy only");
}

LayoutContext::~LayoutContext() = default;

size_t
LayoutContext::functionCount() const
{
    return impl_->ctx.dcfg.functions.size();
}

FunctionLayout
LayoutContext::layoutFunction(size_t f) const
{
    return layoutOneFunction(impl_->ctx, f);
}

LdProfile
LayoutContext::globalOrder() const
{
    return globalHfsortOrder(impl_->ctx);
}

LayoutResult
LayoutContext::merge(std::vector<FunctionLayout> slots,
                     LdProfile order) const
{
    LayoutResult result;
    mergeIntraLayout(impl_->ctx, std::move(slots), std::move(order),
                     result);
    return result;
}

LayoutResult
computeLayout(const WholeProgramDcfg &dcfg, const AddrMapIndex &index,
              const LayoutOptions &opts, unsigned jobs)
{
    LayoutResult result;
    Ctx ctx(dcfg, index, opts);
    if (opts.interProcedural) {
        interProceduralLayout(ctx, result);
    } else {
        intraProceduralLayout(ctx, jobs, result);
    }
    return result;
}

namespace {

uint64_t
doubleBits(double d)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

uint64_t
layoutOptionsFingerprint(const LayoutOptions &opts)
{
    uint64_t h = kFnvOffset;
    h = hashCombine(h, opts.splitFunctions ? 1 : 0);
    // A retired hot-threshold fraction, always 0, keeps its slot so memo
    // keys and persisted layout entries do not move.
    h = hashCombine(h, doubleBits(0.0));
    h = hashCombine(h, opts.interProcedural ? 1 : 0);
    h = hashCombine(h, opts.interProcMinRunBlocks);
    h = hashCombine(h, opts.reorderBlocks ? 1 : 0);
    // The solver knobs change the search, and therefore the stats a
    // memoized layout must reproduce, even where the final order ties.
    h = hashCombine(h, opts.extTsp.referenceSolver ? 1 : 0);
    h = hashCombine(h, opts.extTsp.legacyRescore ? 1 : 0);
    h = hashCombine(h, opts.extTsp.maxSplitChainLen);
    h = hashCombine(h, doubleBits(opts.extTsp.fallthroughWeight));
    h = hashCombine(h, doubleBits(opts.extTsp.forwardWeight));
    h = hashCombine(h, doubleBits(opts.extTsp.backwardWeight));
    h = hashCombine(h, opts.extTsp.forwardDistance);
    h = hashCombine(h, opts.extTsp.backwardDistance);
    return h;
}

uint64_t
layoutMemoFingerprint(const FunctionDcfg &fn, const AddrMapIndex &index,
                      int funcIndex)
{
    // The name keeps keys distinct across structurally identical
    // functions, so cold-run miss accounting is schedule-independent
    // (a shared key would hit or miss depending on which function's
    // layout landed in the cache first).
    uint64_t h = fnv1a(fn.function);
    if (funcIndex >= 0) {
        auto fi = static_cast<uint32_t>(funcIndex);
        // The v2 whole-function CFG hash (0 for v1 metadata) plus the
        // block list the cluster sanitizer checks against.
        h = hashCombine(h, index.functionHash(fi));
        h = hashCombine(h, index.entryBlock(fi));
        for (const BlockRef &b : index.blocksOf(fi)) {
            h = hashCombine(h, b.bbId);
            h = hashCombine(h, b.blockEnd - b.blockStart);
            h = hashCombine(h, b.flags);
        }
    }
    // The function's DCFG: shape plus the profile counts (the
    // "profile-count digest" leg of the memo key).
    h = hashCombine(h, fn.entryNode);
    h = hashCombine(h, fn.nodes.size());
    for (const DcfgNode &n : fn.nodes) {
        h = hashCombine(h, n.bbId);
        h = hashCombine(h, n.size);
        h = hashCombine(h, n.freq);
        h = hashCombine(h, n.flags);
    }
    h = hashCombine(h, fn.edges.size());
    for (const DcfgEdge &e : fn.edges) {
        h = hashCombine(h, e.fromNode);
        h = hashCombine(h, e.toNode);
        h = hashCombine(h, e.weight);
        h = hashCombine(h, static_cast<uint64_t>(e.kind));
    }
    return h;
}

uint64_t
layoutInputDigest(const FunctionDcfg &fn, const AddrMapIndex &index,
                  int funcIndex)
{
    // Only what layoutOneFunction() actually consumes: hotMask reads
    // node frequencies, the solver reads node sizes and edge weights,
    // and the cold/no-reorder paths read the address map's block-id
    // sequence.  Whole-function hashes, block byte sizes and flags are
    // layout-invariant, so they stay out — that is what lets a digest
    // survive a code edit confined to blocks layout never looks at.
    uint64_t h = fnv1a(fn.function);
    h = hashCombine(h, fn.entryNode);
    h = hashCombine(h, fn.nodes.size());
    for (const DcfgNode &n : fn.nodes) {
        h = hashCombine(h, n.bbId);
        h = hashCombine(h, n.size);
        h = hashCombine(h, n.freq);
    }
    h = hashCombine(h, fn.edges.size());
    for (const DcfgEdge &e : fn.edges) {
        h = hashCombine(h, e.fromNode);
        h = hashCombine(h, e.toNode);
        h = hashCombine(h, e.weight);
    }
    if (funcIndex >= 0) {
        auto fi = static_cast<uint32_t>(funcIndex);
        std::vector<BlockRef> blocks = index.blocksOf(fi);
        h = hashCombine(h, blocks.size());
        for (const BlockRef &b : blocks)
            h = hashCombine(h, b.bbId);
    }
    return h;
}

std::vector<uint8_t>
encodeFunctionLayout(const FunctionLayout &layout)
{
    std::vector<uint8_t> out;
    putLe64(layout.spec.clusters.size(), out);
    for (const auto &cluster : layout.spec.clusters) {
        putLe64(cluster.size(), out);
        for (uint32_t bb : cluster)
            putLe64(bb, out);
    }
    putLe64(static_cast<uint64_t>(static_cast<int64_t>(layout.spec.coldIndex)),
            out);
    putLe64(layout.stats.merges, out);
    putLe64(layout.stats.candidateEvals, out);
    putLe64(layout.stats.retrievals, out);
    putLe64(layout.stats.heapPops, out);
    putLe64(layout.stats.staleSkips, out);
    putLe64(doubleBits(layout.stats.finalScore), out);
    return out;
}

bool
decodeFunctionLayout(const std::vector<uint8_t> &bytes,
                     FunctionLayout &out)
{
    FunctionLayout decoded;
    ByteReader in(bytes);
    // Every count is bounded by the words left, so no reservation
    // outgrows the input.
    uint64_t nclusters = 0;
    if (!in.le64(nclusters) || nclusters > in.left() / 8)
        return false;
    decoded.spec.clusters.resize(nclusters);
    for (auto &cluster : decoded.spec.clusters) {
        uint64_t n = 0;
        if (!in.le64(n) || n > in.left() / 8)
            return false;
        cluster.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t bb = 0;
            if (!in.le64(bb) || bb > std::numeric_limits<uint32_t>::max())
                return false;
            cluster.push_back(static_cast<uint32_t>(bb));
        }
    }
    uint64_t cold = 0;
    uint64_t score_bits = 0;
    if (!in.le64(cold) || !in.le64(decoded.stats.merges) ||
        !in.le64(decoded.stats.candidateEvals) ||
        !in.le64(decoded.stats.retrievals) ||
        !in.le64(decoded.stats.heapPops) ||
        !in.le64(decoded.stats.staleSkips) || !in.le64(score_bits) ||
        !in.done())
        return false;
    // The cold index is -1 (no cold cluster) or names a cluster.
    if (cold != ~uint64_t{0} && cold >= nclusters)
        return false;
    decoded.spec.coldIndex = static_cast<int>(static_cast<int64_t>(cold));
    std::memcpy(&decoded.stats.finalScore, &score_bits,
                sizeof(score_bits));
    out = std::move(decoded);
    return true;
}

} // namespace propeller::core
