#include "stale/stale.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "propeller/addr_map_index.h"

namespace propeller::stale {

using core::AddrMapIndex;
using core::DcfgEdge;
using core::DcfgNode;
using core::EdgeKind;
using core::FunctionDcfg;

namespace {

/** Longest unprofiled detour the reroute search will take. */
constexpr size_t kMaxRerouteDepth = 4;

/** Per-function working state of the inference pass. */
struct FnState
{
    FunctionDcfg &fn;
    const AddrMapIndex &target;
    uint32_t tIdx;
    InferenceStats &stats;

    std::unordered_map<uint32_t, int> nodeOf; ///< bbId -> node index.
    std::vector<uint64_t> inSum, outSum;
    std::unordered_map<uint64_t, size_t> edgeOf; ///< (from,to) -> index.

    /** Nodes present before inference (profile-carrying). */
    std::vector<char> matched;

    FnState(FunctionDcfg &f, const AddrMapIndex &t, uint32_t idx,
            InferenceStats &s)
        : fn(f), target(t), tIdx(idx), stats(s)
    {
        nodeOf.reserve(fn.nodes.size());
        for (size_t i = 0; i < fn.nodes.size(); ++i)
            nodeOf.emplace(fn.nodes[i].bbId, static_cast<int>(i));
        inSum.assign(fn.nodes.size(), 0);
        outSum.assign(fn.nodes.size(), 0);
        for (size_t e = 0; e < fn.edges.size(); ++e) {
            const DcfgEdge &edge = fn.edges[e];
            edgeOf.emplace(key(edge.fromNode, edge.toNode), e);
            outSum[edge.fromNode] += edge.weight;
            inSum[edge.toNode] += edge.weight;
        }
        matched.assign(fn.nodes.size(), 1);
    }

    static uint64_t
    key(uint32_t from, uint32_t to)
    {
        return (static_cast<uint64_t>(from) << 32) | to;
    }

    /** Node index for @p bb_id, creating an inferred zero-count node. */
    int
    ensureNode(uint32_t bb_id)
    {
        auto it = nodeOf.find(bb_id);
        if (it != nodeOf.end())
            return it->second;
        DcfgNode node;
        node.bbId = bb_id;
        if (auto b = target.block(tIdx, bb_id)) {
            node.size = static_cast<uint32_t>(b->blockEnd - b->blockStart);
            node.flags = b->flags;
        }
        int idx = static_cast<int>(fn.nodes.size());
        fn.nodes.push_back(node);
        inSum.push_back(0);
        outSum.push_back(0);
        matched.push_back(0);
        nodeOf.emplace(bb_id, idx);
        ++stats.nodesAdded;
        return idx;
    }

    /** Add @p weight to edge (from, to), creating it if needed. */
    void
    addFlow(uint32_t from, uint32_t to, uint64_t weight)
    {
        if (weight == 0)
            return;
        auto [it, inserted] = edgeOf.emplace(key(from, to), fn.edges.size());
        if (inserted) {
            fn.edges.push_back({from, to, weight, EdgeKind::Inferred});
            ++stats.edgesAdded;
        } else {
            fn.edges[it->second].weight += weight;
        }
        outSum[from] += weight;
        inSum[to] += weight;
    }

    bool
    isUnprofiled(uint32_t bb_id) const
    {
        auto it = nodeOf.find(bb_id);
        return it == nodeOf.end() || !matched[it->second];
    }

    /**
     * Shortest static path from @p from_bb to @p to_bb whose interior
     * blocks are all unprofiled; empty if none within the depth bound.
     * Deterministic BFS in successor-list order.
     */
    std::vector<uint32_t>
    findDetour(uint32_t from_bb, uint32_t to_bb) const
    {
        std::vector<uint32_t> frontier;
        std::unordered_map<uint32_t, uint32_t> came_from;
        for (uint32_t s : target.successors(tIdx, from_bb)) {
            if (s == to_bb || !isUnprofiled(s) || came_from.count(s))
                continue;
            came_from.emplace(s, from_bb);
            frontier.push_back(s);
        }
        for (size_t depth = 0; depth < kMaxRerouteDepth; ++depth) {
            std::vector<uint32_t> next;
            for (uint32_t u : frontier) {
                for (uint32_t s : target.successors(tIdx, u)) {
                    if (s == to_bb) {
                        // Reconstruct interior path from u back to from_bb.
                        std::vector<uint32_t> path{u};
                        while (path.back() != from_bb) {
                            uint32_t prev = came_from.at(path.back());
                            if (prev == from_bb)
                                break;
                            path.push_back(prev);
                        }
                        std::reverse(path.begin(), path.end());
                        return path;
                    }
                    if (!isUnprofiled(s) || came_from.count(s))
                        continue;
                    came_from.emplace(s, u);
                    next.push_back(s);
                }
            }
            frontier = std::move(next);
            if (frontier.empty())
                break;
        }
        return {};
    }
};

void
inferFunction(FunctionDcfg &fn, const AddrMapIndex &target, uint32_t t_idx,
              InferenceStats &stats)
{
    FnState st(fn, target, t_idx, stats);

    // ---- Stage 1: reroute edges that are no longer statically adjacent.
    // A block split or inserted in the target breaks an observed edge
    // (u, v) into a static chain u -> n1 -> ... -> v whose interior the
    // profile has never seen.  Routing the edge's weight along the chain
    // conserves flow at u and v exactly and gives the new blocks their
    // counts.
    size_t original_edges = fn.edges.size();
    for (size_t e = 0; e < original_edges; ++e) {
        uint32_t from_bb = fn.nodes[fn.edges[e].fromNode].bbId;
        uint32_t to_bb = fn.nodes[fn.edges[e].toNode].bbId;
        const std::span<const uint32_t> succs =
            target.successors(t_idx, from_bb);
        if (std::find(succs.begin(), succs.end(), to_bb) != succs.end())
            continue; // Still statically adjacent.
        std::vector<uint32_t> detour = st.findDetour(from_bb, to_bb);
        if (detour.empty())
            continue; // Keep the edge: profile evidence with no static
                      // explanation (e.g. the target edited the branch).
        uint64_t w = fn.edges[e].weight;
        uint32_t from_node = fn.edges[e].fromNode;
        uint32_t to_node = fn.edges[e].toNode;
        // Retire the original edge, then thread its weight along the
        // detour.  Sums at from/to are restored by the added edges.
        st.outSum[from_node] -= w;
        st.inSum[to_node] -= w;
        fn.edges[e].weight = 0;
        uint32_t prev = from_node;
        for (uint32_t bb : detour) {
            int idx = st.ensureNode(bb);
            fn.nodes[idx].freq += w;
            st.addFlow(prev, static_cast<uint32_t>(idx), w);
            prev = static_cast<uint32_t>(idx);
        }
        st.addFlow(prev, to_node, w);
        ++stats.edgesRerouted;
        stats.weightPushed += w;
    }

    // ---- Stage 2: push residual out-flow into unprofiled successors.
    // A matched block whose frequency exceeds its observed out-flow lost
    // an edge to drift; if the static CFG offers unprofiled successors
    // (or profiled ones that are missing the same amount of in-flow),
    // route the residue there.  Newly created nodes are appended and
    // processed by the same loop, so flow propagates down unprofiled
    // chains until it reaches profiled code again.  Every node is
    // processed once, which bounds the pass even on cyclic CFGs.
    for (size_t i = 0; i < fn.nodes.size(); ++i) {
        if (fn.nodes[i].flags & elf::kBbReturns)
            continue; // Out-flow legitimately leaves the function.
        uint64_t freq = fn.nodes[i].freq;
        if (freq <= st.outSum[i])
            continue;
        uint64_t deficit = freq - st.outSum[i];
        const std::span<const uint32_t> succs =
            target.successors(t_idx, fn.nodes[i].bbId);
        if (succs.empty())
            continue;

        // First satisfy profiled successors that are short of in-flow —
        // bounded by their own deficit, so conservation at them improves.
        for (uint32_t s : succs) {
            if (deficit == 0)
                break;
            auto it = st.nodeOf.find(s);
            if (it == st.nodeOf.end() || !st.matched[it->second])
                continue;
            uint64_t their_freq = fn.nodes[it->second].freq;
            uint64_t their_in = st.inSum[it->second];
            if (their_freq <= their_in)
                continue;
            uint64_t grant = std::min(deficit, their_freq - their_in);
            st.addFlow(static_cast<uint32_t>(i),
                       static_cast<uint32_t>(it->second), grant);
            deficit -= grant;
            stats.weightPushed += grant;
        }
        if (deficit == 0)
            continue;

        // Split the remainder across unprofiled successors (the drift
        // added them; we cannot tell which one absorbed the flow).
        std::vector<uint32_t> open;
        for (uint32_t s : succs) {
            if (st.isUnprofiled(s))
                open.push_back(s);
        }
        if (open.empty())
            continue;
        uint64_t share = deficit / open.size();
        uint64_t rem = deficit % open.size();
        for (size_t k = 0; k < open.size(); ++k) {
            uint64_t grant = share + (k == 0 ? rem : 0);
            if (grant == 0)
                continue;
            int idx = st.ensureNode(open[k]);
            fn.nodes[idx].freq += grant;
            st.addFlow(static_cast<uint32_t>(i),
                       static_cast<uint32_t>(idx), grant);
            stats.weightPushed += grant;
        }
    }

    // Compact the edges retired by stage 1.
    fn.edges.erase(std::remove_if(fn.edges.begin(), fn.edges.end(),
                                  [](const DcfgEdge &e) {
                                      return e.weight == 0;
                                  }),
                   fn.edges.end());
}

} // namespace

InferenceStats
inferStaleCounts(StaleMatchResult &match, const AddrMapIndex &target)
{
    InferenceStats stats;
    for (size_t fi = 0; fi < match.dcfg.functions.size(); ++fi) {
        if (!match.needsInference[fi])
            continue;
        FunctionDcfg &fn = match.dcfg.functions[fi];
        int t_idx = target.findFunction(fn.function);
        assert(t_idx >= 0 && "matched function missing from target");
        inferFunction(fn, target, static_cast<uint32_t>(t_idx), stats);
        ++stats.functionsInferred;
    }
    return stats;
}

} // namespace propeller::stale
