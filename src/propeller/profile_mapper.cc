#include "propeller/profile_mapper.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/sched.h"
#include "support/check.h"

namespace propeller::core {

namespace {

/** Incremental DCFG builder keyed by (function, block id). */
class DcfgBuilder
{
  public:
    explicit DcfgBuilder(const AddrMapIndex &index) : index_(index) {}

    uint32_t
    dcfgOf(uint32_t func_index)
    {
        auto [it, inserted] =
            dcfgIndex_.emplace(func_index, graph_.functions.size());
        if (inserted) {
            FunctionDcfg dcfg;
            dcfg.function = index_.functionNames()[func_index];
            graph_.functions.push_back(std::move(dcfg));
        }
        return static_cast<uint32_t>(it->second);
    }

    uint32_t
    nodeOf(uint32_t dcfg_index, const BlockRef &ref)
    {
        uint64_t key = (static_cast<uint64_t>(dcfg_index) << 32) | ref.bbId;
        auto [it, inserted] =
            nodeIndex_.emplace(key, graph_.functions[dcfg_index].nodes.size());
        if (inserted) {
            DcfgNode node;
            node.bbId = ref.bbId;
            node.size = static_cast<uint32_t>(ref.blockEnd - ref.blockStart);
            node.flags = ref.flags;
            graph_.functions[dcfg_index].nodes.push_back(node);
        }
        return static_cast<uint32_t>(it->second);
    }

    void
    addEdge(uint32_t dcfg_index, uint32_t from, uint32_t to, uint64_t w,
            EdgeKind kind)
    {
        uint64_t key = (static_cast<uint64_t>(dcfg_index) << 40) |
                       (static_cast<uint64_t>(from) << 20) | to;
        auto [it, inserted] =
            edgeIndex_.emplace(key, graph_.functions[dcfg_index].edges.size());
        if (inserted) {
            graph_.functions[dcfg_index].edges.push_back(
                DcfgEdge{from, to, w, kind});
        } else {
            graph_.functions[dcfg_index].edges[it->second].weight += w;
        }
    }

    /**
     * Extra node flow from call/return records.  Blocks whose only
     * taken-branch activity is calls (e.g. straight-line dispatchers)
     * would otherwise have no intra-function edges and be misclassified
     * as cold.
     */
    void
    addExtraFlow(uint32_t dcfg_index, uint32_t node, uint64_t w,
                 bool incoming)
    {
        uint64_t key = (static_cast<uint64_t>(dcfg_index) << 32) | node;
        (incoming ? extraIn_ : extraOut_)[key] += w;
    }

    uint64_t
    extraFlow(uint32_t dcfg_index, uint32_t node, bool incoming) const
    {
        uint64_t key = (static_cast<uint64_t>(dcfg_index) << 32) | node;
        const auto &map = incoming ? extraIn_ : extraOut_;
        auto it = map.find(key);
        return it == map.end() ? 0 : it->second;
    }

    void
    addCallEdge(uint32_t caller_dcfg, uint32_t caller_node,
                uint32_t callee_dcfg, uint64_t w)
    {
        uint64_t key = (static_cast<uint64_t>(caller_dcfg) << 40) |
                       (static_cast<uint64_t>(caller_node) << 20) |
                       callee_dcfg;
        auto [it, inserted] =
            callIndex_.emplace(key, graph_.callEdges.size());
        if (inserted) {
            graph_.callEdges.push_back(
                CallEdge{caller_dcfg, caller_node, callee_dcfg, w});
        } else {
            graph_.callEdges[it->second].weight += w;
        }
    }

    WholeProgramDcfg take() { return std::move(graph_); }

  private:
    const AddrMapIndex &index_;
    WholeProgramDcfg graph_;
    std::unordered_map<uint32_t, size_t> dcfgIndex_;
    std::unordered_map<uint64_t, size_t> nodeIndex_;
    std::unordered_map<uint64_t, size_t> edgeIndex_;
    std::unordered_map<uint64_t, size_t> callIndex_;
    std::unordered_map<uint64_t, uint64_t> extraIn_;
    std::unordered_map<uint64_t, uint64_t> extraOut_;
};

} // namespace

struct DcfgMapper::Impl
{
    const AddrMapIndex &index;

    struct BranchSlot
    {
        uint64_t key = 0;
        uint64_t weight = 0;
        uint64_t to = 0;
        std::optional<BlockRef> rf;
        std::optional<BlockRef> rt;
    };
    std::vector<BranchSlot> branches;

    struct RangeSlot
    {
        uint64_t key = 0;
        uint64_t weight = 0;
        bool unmapped = false;
        bool truncated = false;
        std::vector<std::pair<BlockRef, BlockRef>> hops;
    };
    std::vector<RangeSlot> ranges;

    explicit Impl(const AddrMapIndex &idx) : index(idx) {}

    void
    resolveBranch(BranchSlot &slot) const
    {
        uint64_t from = profile::AggregatedProfile::keyFrom(slot.key);
        slot.to = profile::AggregatedProfile::keyTo(slot.key) |
                  (from & 0xffffffff00000000ull);
        slot.rf = index.lookup(from);
        slot.rt = index.lookup(slot.to);
    }

    void
    resolveRange(RangeSlot &slot) const
    {
        constexpr int kMaxWalk = 512;
        uint64_t start = profile::AggregatedProfile::keyFrom(slot.key);
        uint64_t end_addr = profile::AggregatedProfile::keyTo(slot.key) |
                            (start & 0xffffffff00000000ull);
        auto cur = index.lookup(start);
        if (!cur || end_addr < start) {
            slot.unmapped = true;
            return;
        }
        int steps = 0;
        while (end_addr >= cur->blockEnd) {
            if (++steps > kMaxWalk) {
                slot.truncated = true;
                break;
            }
            auto nxt = index.next(*cur);
            if (!nxt || nxt->funcIndex != cur->funcIndex ||
                nxt->blockStart != cur->blockEnd) {
                // Gap or function boundary: inconsistent range (e.g.
                // the sample raced a migration); drop the rest.
                slot.truncated = true;
                break;
            }
            slot.hops.emplace_back(*cur, *nxt);
            cur = nxt;
        }
    }
};

DcfgMapper::DcfgMapper(const profile::AggregatedProfile &agg,
                       const AddrMapIndex &index)
    : impl_(std::make_unique<Impl>(index))
{
    // Snapshot the maps' iteration order: the serial application phase
    // replays the slots in exactly this sequence, which is what makes
    // first-touch node numbering independent of resolution scheduling.
    impl_->branches.reserve(agg.branches.size());
    for (const auto &[key, weight] : agg.branches) {
        Impl::BranchSlot slot;
        slot.key = key;
        slot.weight = weight;
        impl_->branches.push_back(std::move(slot));
    }
    impl_->ranges.reserve(agg.ranges.size());
    for (const auto &[key, weight] : agg.ranges) {
        Impl::RangeSlot slot;
        slot.key = key;
        slot.weight = weight;
        impl_->ranges.push_back(std::move(slot));
    }
}

DcfgMapper::~DcfgMapper() = default;

void
DcfgMapper::resolveShard(size_t shard, size_t shardCount)
{
    if (shard >= shardCount)
        return;
    const size_t nb = impl_->branches.size();
    for (size_t i = shard * nb / shardCount;
         i < (shard + 1) * nb / shardCount; ++i)
        impl_->resolveBranch(impl_->branches[i]);
    const size_t nr = impl_->ranges.size();
    for (size_t i = shard * nr / shardCount;
         i < (shard + 1) * nr / shardCount; ++i)
        impl_->resolveRange(impl_->ranges[i]);
}

void
DcfgMapper::resolve(unsigned threads)
{
    // Slices outnumber threads so a slice heavy in long range walks
    // does not hold the loop up; any slicing resolves the same slots.
    const size_t shards = 4 * sched::resolveThreadCount(threads);
    sched::parallelFor(threads, shards,
                       [&](size_t s) { resolveShard(s, shards); });
}

WholeProgramDcfg
DcfgMapper::apply(MapperStats *stats_out)
{
    const AddrMapIndex &index = impl_->index;
    MapperStats stats;
    DcfgBuilder builder(index);

    // ---- Taken-branch records -> branch and call edges ------------------
    for (const Impl::BranchSlot &slot : impl_->branches) {
        uint64_t weight = slot.weight;
        uint64_t to = slot.to;
        const std::optional<BlockRef> &rf = slot.rf;
        const std::optional<BlockRef> &rt = slot.rt;
        if (!rf || !rt) {
            ++stats.unmappedRecords;
            continue;
        }
        if (rf->funcIndex == rt->funcIndex) {
            if (to == rt->blockStart) {
                uint32_t d = builder.dcfgOf(rf->funcIndex);
                builder.addEdge(d, builder.nodeOf(d, *rf),
                                builder.nodeOf(d, *rt), weight,
                                EdgeKind::Branch);
                stats.branchEdges += weight;
            } else {
                // Only returns land mid-block within one function.
                stats.returnRecords += weight;
            }
        } else if (to == rt->blockStart &&
                   rt->bbId == index.entryBlock(rt->funcIndex)) {
            uint32_t caller = builder.dcfgOf(rf->funcIndex);
            uint32_t callee = builder.dcfgOf(rt->funcIndex);
            uint32_t caller_node = builder.nodeOf(caller, *rf);
            builder.addCallEdge(caller, caller_node, callee, weight);
            builder.addExtraFlow(caller, caller_node, weight, false);
            stats.callEdges += weight;
        } else {
            // Cross-function return (to the instruction after a call):
            // credits the returning block's out-flow and the call-site
            // block's in-flow, so call-heavy straight-line blocks are
            // recognized as hot.
            uint32_t from_d = builder.dcfgOf(rf->funcIndex);
            uint32_t to_d = builder.dcfgOf(rt->funcIndex);
            builder.addExtraFlow(from_d, builder.nodeOf(from_d, *rf),
                                 weight, false);
            builder.addExtraFlow(to_d, builder.nodeOf(to_d, *rt), weight,
                                 true);
            stats.returnRecords += weight;
        }
    }

    // ---- Fall-through ranges -> fall-through edges -----------------------
    for (const Impl::RangeSlot &slot : impl_->ranges) {
        if (slot.unmapped) {
            ++stats.unmappedRecords;
            continue;
        }
        for (const auto &[cur, nxt] : slot.hops) {
            uint32_t d = builder.dcfgOf(cur.funcIndex);
            builder.addEdge(d, builder.nodeOf(d, cur),
                            builder.nodeOf(d, nxt), slot.weight,
                            EdgeKind::FallThrough);
            stats.fallThroughEdges += slot.weight;
        }
        if (slot.truncated)
            ++stats.rangeWalkTruncated;
    }

    WholeProgramDcfg graph = builder.take();

    // ---- Entry nodes -----------------------------------------------------
    // Resolve each sampled function's entry node, inserting it if the
    // entry block itself never appeared in a record (sparse sampling).
    for (auto &fn : graph.functions) {
        int found = index.findFunction(fn.function);
        PROPELLER_CHECK(found >= 0,
                        "DCFG function missing from the address map");
        const auto func_index = static_cast<uint32_t>(found);
        uint32_t entry_bb = index.entryBlock(func_index);
        int entry_node = -1;
        for (size_t n = 0; n < fn.nodes.size(); ++n) {
            if (fn.nodes[n].bbId == entry_bb) {
                entry_node = static_cast<int>(n);
                break;
            }
        }
        if (entry_node < 0) {
            auto ref = index.block(func_index, entry_bb);
            DcfgNode node;
            node.bbId = entry_bb;
            if (ref)
                node.size =
                    static_cast<uint32_t>(ref->blockEnd - ref->blockStart);
            entry_node = static_cast<int>(fn.nodes.size());
            fn.nodes.push_back(node);
        }
        fn.entryNode = static_cast<uint32_t>(entry_node);
    }

    // ---- Node frequencies -------------------------------------------------
    for (size_t d = 0; d < graph.functions.size(); ++d) {
        FunctionDcfg &fn = graph.functions[d];
        std::vector<uint64_t> in(fn.nodes.size(), 0);
        std::vector<uint64_t> out(fn.nodes.size(), 0);
        for (const auto &edge : fn.edges) {
            out[edge.fromNode] += edge.weight;
            in[edge.toNode] += edge.weight;
        }
        for (size_t i = 0; i < fn.nodes.size(); ++i) {
            uint32_t di = static_cast<uint32_t>(d);
            uint32_t ni = static_cast<uint32_t>(i);
            in[i] += builder.extraFlow(di, ni, true);
            out[i] += builder.extraFlow(di, ni, false);
            fn.nodes[i].freq = std::max(in[i], out[i]);
        }
    }
    // Entry nodes execute at least as often as they are called.
    for (const auto &call : graph.callEdges) {
        FunctionDcfg &callee = graph.functions[call.calleeDcfg];
        DcfgNode &entry = callee.nodes[callee.entryNode];
        entry.freq = std::max(entry.freq, call.weight);
    }

    if (stats_out)
        *stats_out = stats;
    return graph;
}

WholeProgramDcfg
buildDcfg(const profile::AggregatedProfile &agg, const AddrMapIndex &index,
          MapperStats *stats_out, unsigned threads)
{
    // A read-only resolution phase (address lookups, range walks) fills
    // per-record slots in parallel; the serial application phase feeds
    // the mutable builder in the aggregation maps' iteration order — the
    // same order the fully serial mapper used, so the DCFG (whose node
    // numbering is first-touch order) is identical at any thread count.
    DcfgMapper mapper(agg, index);
    mapper.resolve(threads);
    return mapper.apply(stats_out);
}

} // namespace propeller::core
