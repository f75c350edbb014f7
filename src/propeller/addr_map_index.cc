#include "propeller/addr_map_index.h"

#include <algorithm>
#include <utility>

namespace propeller::core {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

uint64_t
pairKey(uint32_t hi, uint32_t lo)
{
    return static_cast<uint64_t>(hi) << 32 | lo;
}

} // namespace

BlockRef
AddrMapIndex::toRef(const Interval &iv, uint32_t index)
{
    BlockRef ref;
    ref.funcIndex = iv.funcIndex;
    ref.bbId = iv.bbId;
    ref.blockStart = iv.start;
    ref.blockEnd = iv.start + iv.size;
    ref.flags = iv.flags;
    ref.hash = iv.hash;
    ref.intervalIndex = index;
    return ref;
}

AddrMapIndex::AddrMapIndex(const linker::Executable &exe)
{
    const std::vector<linker::ExecFuncMap> &maps = exe.bbAddrMap;
    const auto n_maps = static_cast<uint32_t>(maps.size());

    // Group the maps by function (a function may carry several), in
    // first-occurrence order.  funcIndexByName_ holds group numbers
    // until sanitation has picked the indexed functions.
    std::vector<uint32_t> group_of(n_maps);
    std::vector<uint32_t> next_map(n_maps, kNone); ///< Same function's.
    std::vector<uint32_t> first_map, last_map, group_blocks;
    funcIndexByName_.reserve(n_maps);
    for (uint32_t m = 0; m < n_maps; ++m) {
        auto [it, inserted] = funcIndexByName_.try_emplace(
            maps[m].function, static_cast<uint32_t>(first_map.size()));
        const uint32_t g = it->second;
        if (inserted) {
            first_map.push_back(m);
            last_map.push_back(m);
            group_blocks.push_back(0);
        } else {
            next_map[last_map[g]] = m;
            last_map[g] = m;
        }
        group_of[m] = g;
        group_blocks[g] += static_cast<uint32_t>(maps[m].blocks.size());
    }
    const auto n_groups = static_cast<uint32_t>(first_map.size());

    // Sanitation: a function is consistent if its combined block list
    // (across all of its maps) repeats no id, fits the text image and
    // has no overlapping blocks.  The scratch is reused across
    // functions: seen[id] holds the group number + 1 of the last
    // function that had a block id below its block count.
    std::vector<uint32_t> seen;
    std::vector<uint32_t> sparse_ids;
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    const uint64_t text_start = exe.textBase;
    const uint64_t text_end = exe.textBase + exe.text.size();
    auto sane = [&](uint32_t g) {
        const uint32_t n = group_blocks[g];
        if (seen.size() < n)
            seen.resize(n, 0);
        sparse_ids.clear();
        extents.clear();
        for (uint32_t m = first_map[g]; m != kNone; m = next_map[m]) {
            for (const auto &block : maps[m].blocks) {
                if (block.bbId >= n) {
                    sparse_ids.push_back(block.bbId);
                } else if (seen[block.bbId] == g + 1) {
                    return false; // Duplicate block id.
                } else {
                    seen[block.bbId] = g + 1;
                }
                uint64_t end = block.address + block.size;
                if (block.address < text_start || end > text_end ||
                    end < block.address)
                    return false; // Outside the text image (or size wraps).
                if (block.size > 0)
                    extents.emplace_back(block.address, end);
            }
        }
        std::sort(sparse_ids.begin(), sparse_ids.end());
        if (std::adjacent_find(sparse_ids.begin(), sparse_ids.end()) !=
            sparse_ids.end())
            return false; // Duplicate block id.
        if (!std::is_sorted(extents.begin(), extents.end()))
            std::sort(extents.begin(), extents.end());
        for (size_t i = 1; i < extents.size(); ++i) {
            if (extents[i - 1].second > extents[i].first)
                return false; // Overlapping blocks.
        }
        return true;
    };

    std::vector<uint32_t> func_of(n_groups, kNone);
    for (uint32_t g = 0; g < n_groups; ++g) {
        const linker::ExecFuncMap &map = maps[first_map[g]];
        if (!sane(g)) {
            quarantined_.push_back(map.function);
            continue;
        }
        func_of[g] = static_cast<uint32_t>(functionNames_.size());
        functionNames_.push_back(map.function);
        functionHashes_.push_back(map.functionHash);
    }
    std::sort(quarantined_.begin(), quarantined_.end());
    if (!quarantined_.empty()) {
        for (const std::string &name : quarantined_)
            funcIndexByName_.erase(name);
        for (auto &[name, index] : funcIndexByName_)
            index = func_of[index];
    }
    const auto n_funcs = static_cast<uint32_t>(functionNames_.size());
    entryBlocks_.assign(n_funcs, 0);

    // Function rows: each function's blocks, counted before the fill.
    funcBegin_.assign(n_funcs + 1, 0);
    for (uint32_t g = 0; g < n_groups; ++g) {
        if (func_of[g] != kNone)
            funcBegin_[func_of[g] + 1] = group_blocks[g];
    }
    for (uint32_t f = 0; f < n_funcs; ++f)
        funcBegin_[f + 1] += funcBegin_[f];

    intervals_.reserve(funcBegin_[n_funcs]);
    bool in_order = true;
    for (uint32_t m = 0; m < n_maps; ++m) {
        const uint32_t f = func_of[group_of[m]];
        if (f == kNone)
            continue;
        const linker::ExecFuncMap &map = maps[m];
        for (const auto &block : map.blocks) {
            std::span<const uint32_t> succs = map.successors(block);
            in_order = in_order && (intervals_.empty() ||
                                    intervals_.back().start <= block.address);
            intervals_.push_back(
                {block.address, block.hash, f, block.bbId, block.size,
                 static_cast<uint32_t>(succPool_.size()),
                 static_cast<uint32_t>(succs.size()), block.flags});
            succPool_.insert(succPool_.end(), succs.begin(), succs.end());
        }
    }
    // Stable sort: zero-size blocks (fall-through-only blocks whose
    // encoding is empty) share their successor's address and must keep
    // their layout order so range walks traverse them deterministically.
    // Linker output already arrives in address order.
    if (!in_order) {
        std::stable_sort(intervals_.begin(), intervals_.end(),
                         [](const Interval &a, const Interval &b) {
                             return a.start < b.start;
                         });
    }

    // Fill the rows in address order: interval indices, and each block
    // id below the function's block count in the dense table.
    funcIntervals_.resize(intervals_.size());
    idTable_.assign(intervals_.size(), kNoInterval);
    std::vector<uint32_t> fill(funcBegin_.begin(), funcBegin_.end() - 1);
    for (uint32_t i = 0; i < intervals_.size(); ++i) {
        const uint32_t f = intervals_[i].funcIndex;
        const uint32_t id = intervals_[i].bbId;
        funcIntervals_[fill[f]++] = i;
        if (id < funcBegin_[f + 1] - funcBegin_[f])
            idTable_[funcBegin_[f] + id] = i;
        else
            idSpill_.emplace(pairKey(f, id), i);
    }

    // The entry block of each function sits at its primary symbol address
    // (the primary cluster begins with the entry block; a landing-pad nop
    // prefix never applies to it).  The entry block may have an empty
    // encoding (a lone fall-through branch), so take the *first* block in
    // layout order at that address rather than the containing interval.
    for (const auto &sym : exe.symbols) {
        if (!sym.isPrimary)
            continue;
        auto it = funcIndexByName_.find(sym.parentFunction);
        if (it == funcIndexByName_.end())
            continue;
        const uint32_t f = it->second;
        const uint32_t *row = funcIntervals_.data() + funcBegin_[f];
        const uint32_t *row_end = funcIntervals_.data() + funcBegin_[f + 1];
        const uint32_t *at = std::lower_bound(
            row, row_end, sym.start, [&](uint32_t i, uint64_t addr) {
                return intervals_[i].start < addr;
            });
        if (at != row_end && intervals_[*at].start == sym.start)
            entryBlocks_[f] = intervals_[*at].bbId;
    }
}

std::optional<BlockRef>
AddrMapIndex::lookup(uint64_t addr) const
{
    auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), addr,
        [](uint64_t a, const Interval &iv) { return a < iv.start; });
    if (it == intervals_.begin())
        return std::nullopt;
    --it;
    // Ties keep map order: within a function zero-size blocks sort before
    // the sized block at their address, but another function's
    // zero-size block can sort after it, so step back over those.
    while (it->size == 0 && it != intervals_.begin() &&
           (it - 1)->start == it->start)
        --it;
    if (addr - it->start >= it->size)
        return std::nullopt;
    return toRef(*it, static_cast<uint32_t>(it - intervals_.begin()));
}

std::optional<BlockRef>
AddrMapIndex::next(const BlockRef &ref) const
{
    uint32_t idx = ref.intervalIndex + 1;
    if (idx >= intervals_.size())
        return std::nullopt;
    return toRef(intervals_[idx], idx);
}

std::vector<BlockRef>
AddrMapIndex::blocksOf(uint32_t func_index) const
{
    std::vector<BlockRef> blocks;
    blocks.reserve(funcBegin_[func_index + 1] - funcBegin_[func_index]);
    for (uint32_t r = funcBegin_[func_index]; r < funcBegin_[func_index + 1];
         ++r)
        blocks.push_back(toRef(intervals_[funcIntervals_[r]],
                               funcIntervals_[r]));
    return blocks;
}

int
AddrMapIndex::findFunction(const std::string &name) const
{
    auto it = funcIndexByName_.find(name);
    return it == funcIndexByName_.end() ? -1 : static_cast<int>(it->second);
}

uint32_t
AddrMapIndex::intervalOf(uint32_t func_index, uint32_t bb_id) const
{
    const uint32_t row = funcBegin_[func_index];
    if (bb_id < funcBegin_[func_index + 1] - row)
        return idTable_[row + bb_id];
    auto it = idSpill_.find(pairKey(func_index, bb_id));
    return it == idSpill_.end() ? kNoInterval : it->second;
}

std::span<const uint32_t>
AddrMapIndex::successors(uint32_t func_index, uint32_t bb_id) const
{
    const uint32_t i = intervalOf(func_index, bb_id);
    if (i == kNoInterval)
        return {};
    return {succPool_.data() + intervals_[i].succBegin,
            intervals_[i].succCount};
}

std::optional<BlockRef>
AddrMapIndex::block(uint32_t func_index, uint32_t bb_id) const
{
    const uint32_t i = intervalOf(func_index, bb_id);
    if (i == kNoInterval)
        return std::nullopt;
    return toRef(intervals_[i], i);
}

} // namespace propeller::core
