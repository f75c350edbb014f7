#include "propeller/addr_map_index.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace propeller::core {

namespace {

/**
 * True if the function's combined block list (across all of its maps) is
 * internally consistent and fits the text image.
 */
bool
mapIsSane(const std::vector<const linker::ExecBlock *> &blocks,
          uint64_t text_start, uint64_t text_end)
{
    std::unordered_set<uint32_t> ids;
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    for (const auto *block : blocks) {
        if (!ids.insert(block->bbId).second)
            return false; // Duplicate block id.
        uint64_t end = block->address + block->size;
        if (block->address < text_start || end > text_end ||
            end < block->address)
            return false; // Outside the text image (or size wraps).
        if (block->size > 0)
            extents.emplace_back(block->address, end);
    }
    std::sort(extents.begin(), extents.end());
    for (size_t i = 1; i < extents.size(); ++i) {
        if (extents[i - 1].second > extents[i].first)
            return false; // Overlapping blocks.
    }
    return true;
}

} // namespace

BlockRef
AddrMapIndex::toRef(const Interval &iv)
{
    BlockRef ref;
    ref.funcIndex = iv.funcIndex;
    ref.bbId = iv.bbId;
    ref.blockStart = iv.start;
    ref.blockEnd = iv.end;
    ref.flags = iv.flags;
    ref.hash = iv.hash;
    return ref;
}

AddrMapIndex::AddrMapIndex(const linker::Executable &exe)
{
    // Sanitation pass: group blocks per function (a function may carry
    // several maps) and quarantine inconsistent ones before indexing.
    std::unordered_map<std::string, std::vector<const linker::ExecBlock *>>
        blocks_of;
    for (const auto &map : exe.bbAddrMap) {
        auto &blocks = blocks_of[map.function];
        for (const auto &block : map.blocks)
            blocks.push_back(&block);
    }
    std::set<std::string> bad;
    uint64_t text_start = exe.textBase;
    uint64_t text_end = exe.textBase + exe.text.size();
    for (const auto &[name, blocks] : blocks_of) {
        if (!mapIsSane(blocks, text_start, text_end))
            bad.insert(name);
    }
    quarantined_.assign(bad.begin(), bad.end());

    for (const auto &map : exe.bbAddrMap) {
        if (bad.count(map.function))
            continue;
        auto [it, inserted] = funcIndexByName_.emplace(
            map.function, static_cast<uint32_t>(functionNames_.size()));
        if (inserted) {
            functionNames_.push_back(map.function);
            entryBlocks_.push_back(0);
            functionHashes_.push_back(map.functionHash);
            funcSuccs_.emplace_back();
        }
        for (const auto &block : map.blocks) {
            intervals_.push_back({block.address, block.address + block.size,
                                  it->second, block.bbId, block.flags,
                                  block.hash});
            if (!block.succs.empty())
                funcSuccs_[it->second].emplace(block.bbId, block.succs);
        }
    }
    // Stable sort: zero-size blocks (fall-through-only blocks whose
    // encoding is empty) share their successor's address and must keep
    // their layout order so range walks traverse them deterministically.
    std::stable_sort(intervals_.begin(), intervals_.end(),
                     [](const Interval &a, const Interval &b) {
                         return a.start < b.start;
                     });

    funcIntervals_.resize(functionNames_.size());
    for (uint32_t i = 0; i < intervals_.size(); ++i)
        funcIntervals_[intervals_[i].funcIndex].push_back(i);

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
        for (uint32_t idx : funcIntervals_[it->second]) {
            if (intervals_[idx].start == sym.start) {
                entryBlocks_[it->second] = intervals_[idx].bbId;
                break;
            }
        }
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
    // Ties put zero-size blocks before the non-empty block at the same
    // address, so it-1 is the block that actually contains addr.
    if (addr >= it->end)
        return std::nullopt;
    BlockRef ref = toRef(*it);
    ref.intervalIndex = static_cast<uint32_t>(it - intervals_.begin());
    return ref;
}

std::optional<BlockRef>
AddrMapIndex::next(const BlockRef &ref) const
{
    uint32_t idx = ref.intervalIndex + 1;
    if (idx >= intervals_.size())
        return std::nullopt;
    BlockRef out = toRef(intervals_[idx]);
    out.intervalIndex = idx;
    return out;
}

std::vector<BlockRef>
AddrMapIndex::blocksOf(uint32_t func_index) const
{
    std::vector<BlockRef> blocks;
    blocks.reserve(funcIntervals_[func_index].size());
    for (uint32_t i : funcIntervals_[func_index]) {
        BlockRef ref = toRef(intervals_[i]);
        ref.intervalIndex = i;
        blocks.push_back(ref);
    }
    return blocks;
}

int
AddrMapIndex::findFunction(const std::string &name) const
{
    auto it = funcIndexByName_.find(name);
    return it == funcIndexByName_.end() ? -1 : static_cast<int>(it->second);
}

const std::vector<uint32_t> &
AddrMapIndex::successors(uint32_t func_index, uint32_t bb_id) const
{
    static const std::vector<uint32_t> kEmpty;
    const auto &succs = funcSuccs_[func_index];
    auto it = succs.find(bb_id);
    return it != succs.end() ? it->second : kEmpty;
}

std::optional<BlockRef>
AddrMapIndex::block(uint32_t func_index, uint32_t bb_id) const
{
    for (uint32_t i : funcIntervals_[func_index]) {
        if (intervals_[i].bbId == bb_id) {
            BlockRef ref = toRef(intervals_[i]);
            ref.intervalIndex = i;
            return ref;
        }
    }
    return std::nullopt;
}

} // namespace propeller::core
