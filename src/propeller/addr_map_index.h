#ifndef PROPELLER_PROPELLER_ADDR_MAP_INDEX_H
#define PROPELLER_PROPELLER_ADDR_MAP_INDEX_H

/**
 * @file
 * Address-to-basic-block resolution (paper section 3.3).
 *
 * Builds a sorted interval index over the executable's BB address map so
 * that LBR sample addresses can be mapped to (function, machine basic
 * block) pairs in O(log n) — the disassembly-free alternative to BOLT's
 * address resolution.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "linker/executable.h"

namespace propeller::core {

/** Resolution result: which block contains an address. */
struct BlockRef
{
    uint32_t funcIndex = 0; ///< Index into AddrMapIndex::functionNames().
    uint32_t bbId = 0;
    uint64_t blockStart = 0;
    uint64_t blockEnd = 0;
    uint8_t flags = 0;

    /** Stable block fingerprint (0 when the binary has v1 metadata). */
    uint64_t hash = 0;

    /** Position in the global layout order (for next()). */
    uint32_t intervalIndex = 0;

    bool operator==(const BlockRef &) const = default;
};

/**
 * Sorted interval index over an executable's BB address map.
 *
 * Construction sanitizes the metadata: a function whose map is
 * internally inconsistent — duplicate block ids, blocks outside the text
 * image, overlapping blocks — is dropped from the index entirely
 * (quarantined), so its samples simply go unmapped and the function
 * keeps its baseline layout, instead of feeding the layout pass garbage
 * intervals.  Honest metadata is indexed unchanged.
 *
 * Everything lives in flat arrays built in one pass over the maps: the
 * intervals, one successor pool, and per-function rows (compressed
 * sparse rows) of interval indices and of a dense block-id table, so
 * block() and successors() are O(1).
 */
class AddrMapIndex
{
  public:
    explicit AddrMapIndex(const linker::Executable &exe);

    /** Functions dropped by construction-time sanitation, sorted. */
    const std::vector<std::string> &quarantined() const
    {
        return quarantined_;
    }

    /** Resolve @p addr to the block containing it. */
    std::optional<BlockRef> lookup(uint64_t addr) const;

    /** Block following @p ref in address order (for range walks). */
    std::optional<BlockRef> next(const BlockRef &ref) const;

    /** All blocks of a function, in address order. */
    std::vector<BlockRef> blocksOf(uint32_t func_index) const;

    /** Resolve a specific (function, block id) pair. */
    std::optional<BlockRef> block(uint32_t func_index, uint32_t bb_id) const;

    const std::vector<std::string> &functionNames() const
    {
        return functionNames_;
    }

    /** Find a function index by name; -1 if the binary has no such map
     *  (or its map was quarantined). */
    int findFunction(const std::string &name) const;

    /** Whole-function fingerprint (0 when the binary has v1 metadata). */
    uint64_t functionHash(uint32_t func_index) const
    {
        return functionHashes_[func_index];
    }

    /**
     * Static successor block ids of (function, block), from the v2
     * address map; empty for v1 metadata or unknown blocks.
     */
    std::span<const uint32_t> successors(uint32_t func_index,
                                         uint32_t bb_id) const;

    /** Entry block id of function @p func_index (lowest block address of
     *  the primary range is not necessarily the entry; this is the block
     *  at the function symbol address). */
    uint32_t entryBlock(uint32_t func_index) const
    {
        return entryBlocks_[func_index];
    }

    size_t blockCount() const { return intervals_.size(); }

    /** Modelled in-memory footprint in bytes. */
    uint64_t
    footprint() const
    {
        return intervals_.size() * sizeof(Interval) +
               functionNames_.size() * 48;
    }

  private:
    struct Interval
    {
        uint64_t start;
        uint64_t hash;
        uint32_t funcIndex;
        uint32_t bbId;
        uint32_t size;
        uint32_t succBegin; ///< Slice of succPool_.
        uint32_t succCount;
        uint8_t flags;
    };
    // footprint() is charged to the memory meter: 40 bytes per block.
    static_assert(sizeof(Interval) == 40);

    static constexpr uint32_t kNoInterval = UINT32_MAX;

    static BlockRef toRef(const Interval &iv, uint32_t index);

    /** Interval of (function, block id), or kNoInterval. */
    uint32_t intervalOf(uint32_t func_index, uint32_t bb_id) const;

    std::vector<Interval> intervals_; ///< Sorted by start address.
    std::vector<std::string> functionNames_;
    /** Name -> index into functionNames_ (indexed functions only). */
    std::unordered_map<std::string, uint32_t> funcIndexByName_;
    std::vector<std::string> quarantined_;
    std::vector<uint32_t> entryBlocks_;
    std::vector<uint64_t> functionHashes_;
    /** Successor ids of every block (v2 metadata). */
    std::vector<uint32_t> succPool_;
    /**
     * Per function f, rows funcBegin_[f] .. funcBegin_[f + 1] of:
     * funcIntervals_, its interval indices in address order, and
     * idTable_, the interval of each block id below its block count.
     */
    std::vector<uint32_t> funcBegin_;
    std::vector<uint32_t> funcIntervals_;
    std::vector<uint32_t> idTable_;
    /** (function << 32 | block id) -> interval, for ids past the table. */
    std::unordered_map<uint64_t, uint32_t> idSpill_;
};

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_ADDR_MAP_INDEX_H
