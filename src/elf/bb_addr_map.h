#ifndef PROPELLER_ELF_BB_ADDR_MAP_H
#define PROPELLER_ELF_BB_ADDR_MAP_H

/**
 * @file
 * The basic block address map (paper section 3.2).
 *
 * Substitute for LLVM's SHT_LLVM_BB_ADDR_MAP.  For every function, codegen
 * records each machine basic block's offset, size and stable id, grouped
 * into one range per emitted text section (cluster).  The section is not
 * loaded at run time; its only consumers are the Phase 3 whole-program
 * analysis (mapping LBR addresses back to machine basic blocks) and the
 * Figure 6 size accounting.
 *
 * Encoding mirrors the real section: ULEB128 fields, one entry per
 * function, per-range block lists.  Two wire versions exist:
 *
 *  - **v1** (legacy): offsets, sizes, ids and flags only; the blob starts
 *    directly with the function count.
 *  - **v2**: starts with a 0x00 escape byte, a version number and a
 *    feature-bit field, and adds the stale-profile metadata — a stable
 *    per-block fingerprint, a per-function hash and per-block successor
 *    lists.  These are what let a profile collected on last week's binary
 *    be matched onto this week's build (src/stale).  A v2 blob ends with
 *    an 8-byte FNV-1a checksum over every preceding byte: ULEB128 streams
 *    can absorb bit flips silently, and the checksum is what makes any
 *    corruption of the metadata a *detected* rejection (ISSUE 4).
 *
 * v1 blobs still decode (a non-empty v1 blob can never start with 0x00:
 * a zero function count must be the entire payload).  Unknown versions or
 * unknown feature bits are a decode *error*, never undefined behavior.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/status.h"

namespace propeller::elf {

/** Per-block flags stored in the address map. */
enum BbFlags : uint8_t {
    kBbLandingPad = 0x01, ///< Block is an exception landing pad.
    kBbReturns = 0x02,    ///< Block ends in a return.
    kBbFallThrough = 0x04 ///< Block may fall through to the next block.
};

/** Wire format versions of the encoded section. */
enum class AddrMapVersion : uint8_t {
    V1 = 1, ///< Legacy: no fingerprints, no successor lists.
    V2 = 2, ///< Versioned header + feature bits + stale-profile metadata.
};

/** Feature bits of the v2 header. */
enum AddrMapFeatures : uint64_t {
    /** Per-block fingerprints and the per-function hash are present. */
    kAddrMapFeatureHashes = 0x1,
    /** Per-block successor id lists are present. */
    kAddrMapFeatureSuccessors = 0x2,
};

/** All feature bits a decoder of this version understands. */
constexpr uint64_t kAddrMapKnownFeatures =
    kAddrMapFeatureHashes | kAddrMapFeatureSuccessors;

/** One machine basic block inside a range. */
struct BbEntry
{
    uint32_t bbId = 0;   ///< Stable IR block id.
    uint32_t offset = 0; ///< Byte offset from the start of the range.
    uint32_t size = 0;   ///< Encoded size in bytes.
    uint8_t flags = 0;

    /**
     * Layout-invariant block fingerprint (v2): opcode stream, branch ids
     * and the 1-hop CFG neighborhood (see codegen/fingerprint.h).  Zero
     * in v1 blobs and for blocks without fingerprints.
     */
    uint64_t hash = 0;

    /**
     * This block's static successor ids (v2), in terminator order: a
     * slice of the owning FunctionAddrMap::succIds, read through
     * FunctionAddrMap::successors().
     */
    uint32_t succBegin = 0;
    uint32_t succCount = 0;

    bool operator==(const BbEntry &) const = default;
};

/** One contiguous range (one text section / cluster) of a function. */
struct BbRange
{
    std::string sectionSymbol; ///< Symbol of the owning text section.
    std::vector<BbEntry> blocks;

    bool operator==(const BbRange &) const = default;
};

/** Address map metadata for one function. */
struct FunctionAddrMap
{
    std::string functionName;
    std::vector<BbRange> ranges;

    /**
     * Layout-invariant whole-function fingerprint (v2): combines every
     * block fingerprint in original block order.  Equal hashes mean the
     * function's CFG and instruction streams are unchanged, so a stale
     * profile maps over by block id with no further work.
     */
    uint64_t functionHash = 0;

    /** Successor ids of every block, stored once, in block order. */
    std::vector<uint32_t> succIds;

    bool operator==(const FunctionAddrMap &) const = default;

    /** Total number of blocks across all ranges. */
    size_t blockCount() const;

    /** Static successor block ids of @p block, one of this map's. */
    std::span<const uint32_t>
    successors(const BbEntry &block) const
    {
        return {succIds.data() + block.succBegin, block.succCount};
    }

    /** Append @p succs as @p block's successor list (blocks in order). */
    void setSuccessors(BbEntry &block, std::span<const uint32_t> succs);
};

/**
 * Encode a list of function address maps into section bytes.
 *
 * @param version wire format to emit; V1 drops hashes and successors.
 */
std::vector<uint8_t> encodeAddrMaps(const std::vector<FunctionAddrMap> &maps,
                                    AddrMapVersion version =
                                        AddrMapVersion::V2);

/**
 * Decode section bytes produced by encodeAddrMaps().
 *
 * Accepts both v1 and v2 blobs; rejects unknown versions, unknown
 * feature bits, and (for v2) any blob whose trailing checksum does not
 * verify.  Errors carry a context chain naming the failing function /
 * range / block, so a corrupt object is attributable from the workflow
 * layer.
 */
support::StatusOr<std::vector<FunctionAddrMap>>
decodeAddrMapsChecked(const std::vector<uint8_t> &data);

} // namespace propeller::elf

#endif // PROPELLER_ELF_BB_ADDR_MAP_H
