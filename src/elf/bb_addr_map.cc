#include "elf/bb_addr_map.h"

#include <algorithm>
#include <cassert>

#include "support/bytes.h"
#include "support/hash.h"

namespace propeller::elf {

using support::ErrorCode;
using support::makeError;
using support::StatusOr;

size_t
FunctionAddrMap::blockCount() const
{
    size_t n = 0;
    for (const auto &range : ranges)
        n += range.blocks.size();
    return n;
}

void
FunctionAddrMap::setSuccessors(BbEntry &block,
                               std::span<const uint32_t> succs)
{
    block.succBegin = static_cast<uint32_t>(succIds.size());
    block.succCount = static_cast<uint32_t>(succs.size());
    succIds.insert(succIds.end(), succs.begin(), succs.end());
}

namespace {

/** First byte of a v2 blob.  A non-empty v1 blob can never start with
 *  0x00: a leading zero is a zero function count, which is only valid as
 *  the entire (one-byte) payload. */
constexpr uint8_t kV2Escape = 0x00;

support::Status
truncated(const char *what)
{
    return makeError(ErrorCode::kTruncated, std::string("truncated ") + what);
}

support::Status
oversized(const char *what, uint64_t n)
{
    return makeError(ErrorCode::kMalformed, std::string(what) + " " +
                                                std::to_string(n) +
                                                " exceeds payload size");
}

} // namespace

std::vector<uint8_t>
encodeAddrMaps(const std::vector<FunctionAddrMap> &maps,
               AddrMapVersion version)
{
    // Compact encoding in the spirit of SHT_LLVM_BB_ADDR_MAP: blocks in a
    // range are contiguous, so only the first offset plus per-block sizes
    // are stored; flags are packed with the id.
    std::vector<uint8_t> out;
    uint64_t features = 0;
    if (version == AddrMapVersion::V2) {
        features = kAddrMapFeatureHashes | kAddrMapFeatureSuccessors;
        out.push_back(kV2Escape);
        encodeUleb128(static_cast<uint64_t>(AddrMapVersion::V2), out);
        encodeUleb128(features, out);
    }
    encodeUleb128(maps.size(), out);
    for (const auto &map : maps) {
        putString(map.functionName, out);
        if (features & kAddrMapFeatureHashes)
            encodeUleb128(map.functionHash, out);
        encodeUleb128(map.ranges.size(), out);
        for (const auto &range : map.ranges) {
            putString(range.sectionSymbol, out);
            encodeUleb128(range.blocks.size(), out);
            uint64_t expected_offset =
                range.blocks.empty() ? 0 : range.blocks.front().offset;
            encodeUleb128(expected_offset, out);
            for (const auto &bb : range.blocks) {
                assert(bb.offset == expected_offset &&
                       "range blocks must be contiguous");
                encodeUleb128((static_cast<uint64_t>(bb.bbId) << 3) |
                                  (bb.flags & 0x7),
                              out);
                encodeUleb128(bb.size, out);
                if (features & kAddrMapFeatureHashes)
                    encodeUleb128(bb.hash, out);
                if (features & kAddrMapFeatureSuccessors) {
                    encodeUleb128(bb.succCount, out);
                    for (uint32_t succ : map.successors(bb))
                        encodeUleb128(succ, out);
                }
                expected_offset += bb.size;
            }
        }
    }
    // v2 blobs end with a content checksum; v1 stays checksum-free so
    // legacy blobs round-trip byte-identically.
    if (version == AddrMapVersion::V2)
        putLe64(fnv1a(out.data(), out.size()), out);
    return out;
}

StatusOr<std::vector<FunctionAddrMap>>
decodeAddrMapsChecked(const std::vector<uint8_t> &data)
{
    ByteReader in(data);
    const uint8_t *payload_end = in.end;
    uint64_t features = 0;
    if (data.size() > 1 && data[0] == kV2Escape) {
        // v2 blobs end with a checksum; verify it before trusting any
        // field (a bit flip inside a ULEB field decodes "successfully").
        constexpr size_t kV2MinSize = 4 + 8;
        if (data.size() < kV2MinSize)
            return makeError(ErrorCode::kTruncated,
                             "v2 blob shorter than header + checksum");
        payload_end = in.end - 8;
        if (getLe64(payload_end) != fnv1a(data.data(), data.size() - 8))
            return makeError(ErrorCode::kChecksumMismatch,
                             ".bb_addr_map content checksum does not "
                             "verify");
        ++in.p;
        uint64_t version = 0;
        if (!in.uleb(version))
            return truncated("version");
        if (version != static_cast<uint64_t>(AddrMapVersion::V2))
            return makeError(ErrorCode::kUnknownVersion,
                             "wire version " + std::to_string(version));
        if (!in.uleb(features))
            return truncated("feature bits");
        if ((features & ~kAddrMapKnownFeatures) != 0)
            return makeError(ErrorCode::kUnsupportedFeature,
                             "unknown feature bits 0x" +
                                 std::to_string(features &
                                                ~kAddrMapKnownFeatures));
    }
    // Every field lies strictly inside the payload: a field that runs
    // into the trailing checksum is truncation, not data.
    in.end = payload_end;
    const bool hashes = features & kAddrMapFeatureHashes;
    const bool successors = features & kAddrMapFeatureSuccessors;

    uint64_t n_funcs = 0;
    if (!in.uleb(n_funcs))
        return truncated("function count");
    // Sanity bound: every function entry needs at least 4 bytes, so any
    // larger count is corrupt input (guards reserve() on fuzzed bytes).
    if (n_funcs > data.size())
        return oversized("function count", n_funcs);

    std::vector<FunctionAddrMap> maps;
    maps.reserve(std::min(n_funcs, in.left()));
    for (uint64_t f = 0; f < n_funcs; ++f) {
        FunctionAddrMap &map = maps.emplace_back();
        auto ctx = [&](support::Status s) {
            return std::move(s).withContext(
                map.functionName.empty()
                    ? "function #" + std::to_string(f)
                    : "function " + map.functionName);
        };
        if (!in.str(map.functionName))
            return ctx(truncated("function name"));
        if (hashes && !in.uleb(map.functionHash))
            return ctx(truncated("function hash"));
        uint64_t n_ranges = 0;
        if (!in.uleb(n_ranges))
            return ctx(truncated("range count"));
        if (n_ranges > data.size())
            return ctx(oversized("range count", n_ranges));
        map.ranges.reserve(std::min(n_ranges, in.left()));
        for (uint64_t r = 0; r < n_ranges; ++r) {
            BbRange &range = map.ranges.emplace_back();
            if (!in.str(range.sectionSymbol))
                return ctx(truncated("section symbol"));
            uint64_t n_blocks = 0, cursor = 0;
            if (!in.uleb(n_blocks))
                return ctx(truncated("block count"));
            if (!in.uleb(cursor))
                return ctx(truncated("range offset"));
            if (n_blocks > data.size())
                return ctx(oversized("block count", n_blocks));
            range.blocks.reserve(std::min(n_blocks, in.left()));
            for (uint64_t b = 0; b < n_blocks; ++b) {
                BbEntry &bb = range.blocks.emplace_back();
                uint64_t id_flags = 0, size = 0;
                if (!in.uleb(id_flags))
                    return ctx(truncated("block id"));
                if (!in.uleb(size))
                    return ctx(truncated("block size"));
                bb.bbId = static_cast<uint32_t>(id_flags >> 3);
                bb.flags = static_cast<uint8_t>(id_flags & 0x7);
                bb.offset = static_cast<uint32_t>(cursor);
                bb.size = static_cast<uint32_t>(size);
                cursor += size;
                if (hashes && !in.uleb(bb.hash))
                    return ctx(truncated("block hash"));
                if (!successors)
                    continue;
                uint64_t n_succs = 0;
                if (!in.uleb(n_succs))
                    return ctx(truncated("successor count"));
                if (n_succs > data.size())
                    return ctx(oversized("successor count", n_succs));
                bb.succBegin = static_cast<uint32_t>(map.succIds.size());
                bb.succCount = static_cast<uint32_t>(n_succs);
                for (uint64_t s = 0; s < n_succs; ++s) {
                    uint64_t succ = 0;
                    if (!in.uleb(succ))
                        return ctx(truncated("successor id"));
                    map.succIds.push_back(static_cast<uint32_t>(succ));
                }
            }
        }
    }
    if (!in.done())
        return makeError(ErrorCode::kMalformed,
                         "trailing bytes after last function entry");
    return maps;
}

} // namespace propeller::elf
