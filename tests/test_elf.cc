/**
 * @file
 * Unit tests for the object file format: section sizing, BB address map
 * encoding, serialization round-trips and content hashing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "elf/object.h"
#include "support/bytes.h"
#include "support/rng.h"

namespace propeller::elf {
namespace {

Section
textSectionWithSites()
{
    Section sec;
    sec.name = ".text.f";
    sec.type = SectionType::Text;
    sec.alignment = 16;

    TextPiece p1;
    p1.block = BlockMark{0, kBbFallThrough};
    p1.bytes = {1, 2, 3};
    BranchSite call;
    call.op = isa::Opcode::Call;
    call.targetSymbol = "g";
    call.targetBb = kSectionStart;
    p1.site = call;
    sec.pieces.push_back(p1);

    TextPiece p2;
    p2.bytes = {4, 5};
    BranchSite jcc;
    jcc.op = isa::Opcode::JccNear;
    jcc.bias = 77;
    jcc.branchId = 9;
    jcc.targetSymbol = "f";
    jcc.targetBb = 3;
    p2.site = jcc;
    sec.pieces.push_back(p2);
    return sec;
}

TEST(Section, SizeSumsBytesAndSites)
{
    Section sec = textSectionWithSites();
    // 3 bytes + call(5) + 2 bytes + jcc near(11) = 21.
    EXPECT_EQ(sec.size(), 21u);
    EXPECT_EQ(sec.relocationCount(), 2u);
}

TEST(Section, NonTextSizeIsRawBytes)
{
    Section sec;
    sec.type = SectionType::RoData;
    sec.bytes.assign(100, 0);
    EXPECT_EQ(sec.size(), 100u);
    EXPECT_EQ(sec.relocationCount(), 0u);
}

TEST(FrameDescriptor, SizeGrowsWithSavedRegs)
{
    FrameDescriptor small{"f", 64, 1};
    FrameDescriptor big{"f", 64, 6};
    EXPECT_LT(small.byteSize(), big.byteSize());
    EXPECT_EQ(small.byteSize(), 24u + 8u + 2u);
}

TEST(SizeBreakdown, BucketsByType)
{
    ObjectFile obj;
    obj.name = "m.o";
    obj.sections.push_back(textSectionWithSites());
    obj.symbols.push_back({"f", 0, SymbolKind::Function, "f"});

    Section eh;
    eh.name = ".eh_frame";
    eh.type = SectionType::EhFrame;
    eh.bytes.assign(40, 0);
    obj.sections.push_back(eh);

    Section ro;
    ro.name = ".rodata";
    ro.type = SectionType::RoData;
    ro.bytes.assign(10, 0);
    obj.sections.push_back(ro);

    auto b = obj.sizeBreakdown();
    EXPECT_EQ(b.text, 21u);
    EXPECT_EQ(b.ehFrame, 40u);
    EXPECT_EQ(b.other, 10u);
    EXPECT_EQ(b.relocs, 2 * kRelaEntrySize);
    EXPECT_EQ(b.total(), 21u + 40u + 10u + 48u);
}

TEST(SizeBreakdown, AccumulateOperator)
{
    ObjectFile::SizeBreakdown a{10, 2, 3, 4, 5, 6};
    ObjectFile::SizeBreakdown b{1, 1, 1, 1, 1, 1};
    a += b;
    EXPECT_EQ(a.text, 11u);
    EXPECT_EQ(a.debug, 6u);
    EXPECT_EQ(a.total(), 36u);
}

/** A block entry without stale-profile metadata. */
BbEntry
entry(uint32_t id, uint32_t offset, uint32_t size, uint8_t flags = 0)
{
    return {.bbId = id, .offset = offset, .size = size, .flags = flags};
}

/** Decode @p bytes, failing the test on a decode error. */
std::vector<FunctionAddrMap>
decoded(const std::vector<uint8_t> &bytes)
{
    auto maps = decodeAddrMapsChecked(bytes);
    EXPECT_TRUE(maps.ok()) << maps.status().toString();
    return maps.ok() ? std::move(maps).value()
                     : std::vector<FunctionAddrMap>{};
}

bool
rejected(const std::vector<uint8_t> &bytes)
{
    return !decodeAddrMapsChecked(bytes).ok();
}

TEST(BbAddrMap, EncodeDecodeRoundtrip)
{
    std::vector<FunctionAddrMap> maps;
    FunctionAddrMap fn;
    fn.functionName = "foo";
    BbRange range;
    range.sectionSymbol = "foo";
    range.blocks = {entry(0, 0, 12, kBbFallThrough),
                    entry(3, 12, 7, kBbReturns)};
    fn.ranges.push_back(range);
    BbRange cold;
    cold.sectionSymbol = "foo.cold";
    cold.blocks = {entry(7, 0, 30, kBbLandingPad)};
    fn.ranges.push_back(cold);
    maps.push_back(fn);

    auto got = decoded(encodeAddrMaps(maps));
    EXPECT_EQ(got, maps);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].blockCount(), 3u);
}

TEST(BbAddrMap, RandomizedRoundtrip)
{
    Rng rng(123);
    for (int iter = 0; iter < 20; ++iter) {
        std::vector<FunctionAddrMap> maps;
        uint32_t n_funcs = 1 + rng.below(5);
        for (uint32_t f = 0; f < n_funcs; ++f) {
            FunctionAddrMap fn;
            fn.functionName = "fn_" + std::to_string(rng.next() % 1000);
            fn.functionHash = rng.next();
            uint32_t n_ranges = 1 + rng.below(3);
            for (uint32_t r = 0; r < n_ranges; ++r) {
                BbRange &range = fn.ranges.emplace_back();
                range.sectionSymbol =
                    fn.functionName + "." + std::to_string(r);
                uint32_t offset = 0;
                uint32_t n_blocks = 1 + rng.below(8);
                for (uint32_t b = 0; b < n_blocks; ++b) {
                    uint32_t size =
                        static_cast<uint32_t>(rng.below(100000));
                    BbEntry &bb = range.blocks.emplace_back(
                        entry(static_cast<uint32_t>(rng.below(1 << 20)),
                              offset, size,
                              static_cast<uint8_t>(rng.below(8))));
                    bb.hash = rng.next();
                    std::vector<uint32_t> succs(rng.below(4));
                    for (uint32_t &succ : succs)
                        succ = static_cast<uint32_t>(rng.next());
                    fn.setSuccessors(bb, succs);
                    offset += size;
                }
            }
            maps.push_back(std::move(fn));
        }
        EXPECT_EQ(decoded(encodeAddrMaps(maps)), maps);
    }
}

TEST(BbAddrMap, FuzzedBytesNeverCrash)
{
    Rng rng(0xf22);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<uint8_t> junk(rng.below(64));
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.next());
        auto maps = decodeAddrMapsChecked(junk);
        if (!maps.ok())
            continue;
        // Rarely valid by chance; must still be structurally sound.
        for (const auto &map : *maps) {
            for (const auto &range : map.ranges) {
                for (size_t b = 0; b + 1 < range.blocks.size(); ++b)
                    EXPECT_EQ(range.blocks[b].offset + range.blocks[b].size,
                              range.blocks[b + 1].offset);
                for (const auto &bb : range.blocks)
                    EXPECT_LE(uint64_t{bb.succBegin} + bb.succCount,
                              map.succIds.size());
            }
        }
    }
}

TEST(BbAddrMap, HostileCountsRejected)
{
    // A ULEB-encoded astronomically large function count must fail fast
    // instead of reserving terabytes.
    std::vector<uint8_t> hostile;
    encodeUleb128(0xffffffffffffull, hostile);
    EXPECT_TRUE(rejected(hostile));
}

TEST(BbAddrMap, MalformedInputRejected)
{
    std::vector<FunctionAddrMap> maps(1);
    maps[0].functionName = "f";
    maps[0].ranges.push_back({"f", {entry(0, 0, 5)}});
    std::vector<uint8_t> bytes = encodeAddrMaps(maps);

    std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 2);
    EXPECT_TRUE(rejected(truncated));

    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_TRUE(rejected(padded)) << "trailing bytes must be rejected";
}

std::vector<FunctionAddrMap>
mapsWithStaleMetadata()
{
    std::vector<FunctionAddrMap> maps(1);
    maps[0].functionName = "f";
    maps[0].functionHash = 0xfeedface12345678ull;
    BbRange range;
    range.sectionSymbol = "f";
    range.blocks = {entry(0, 0, 8, kBbFallThrough),
                    entry(3, 8, 13, kBbReturns)};
    range.blocks[0].hash = 0xabcdef01ull;
    range.blocks[1].hash = 0x1234ull;
    const uint32_t succs[] = {3};
    maps[0].setSuccessors(range.blocks[0], succs);
    maps[0].setSuccessors(range.blocks[1], {});
    maps[0].ranges.push_back(range);
    return maps;
}

TEST(BbAddrMap, V2RoundtripPreservesStaleMetadata)
{
    std::vector<FunctionAddrMap> maps = mapsWithStaleMetadata();
    auto got = decoded(encodeAddrMaps(maps, AddrMapVersion::V2));
    EXPECT_EQ(got, maps);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].functionHash, 0xfeedface12345678ull);
    const auto succs = got[0].successors(got[0].ranges[0].blocks[0]);
    EXPECT_EQ(std::vector<uint32_t>(succs.begin(), succs.end()),
              std::vector<uint32_t>{3});
}

TEST(BbAddrMap, V1RoundtripDropsStaleMetadata)
{
    std::vector<FunctionAddrMap> maps = mapsWithStaleMetadata();
    std::vector<uint8_t> bytes = encodeAddrMaps(maps, AddrMapVersion::V1);
    // v1 blobs are not allowed to start with the v2 escape byte.
    ASSERT_FALSE(bytes.empty());
    EXPECT_NE(bytes[0], 0u);

    std::vector<FunctionAddrMap> stripped = maps;
    stripped[0].functionHash = 0;
    stripped[0].succIds.clear();
    for (auto &range : stripped[0].ranges) {
        for (auto &block : range.blocks) {
            block.hash = 0;
            block.succBegin = 0;
            block.succCount = 0;
        }
    }
    EXPECT_EQ(decoded(bytes), stripped);
}

TEST(BbAddrMap, EmptyMapsRoundtripInBothVersions)
{
    for (auto version : {AddrMapVersion::V1, AddrMapVersion::V2}) {
        auto maps = decodeAddrMapsChecked(encodeAddrMaps({}, version));
        ASSERT_TRUE(maps.ok());
        EXPECT_TRUE(maps->empty());
    }
}

TEST(BbAddrMap, UnknownVersionRejected)
{
    std::vector<uint8_t> bytes;
    bytes.push_back(0x00); // v2 escape
    encodeUleb128(3, bytes); // version from the future
    encodeUleb128(0, bytes); // features
    encodeUleb128(0, bytes); // function count
    EXPECT_TRUE(rejected(bytes)) << "unknown versions must be a decode error";
}

TEST(BbAddrMap, UnknownFeatureBitsRejected)
{
    std::vector<uint8_t> bytes;
    bytes.push_back(0x00);
    encodeUleb128(2, bytes);
    encodeUleb128(kAddrMapKnownFeatures | 0x8, bytes);
    encodeUleb128(0, bytes);
    EXPECT_TRUE(rejected(bytes))
        << "unknown feature bits must be a decode error";
}

ObjectFile
sampleObject()
{
    ObjectFile obj;
    obj.name = "mod_0001.o";
    obj.sections.push_back(textSectionWithSites());
    Section handasm;
    handasm.name = ".text.h";
    handasm.type = SectionType::Text;
    handasm.isHandAsm = true;
    TextPiece blob;
    blob.bytes = {0x30, 0x31, 0x32};
    handasm.pieces.push_back(blob);
    obj.sections.push_back(handasm);

    obj.symbols.push_back({"f", 0, SymbolKind::Function, "f"});
    obj.symbols.push_back({"h", 1, SymbolKind::Function, "h"});

    Section bam;
    bam.name = ".bb_addr_map";
    bam.type = SectionType::BbAddrMap;
    bam.bytes = encodeAddrMaps(mapsWithStaleMetadata());
    obj.sections.push_back(bam);

    obj.frames.push_back({"f", 21, 3});
    obj.integrityCheckedFunctions.push_back("f");
    return obj;
}

TEST(Serialize, RoundtripPreservesEverything)
{
    ObjectFile obj = sampleObject();
    const std::vector<uint8_t> bytes = obj.serialize();
    ObjectFile copy = ObjectFile::deserialize(bytes);

    EXPECT_EQ(copy.name, obj.name);
    ASSERT_EQ(copy.sections.size(), obj.sections.size());
    EXPECT_EQ(copy.sections[0].name, obj.sections[0].name);
    EXPECT_EQ(copy.sections[0].size(), obj.sections[0].size());
    EXPECT_EQ(copy.sections[1].isHandAsm, true);
    ASSERT_EQ(copy.sections[0].pieces.size(), 2u);
    ASSERT_TRUE(copy.sections[0].pieces[0].block.has_value());
    EXPECT_EQ(copy.sections[0].pieces[0].block->bbId, 0u);
    ASSERT_TRUE(copy.sections[0].pieces[1].site.has_value());
    EXPECT_EQ(copy.sections[0].pieces[1].site->targetBb, 3u);
    EXPECT_EQ(copy.sections[0].pieces[1].site->bias, 77);
    ASSERT_EQ(copy.symbols.size(), 2u);
    EXPECT_EQ(copy.symbols[1].parentFunction, "h");
    ASSERT_EQ(copy.frames.size(), 1u);
    EXPECT_EQ(copy.frames[0].savedRegs, 3);
    EXPECT_EQ(copy.integrityCheckedFunctions, obj.integrityCheckedFunctions);

    // The address maps survive as the .bb_addr_map section's bytes...
    const int bam = obj.findSection(".bb_addr_map");
    ASSERT_GE(bam, 0);
    const std::vector<uint8_t> &maps = obj.sections[bam].bytes;
    EXPECT_EQ(copy.sections[bam].bytes, maps);
    EXPECT_EQ(decoded(copy.sections[bam].bytes), mapsWithStaleMetadata());

    // ...which are their only copy: dropping the section shrinks the
    // serialized object by the section's record (name, type, alignment,
    // hand-asm flag, length-prefixed bytes, empty piece list) alone.
    ObjectFile stripped = obj;
    stripped.sections.erase(stripped.sections.begin() + bam);
    const uint64_t record = uleb128Size(12) + 12 + 1 + 1 + 1 +
                            uleb128Size(maps.size()) + maps.size() + 1;
    EXPECT_EQ(bytes.size(), stripped.serialize().size() + record);
}

TEST(Serialize, ContentHashStableAndSensitive)
{
    ObjectFile obj = sampleObject();
    uint64_t h1 = obj.contentHash();
    EXPECT_EQ(h1, sampleObject().contentHash()) << "hash must be stable";
    obj.sections[0].pieces[0].bytes[0] ^= 1;
    EXPECT_NE(obj.contentHash(), h1) << "hash must see content changes";
}

TEST(Serialize, DeserializeOfSerializeIsFixpoint)
{
    ObjectFile obj = sampleObject();
    std::vector<uint8_t> once = obj.serialize();
    std::vector<uint8_t> twice = ObjectFile::deserialize(once).serialize();
    EXPECT_EQ(once, twice);
}

TEST(Serialize, LengthPastTheEndIsTruncation)
{
    // The magic, then a name whose length runs past the end: a short
    // overrun, and a length near 2^64 that would wrap a position-plus-
    // length bound into a read outside the buffer.
    const std::vector<uint8_t> valid = sampleObject().serialize();
    ByteReader in(valid);
    uint64_t magic = 0;
    ASSERT_TRUE(in.uleb(magic));
    for (uint64_t len : {uint64_t{100}, uint64_t{UINT64_MAX}}) {
        std::vector<uint8_t> hostile(valid.data(), in.p);
        encodeUleb128(len, hostile);
        hostile.insert(hostile.end(), {'a', 'b'});
        auto obj = ObjectFile::deserializeChecked(hostile);
        ASSERT_FALSE(obj.ok()) << len;
        EXPECT_EQ(obj.status().code(), support::ErrorCode::kMalformed);
        EXPECT_NE(obj.status().toString().find("truncated string"),
                  std::string::npos)
            << obj.status().toString();
    }
}

TEST(Serialize, HostileCountsRejected)
{
    // The magic and a name, then a section count no input could hold:
    // refused before anything is reserved from it.
    ObjectFile named;
    named.name = "x.o";
    std::vector<uint8_t> hostile = named.serialize();
    hostile.resize(hostile.size() - 5); // Drop the four counts and relocs.
    encodeUleb128(0xffffffffffffull, hostile);
    auto obj = ObjectFile::deserializeChecked(hostile);
    ASSERT_FALSE(obj.ok());
    EXPECT_NE(obj.status().toString().find("oversized section count"),
              std::string::npos)
        << obj.status().toString();
}

/**
 * The offset of the field @p set changes in sampleObject()'s bytes: the
 * first byte where the object before and after @p set differ.
 */
template <typename Set>
size_t
fieldOffset(Set set)
{
    const std::vector<uint8_t> before = sampleObject().serialize();
    ObjectFile changed = sampleObject();
    set(changed);
    const std::vector<uint8_t> after = changed.serialize();
    return static_cast<size_t>(
        std::mismatch(before.begin(), before.end(), after.begin(),
                      after.end())
            .first -
        before.begin());
}

/** Decoding @p bytes fails as kMalformed, naming @p what. */
void
expectMalformed(const std::vector<uint8_t> &bytes, const std::string &what)
{
    auto obj = ObjectFile::deserializeChecked(bytes);
    ASSERT_FALSE(obj.ok());
    EXPECT_EQ(obj.status().code(), support::ErrorCode::kMalformed);
    EXPECT_NE(obj.status().toString().find(what), std::string::npos)
        << obj.status().toString();
}

TEST(Serialize, BooleanBytesAreZeroOrOne)
{
    // The hand-asm flag, the block-mark and branch-site presence bytes
    // and the fall-through flag, each clear in sampleObject().
    const size_t offsets[] = {
        fieldOffset([](ObjectFile &o) { o.sections[0].isHandAsm = true; }),
        fieldOffset([](ObjectFile &o) {
            o.sections[1].pieces[0].block = BlockMark{};
        }),
        fieldOffset([](ObjectFile &o) {
            BranchSite &site = o.sections[1].pieces[0].site.emplace();
            site.op = isa::Opcode::JccNear;
        }),
        fieldOffset([](ObjectFile &o) {
            o.sections[0].pieces[1].site->isFallThrough = true;
        }),
    };
    const std::vector<uint8_t> valid = sampleObject().serialize();
    for (size_t at : offsets) {
        ASSERT_LT(at, valid.size());
        ASSERT_EQ(valid[at], 0) << "offset " << at;
        for (uint8_t b : {0x02, 0x04, 0x09, 0x81, 0xff}) {
            std::vector<uint8_t> bytes = valid;
            bytes[at] = b;
            SCOPED_TRACE("offset " + std::to_string(at) + " byte " +
                         std::to_string(b));
            expectMalformed(bytes, "flag byte is neither 0 nor 1");
        }
    }
}

TEST(Serialize, ThirtyTwoBitFieldOverflowRejected)
{
    // Each 32-bit ULEB128 field at its largest value, then at the
    // smallest wider ones.  UINT32_MAX and 2^32 both take five bytes.
    using Field = uint32_t &(*)(ObjectFile &);
    const Field fields[] = {
        [](ObjectFile &o) -> uint32_t & { return o.sections[0].alignment; },
        [](ObjectFile &o) -> uint32_t & {
            return o.sections[0].pieces[0].block->bbId;
        },
        [](ObjectFile &o) -> uint32_t & {
            return o.sections[0].pieces[1].site->branchId;
        },
        [](ObjectFile &o) -> uint32_t & {
            return o.sections[0].pieces[1].site->targetBb;
        },
        [](ObjectFile &o) -> uint32_t & { return o.symbols[1].sectionIndex; },
        [](ObjectFile &o) -> uint32_t & { return o.frames[0].codeLength; },
        [](ObjectFile &o) -> uint32_t & { return o.debugRelocs; },
    };
    for (Field field : fields) {
        ObjectFile widest = sampleObject();
        field(widest) = UINT32_MAX;
        const std::vector<uint8_t> valid = widest.serialize();
        auto round = ObjectFile::deserializeChecked(valid);
        ASSERT_TRUE(round.ok()) << round.status().toString();
        EXPECT_EQ(field(*round), UINT32_MAX);
        EXPECT_EQ(round->serialize(), valid);

        const size_t at =
            fieldOffset([&](ObjectFile &o) { field(o) = UINT32_MAX; });
        ASSERT_EQ(valid[at + 4], 0x0f) << "offset " << at;
        for (uint64_t wide : {uint64_t{1} << 32, (uint64_t{1} << 32) + 1,
                              uint64_t{UINT64_MAX}}) {
            std::vector<uint8_t> bytes(valid.begin(), valid.begin() + at);
            encodeUleb128(wide, bytes);
            bytes.insert(bytes.end(), valid.begin() + at + 5, valid.end());
            SCOPED_TRACE("offset " + std::to_string(at) + " value " +
                         std::to_string(wide));
            expectMalformed(bytes, "32-bit field out of range");
        }
    }
}

TEST(Serialize, NonMinimalUlebRejected)
{
    // The object's last field, debugRelocs = 0, re-encoded as 0x80 0x00:
    // the same value in a padded encoding serialize() never writes.
    // Accepting it would give one object two byte images.
    std::vector<uint8_t> bytes = sampleObject().serialize();
    ASSERT_EQ(sampleObject().debugRelocs, 0u);
    ASSERT_EQ(bytes.back(), 0x00);
    bytes.back() = 0x80;
    bytes.push_back(0x00);
    auto obj = ObjectFile::deserializeChecked(bytes);
    ASSERT_FALSE(obj.ok());
    EXPECT_EQ(obj.status().code(), support::ErrorCode::kMalformed);
}

TEST(ObjectFile, FindSection)
{
    ObjectFile obj = sampleObject();
    EXPECT_EQ(obj.findSection(".text.f"), 0);
    EXPECT_EQ(obj.findSection(".text.h"), 1);
    EXPECT_EQ(obj.findSection(".missing"), -1);
}

TEST(ObjectFile, SizeInBytesTracksContent)
{
    ObjectFile obj = sampleObject();
    uint64_t before = obj.sizeInBytes();
    Section ro;
    ro.name = ".rodata";
    ro.type = SectionType::RoData;
    ro.bytes.assign(1000, 0);
    obj.sections.push_back(ro);
    EXPECT_GT(obj.sizeInBytes(), before + 999);
}

} // namespace
} // namespace propeller::elf
