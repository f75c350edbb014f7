#include "elf/object.h"

#include <algorithm>
#include <limits>

#include "support/bytes.h"
#include "support/check.h"
#include "support/status.h"

/**
 * @file
 * Binary serialization of object files.
 *
 * The distributed build system (src/build) stores artifacts by content in
 * its cache; serializing object files for real keeps the cache honest (hits
 * require byte-identical artifacts) and gives Figure 6 exact sizes.
 */

namespace propeller::elf {

namespace {

/** Format magic: a layout change bumps it, so older objects are refused
 *  instead of misread. */
constexpr uint32_t kMagic = 0x0b1ec7f2;

/** The error for a ULEB128 field that runs off the end. */
constexpr const char *kTruncatedField = "truncated object file";

/** A run with a ULEB128 length in front: a length that runs off the end
 *  is the object's truncation, a body that does is @p what. */
template <typename Out>
const char *
readRun(ByteReader &in, Out &out, const char *what)
{
    uint64_t len = 0;
    std::span<const uint8_t> run;
    if (!in.uleb(len))
        return kTruncatedField;
    if (!in.bytes(len, run))
        return what;
    const auto *first =
        reinterpret_cast<const typename Out::value_type *>(run.data());
    out.assign(first, first + run.size());
    return nullptr;
}

/**
 * Decode the fields after the magic into @p obj, in serialize() order.
 * Returns the first failure's message, or an empty string.  A count
 * above the input's @p size is damage; reservations are bounded by the
 * bytes left.
 */
std::string
decodeFields(ByteReader &in, uint64_t size, ObjectFile &obj)
{
    const char *why = nullptr;
    auto str = [&](std::string &out) {
        why = readRun(in, out, "truncated string");
        return why == nullptr;
    };
    auto bytes = [&](std::vector<uint8_t> &out) {
        why = readRun(in, out, "truncated byte run");
        return why == nullptr;
    };
    auto u8 = [&](uint8_t &out) {
        if (!in.u8(out))
            why = "truncated byte";
        return why == nullptr;
    };
    // serialize() writes a flag as 0 or 1; any other byte is damage.
    auto flag = [&](bool &out) {
        uint8_t b = 0;
        if (!u8(b))
            return false;
        if (b > 1)
            why = "flag byte is neither 0 nor 1";
        out = b == 1;
        return why == nullptr;
    };
    auto u32 = [&](uint32_t &out) {
        uint64_t v = 0;
        if (!in.uleb(v))
            why = kTruncatedField;
        else if (v > std::numeric_limits<uint32_t>::max())
            why = "32-bit field out of range";
        else
            out = static_cast<uint32_t>(v);
        return why == nullptr;
    };
    auto count = [&](uint64_t &n, const char *oversized) {
        if (!in.uleb(n))
            why = kTruncatedField;
        else if (n > size)
            why = oversized;
        return why == nullptr;
    };

    uint64_t n_sections = 0;
    if (!str(obj.name) || !count(n_sections, "oversized section count"))
        return why;
    obj.sections.reserve(std::min(n_sections, in.left()));
    for (uint64_t i = 0; i < n_sections; ++i) {
        Section &sec = obj.sections.emplace_back();
        uint8_t type = 0;
        if (!str(sec.name) || !u8(type))
            return why;
        if (type > static_cast<uint8_t>(SectionType::Other))
            return "invalid section type " + std::to_string(type);
        sec.type = static_cast<SectionType>(type);
        uint64_t n_pieces = 0;
        if (!u32(sec.alignment) || !flag(sec.isHandAsm) ||
            !bytes(sec.bytes) || !count(n_pieces, "oversized piece count"))
            return why;
        sec.pieces.reserve(std::min(n_pieces, in.left()));
        for (uint64_t p = 0; p < n_pieces; ++p) {
            TextPiece &piece = sec.pieces.emplace_back();
            bool has_block = false;
            if (!flag(has_block))
                return why;
            if (has_block) {
                BlockMark &mark = piece.block.emplace();
                if (!u32(mark.bbId) || !u8(mark.flags))
                    return why;
            }
            bool has_site = false;
            if (!bytes(piece.bytes) || !flag(has_site))
                return why;
            if (!has_site)
                continue;
            BranchSite &bs = piece.site.emplace();
            uint8_t op = 0;
            if (!u8(op))
                return why;
            if (!isa::isValidOpcode(op))
                return "invalid branch-site opcode " + std::to_string(op);
            bs.op = static_cast<isa::Opcode>(op);
            if (!u8(bs.flags) || !u8(bs.bias) || !u32(bs.branchId) ||
                !str(bs.targetSymbol) || !u32(bs.targetBb) ||
                !flag(bs.isFallThrough))
                return why;
        }
    }

    uint64_t n_symbols = 0;
    if (!count(n_symbols, "oversized symbol count"))
        return why;
    obj.symbols.reserve(std::min(n_symbols, in.left()));
    for (uint64_t i = 0; i < n_symbols; ++i) {
        Symbol &sym = obj.symbols.emplace_back();
        uint8_t kind = 0;
        if (!str(sym.name) || !u32(sym.sectionIndex) || !u8(kind))
            return why;
        if (kind > static_cast<uint8_t>(SymbolKind::Cluster))
            return "invalid symbol kind " + std::to_string(kind);
        sym.kind = static_cast<SymbolKind>(kind);
        if (!str(sym.parentFunction))
            return why;
    }

    uint64_t n_frames = 0;
    if (!count(n_frames, "oversized frame count"))
        return why;
    obj.frames.reserve(std::min(n_frames, in.left()));
    for (uint64_t i = 0; i < n_frames; ++i) {
        FrameDescriptor &fde = obj.frames.emplace_back();
        if (!str(fde.sectionSymbol) || !u32(fde.codeLength) ||
            !u8(fde.savedRegs))
            return why;
    }

    uint64_t n_checks = 0;
    if (!count(n_checks, "oversized integrity-check count"))
        return why;
    for (uint64_t i = 0; i < n_checks; ++i)
        if (!str(obj.integrityCheckedFunctions.emplace_back()))
            return why;

    if (!u32(obj.debugRelocs))
        return why;
    return {};
}

} // namespace

std::vector<uint8_t>
ObjectFile::serialize() const
{
    std::vector<uint8_t> out;
    encodeUleb128(kMagic, out);
    putString(name, out);

    encodeUleb128(sections.size(), out);
    for (const auto &sec : sections) {
        putString(sec.name, out);
        out.push_back(static_cast<uint8_t>(sec.type));
        encodeUleb128(sec.alignment, out);
        out.push_back(sec.isHandAsm ? 1 : 0);
        putBytes(sec.bytes, out);
        encodeUleb128(sec.pieces.size(), out);
        for (const auto &piece : sec.pieces) {
            out.push_back(piece.block ? 1 : 0);
            if (piece.block) {
                encodeUleb128(piece.block->bbId, out);
                out.push_back(piece.block->flags);
            }
            putBytes(piece.bytes, out);
            out.push_back(piece.site ? 1 : 0);
            if (piece.site) {
                const BranchSite &bs = *piece.site;
                out.push_back(static_cast<uint8_t>(bs.op));
                out.push_back(bs.flags);
                out.push_back(bs.bias);
                encodeUleb128(bs.branchId, out);
                putString(bs.targetSymbol, out);
                encodeUleb128(bs.targetBb, out);
                out.push_back(bs.isFallThrough ? 1 : 0);
            }
        }
    }

    encodeUleb128(symbols.size(), out);
    for (const auto &sym : symbols) {
        putString(sym.name, out);
        encodeUleb128(sym.sectionIndex, out);
        out.push_back(static_cast<uint8_t>(sym.kind));
        putString(sym.parentFunction, out);
    }

    encodeUleb128(frames.size(), out);
    for (const auto &fde : frames) {
        putString(fde.sectionSymbol, out);
        encodeUleb128(fde.codeLength, out);
        out.push_back(fde.savedRegs);
    }

    encodeUleb128(integrityCheckedFunctions.size(), out);
    for (const auto &fn : integrityCheckedFunctions)
        putString(fn, out);

    encodeUleb128(debugRelocs, out);
    return out;
}

support::StatusOr<ObjectFile>
ObjectFile::deserializeChecked(const std::vector<uint8_t> &data)
{
    using support::ErrorCode;
    using support::makeError;

    ByteReader in(data);
    uint64_t magic = 0;
    if (!in.uleb(magic))
        return makeError(ErrorCode::kTruncated, kTruncatedField);
    if (magic != kMagic)
        return makeError(ErrorCode::kMalformed, "bad object file magic");

    ObjectFile obj;
    std::string why = decodeFields(in, data.size(), obj);
    if (why.empty() && !in.done())
        why = "trailing bytes in object file";
    if (!why.empty())
        return makeError(ErrorCode::kMalformed, why)
            .withContext("object " + obj.name);
    return obj;
}

ObjectFile
ObjectFile::deserialize(const std::vector<uint8_t> &data)
{
    auto obj = deserializeChecked(data);
    PROPELLER_CHECK(obj.ok(), "bad object file");
    return std::move(obj).value();
}

} // namespace propeller::elf
