#include "elf/object.h"
#include "support/check.h"
#include "support/leb128.h"
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

void
putString(const std::string &s, std::vector<uint8_t> &out)
{
    encodeUleb128(s.size(), out);
    out.insert(out.end(), s.begin(), s.end());
}

void
putBytes(const std::vector<uint8_t> &b, std::vector<uint8_t> &out)
{
    encodeUleb128(b.size(), out);
    out.insert(out.end(), b.begin(), b.end());
}

void
putU64(uint64_t v, std::vector<uint8_t> &out)
{
    encodeUleb128(v, out);
}

/**
 * Streaming reader over a byte vector.
 *
 * Malformed input latches an error instead of asserting; once failed,
 * every accessor returns a benign default so the decode loop can bail at
 * the next checkpoint without undefined behavior.
 */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &data) : data_(data) {}

    uint64_t
    u64()
    {
        if (failed())
            return 0;
        auto v = decodeUleb128(data_, pos_);
        if (!v) {
            fail("truncated object file");
            return 0;
        }
        return *v;
    }

    /** u64 bounded by the payload size (guards reserve() calls). */
    uint64_t
    count(const char *what)
    {
        uint64_t n = u64();
        if (!failed() && n > data_.size()) {
            fail(what);
            return 0;
        }
        return n;
    }

    std::string
    str()
    {
        uint64_t len = u64();
        if (failed() || pos_ + len > data_.size()) {
            fail("truncated string");
            return {};
        }
        std::string s(data_.begin() + pos_, data_.begin() + pos_ + len);
        pos_ += len;
        return s;
    }

    std::vector<uint8_t>
    bytes()
    {
        uint64_t len = u64();
        if (failed() || pos_ + len > data_.size()) {
            fail("truncated byte run");
            return {};
        }
        std::vector<uint8_t> b(data_.begin() + pos_,
                               data_.begin() + pos_ + len);
        pos_ += len;
        return b;
    }

    uint8_t
    u8()
    {
        if (failed())
            return 0;
        if (pos_ >= data_.size()) {
            fail("truncated byte");
            return 0;
        }
        return data_[pos_++];
    }

    void
    fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
        }
    }

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    bool done() const { return failed_ || pos_ == data_.size(); }

  private:
    const std::vector<uint8_t> &data_;
    size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace

std::vector<uint8_t>
ObjectFile::serialize() const
{
    std::vector<uint8_t> out;
    putU64(kMagic, out);
    putString(name, out);

    putU64(sections.size(), out);
    for (const auto &sec : sections) {
        putString(sec.name, out);
        out.push_back(static_cast<uint8_t>(sec.type));
        putU64(sec.alignment, out);
        out.push_back(sec.isHandAsm ? 1 : 0);
        putBytes(sec.bytes, out);
        putU64(sec.pieces.size(), out);
        for (const auto &piece : sec.pieces) {
            out.push_back(piece.block ? 1 : 0);
            if (piece.block) {
                putU64(piece.block->bbId, out);
                out.push_back(piece.block->flags);
            }
            putBytes(piece.bytes, out);
            out.push_back(piece.site ? 1 : 0);
            if (piece.site) {
                const BranchSite &bs = *piece.site;
                out.push_back(static_cast<uint8_t>(bs.op));
                out.push_back(bs.flags);
                out.push_back(bs.bias);
                putU64(bs.branchId, out);
                putString(bs.targetSymbol, out);
                putU64(bs.targetBb, out);
                out.push_back(bs.isFallThrough ? 1 : 0);
            }
        }
    }

    putU64(symbols.size(), out);
    for (const auto &sym : symbols) {
        putString(sym.name, out);
        putU64(sym.sectionIndex, out);
        out.push_back(static_cast<uint8_t>(sym.kind));
        putString(sym.parentFunction, out);
    }

    putU64(frames.size(), out);
    for (const auto &fde : frames) {
        putString(fde.sectionSymbol, out);
        putU64(fde.codeLength, out);
        out.push_back(fde.savedRegs);
    }

    putU64(integrityCheckedFunctions.size(), out);
    for (const auto &fn : integrityCheckedFunctions)
        putString(fn, out);

    putU64(debugRelocs, out);
    return out;
}

support::StatusOr<ObjectFile>
ObjectFile::deserializeChecked(const std::vector<uint8_t> &data)
{
    using support::ErrorCode;
    using support::makeError;

    Reader r(data);
    uint64_t magic = r.u64();
    if (r.failed())
        return makeError(ErrorCode::kTruncated, r.error());
    if (magic != kMagic)
        return makeError(ErrorCode::kMalformed, "bad object file magic");

    ObjectFile obj;
    obj.name = r.str();

    uint64_t n_sections = r.count("oversized section count");
    obj.sections.reserve(n_sections);
    for (uint64_t i = 0; i < n_sections && !r.failed(); ++i) {
        Section sec;
        sec.name = r.str();
        uint8_t type = r.u8();
        if (type > static_cast<uint8_t>(SectionType::Other)) {
            r.fail("invalid section type " + std::to_string(type));
            break;
        }
        sec.type = static_cast<SectionType>(type);
        sec.alignment = static_cast<uint32_t>(r.u64());
        sec.isHandAsm = r.u8() != 0;
        sec.bytes = r.bytes();
        uint64_t n_pieces = r.count("oversized piece count");
        sec.pieces.reserve(n_pieces);
        for (uint64_t p = 0; p < n_pieces && !r.failed(); ++p) {
            TextPiece piece;
            if (r.u8()) {
                BlockMark mark;
                mark.bbId = static_cast<uint32_t>(r.u64());
                mark.flags = r.u8();
                piece.block = mark;
            }
            piece.bytes = r.bytes();
            if (r.u8()) {
                BranchSite bs;
                uint8_t op = r.u8();
                if (!r.failed() && !isa::isValidOpcode(op)) {
                    r.fail("invalid branch-site opcode " +
                           std::to_string(op));
                    break;
                }
                bs.op = static_cast<isa::Opcode>(op);
                bs.flags = r.u8();
                bs.bias = r.u8();
                bs.branchId = static_cast<uint32_t>(r.u64());
                bs.targetSymbol = r.str();
                bs.targetBb = static_cast<uint32_t>(r.u64());
                bs.isFallThrough = r.u8() != 0;
                piece.site = std::move(bs);
            }
            sec.pieces.push_back(std::move(piece));
        }
        obj.sections.push_back(std::move(sec));
    }

    uint64_t n_symbols = r.count("oversized symbol count");
    obj.symbols.reserve(n_symbols);
    for (uint64_t i = 0; i < n_symbols && !r.failed(); ++i) {
        Symbol sym;
        sym.name = r.str();
        sym.sectionIndex = static_cast<uint32_t>(r.u64());
        uint8_t kind = r.u8();
        if (!r.failed() && kind > static_cast<uint8_t>(SymbolKind::Cluster)) {
            r.fail("invalid symbol kind " + std::to_string(kind));
            break;
        }
        sym.kind = static_cast<SymbolKind>(kind);
        sym.parentFunction = r.str();
        obj.symbols.push_back(std::move(sym));
    }

    uint64_t n_frames = r.count("oversized frame count");
    obj.frames.reserve(n_frames);
    for (uint64_t i = 0; i < n_frames && !r.failed(); ++i) {
        FrameDescriptor fde;
        fde.sectionSymbol = r.str();
        fde.codeLength = static_cast<uint32_t>(r.u64());
        fde.savedRegs = r.u8();
        obj.frames.push_back(std::move(fde));
    }

    uint64_t n_checks = r.count("oversized integrity-check count");
    for (uint64_t i = 0; i < n_checks && !r.failed(); ++i)
        obj.integrityCheckedFunctions.push_back(r.str());

    obj.debugRelocs = static_cast<uint32_t>(r.u64());
    if (r.failed())
        return makeError(ErrorCode::kMalformed, r.error())
            .withContext("object " + obj.name);
    if (!r.done())
        return makeError(ErrorCode::kMalformed,
                         "trailing bytes in object file")
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
