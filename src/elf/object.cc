#include "elf/object.h"

#include "support/hash.h"

namespace propeller::elf {

namespace {

/** A text section's byte size and branch-site count. */
struct TextExtent
{
    uint64_t bytes = 0;
    uint32_t sites = 0;
};

/** Measure a text section in one walk over its pieces. */
TextExtent
textExtent(const Section &sec)
{
    TextExtent e;
    e.bytes = sec.bytes.size();
    for (const auto &piece : sec.pieces) {
        e.bytes += piece.bytes.size();
        if (piece.site) {
            e.bytes += isa::Instruction::sizeOf(piece.site->op);
            ++e.sites;
        }
    }
    return e;
}

} // namespace

uint64_t
Section::size() const
{
    if (type != SectionType::Text)
        return bytes.size();
    return textExtent(*this).bytes;
}

uint32_t
Section::relocationCount() const
{
    return textExtent(*this).sites;
}

int
ObjectFile::findSection(const std::string &name) const
{
    for (size_t i = 0; i < sections.size(); ++i) {
        if (sections[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

ObjectFile::SizeBreakdown &
ObjectFile::SizeBreakdown::operator+=(const SizeBreakdown &rhs)
{
    text += rhs.text;
    ehFrame += rhs.ehFrame;
    bbAddrMap += rhs.bbAddrMap;
    relocs += rhs.relocs;
    debug += rhs.debug;
    other += rhs.other;
    return *this;
}

ObjectFile::SizeBreakdown
ObjectFile::sizeBreakdown() const
{
    SizeBreakdown b;
    for (const auto &sec : sections) {
        switch (sec.type) {
          case SectionType::Text: {
            const TextExtent e = textExtent(sec);
            b.text += e.bytes;
            b.relocs += e.sites * kRelaEntrySize;
            break;
          }
          case SectionType::EhFrame:
            b.ehFrame += sec.size();
            break;
          case SectionType::BbAddrMap:
            b.bbAddrMap += sec.size();
            break;
          case SectionType::Debug:
            b.debug += sec.size();
            break;
          case SectionType::RoData:
          case SectionType::Other:
            b.other += sec.size();
            break;
        }
    }
    b.relocs += debugRelocs * kRelaEntrySize;
    // Frame descriptors not yet flattened into an .eh_frame section still
    // count toward the frame bucket.
    if (b.ehFrame == 0) {
        for (const auto &fde : frames)
            b.ehFrame += fde.byteSize();
    }
    return b;
}

uint64_t
ObjectFile::sizeInBytes() const
{
    // Header + section headers + symbol table + contents; mirrors the
    // serialized form without materializing it.
    uint64_t n = 64;
    SizeBreakdown b = sizeBreakdown();
    n += b.total();
    n += sections.size() * 64; // Section headers.
    n += symbols.size() * 24;  // Symbol table entries.
    for (const auto &sym : symbols)
        n += sym.name.size() + 1; // String table.
    return n;
}

uint64_t
ObjectFile::contentHash() const
{
    return fnv1a(serialize());
}

} // namespace propeller::elf
