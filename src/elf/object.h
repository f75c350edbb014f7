#ifndef PROPELLER_ELF_OBJECT_H
#define PROPELLER_ELF_OBJECT_H

/**
 * @file
 * The relocatable object file format.
 *
 * Substitute for x86-64 ELF relocatable objects.  A section is "a
 * contiguous range of bytes ... that the linker operates on as a single
 * unit" (paper section 4); this format supports function sections and the
 * paper's novel *basic block sections*, where one or more basic blocks of a
 * single function form their own text section with a symbol the linker can
 * order.
 *
 * Text sections are stored as a sequence of pieces: raw byte runs
 * interleaved with *branch sites*.  A branch site is a branch or call whose
 * target lives in another section, so its displacement is deferred to the
 * linker via a relocation (paper section 4.2).  The bespoke relaxation pass
 * operates purely on branch sites — no instruction is ever disassembled by
 * the linker, which is the property that distinguishes Propeller from
 * disassembly-driven optimizers.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "elf/bb_addr_map.h"
#include "isa/isa.h"

namespace propeller::elf {

/** Section types; determines linker treatment and Figure 6 bucketing. */
enum class SectionType : uint8_t {
    Text,      ///< Executable code.
    RoData,    ///< Read-only data (sizes only; not executed).
    BbAddrMap, ///< Basic block address map metadata (not loaded).
    EhFrame,   ///< Call frame information.
    Debug,     ///< DWARF-like debug information (not loaded).
    Other,     ///< Anything else (string tables etc.).
};

/**
 * A branch or call whose displacement the linker must resolve.
 *
 * In real ELF this is a static relocation plus the linker-relaxation
 * annotations of the paper's section 4.2; we keep the decoded form so the
 * relaxation pass can delete fall-through jumps and shrink displacements
 * without disassembling anything.
 */
struct BranchSite
{
    /** Emitted opcode; JmpNear / JccNear / Call (pre-relaxation forms). */
    isa::Opcode op = isa::Opcode::JmpNear;

    uint8_t flags = 0;     ///< Jcc flags (invert bit).
    uint8_t bias = 0;      ///< Jcc bias.
    uint32_t branchId = 0; ///< Jcc layout-invariant id.

    /** Name of the target section symbol (function or cluster). */
    std::string targetSymbol;

    /**
     * Id of the target basic block within the target section, or
     * kSectionStart to target the beginning of the section (calls).
     */
    uint32_t targetBb = 0;

    /**
     * This site is an unconditional jump to the fall-through successor
     * block (made explicit per paper section 4.2).  If the linker's final
     * layout places the target immediately after this instruction, the
     * relaxation pass deletes the jump entirely.
     */
    bool isFallThrough = false;
};

/** BranchSite::targetBb value meaning "start of the target section". */
constexpr uint32_t kSectionStart = 0xffffffff;

/** Marks the piece as the start of a machine basic block. */
struct BlockMark
{
    uint32_t bbId = 0;
    uint8_t flags = 0; ///< BbFlags.
};

/**
 * A run of literal bytes optionally preceded by a block boundary and
 * optionally terminated by one branch site.
 */
struct TextPiece
{
    std::optional<BlockMark> block;
    std::vector<uint8_t> bytes;
    std::optional<BranchSite> site;
};

/**
 * A call-frame-information frame descriptor entry (FDE).
 *
 * Per paper section 4.4, every contiguous fragment of a function needs its
 * own FDE re-establishing the CFA and callee-saved register rules, which is
 * why unclustered one-section-per-block layouts blow up .eh_frame.
 */
struct FrameDescriptor
{
    std::string sectionSymbol; ///< The code fragment this FDE covers.
    uint32_t codeLength = 0;
    uint8_t savedRegs = 0; ///< Callee-saved registers to re-describe.

    /** Encoded size: FDE header + CFA redefinition + per-register rules. */
    uint32_t
    byteSize() const
    {
        return 24 + 8 + 2u * savedRegs;
    }
};

/** One section of an object file. */
struct Section
{
    std::string name;
    SectionType type = SectionType::Text;
    uint32_t alignment = 1;

    /** Raw contents for non-text sections (and encoded metadata). */
    std::vector<uint8_t> bytes;

    /** Structured contents for text sections. */
    std::vector<TextPiece> pieces;

    /**
     * Text sections that are hand-written assembly (paper section 5.8)
     * carry embedded data; disassembly of them is unreliable.
     */
    bool isHandAsm = false;

    /** Total byte size of the section's contents. */
    uint64_t size() const;

    /** Number of branch sites (== static relocations) in this section. */
    uint32_t relocationCount() const;
};

/** Symbol kinds. */
enum class SymbolKind : uint8_t {
    Function, ///< Primary function entry symbol.
    Cluster,  ///< Additional basic-block-cluster symbol (.cold / .N).
};

/**
 * A linker symbol.  Symbols always label the start of a section in this
 * format (function sections / basic block sections), which is exactly the
 * granularity the symbol ordering file manipulates.
 */
struct Symbol
{
    std::string name;
    uint32_t sectionIndex = 0;
    SymbolKind kind = SymbolKind::Function;

    /**
     * Name of the function this symbol belongs to (equal to name for the
     * primary cluster).  Used for Figure 6 accounting and BOLT's function
     * discovery.
     */
    std::string parentFunction;
};

/** A relocatable object file: the unit of build-cache reuse. */
struct ObjectFile
{
    std::string name; ///< e.g. "mod_001.o".

    /**
     * Sections, including the encoded .bb_addr_map when codegen was asked
     * for one: the object's only copy of its address maps.
     */
    std::vector<Section> sections;
    std::vector<Symbol> symbols;

    /** CFI frame descriptors, one or more per text section. */
    std::vector<FrameDescriptor> frames;

    /**
     * Functions in this object requiring startup integrity checks
     * (FIPS-140-2 analogue; see paper section 5.8).
     */
    std::vector<std::string> integrityCheckedFunctions;

    /**
     * Relocations carried by non-text sections (DW_AT_ranges endpoints
     * and debug type references, paper section 4.3).  Counted into the
     * .rela bucket when the binary is linked with --emit-relocs; these
     * are what make BOLT metadata binaries of debug builds enormous
     * (section 5.3: up to 43% of a debug Clang).
     */
    uint32_t debugRelocs = 0;

    /** Find the index of a section by name; -1 if absent. */
    int findSection(const std::string &name) const;

    /** Aggregate sizes per Figure 6 bucket. */
    struct SizeBreakdown
    {
        uint64_t text = 0;
        uint64_t ehFrame = 0;
        uint64_t bbAddrMap = 0;
        uint64_t relocs = 0;
        uint64_t debug = 0;
        uint64_t other = 0;

        uint64_t
        total() const
        {
            return text + ehFrame + bbAddrMap + relocs + debug + other;
        }

        SizeBreakdown &operator+=(const SizeBreakdown &rhs);
    };

    SizeBreakdown sizeBreakdown() const;

    /** Serialized size in bytes (what the build cache stores). */
    uint64_t sizeInBytes() const;

    /** Serialize to bytes for the content-addressed build cache. */
    std::vector<uint8_t> serialize() const;

    /** Inverse of serialize(); corruption is a typed error. */
    static support::StatusOr<ObjectFile>
    deserializeChecked(const std::vector<uint8_t> &data);

    /** Inverse of serialize(); aborts on malformed input. */
    static ObjectFile deserialize(const std::vector<uint8_t> &data);

    /** Content hash for cache keys. */
    uint64_t contentHash() const;
};

/** Size of one .rela entry, matching ELF64 (24 bytes). */
constexpr uint64_t kRelaEntrySize = 24;

} // namespace propeller::elf

#endif // PROPELLER_ELF_OBJECT_H
