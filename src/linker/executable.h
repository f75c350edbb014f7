#ifndef PROPELLER_LINKER_EXECUTABLE_H
#define PROPELLER_LINKER_EXECUTABLE_H

/**
 * @file
 * The linked executable image.
 *
 * Substitute for a fully linked x86-64 ELF binary.  Carries everything the
 * downstream consumers need:
 *
 *  - the machine simulator executes @ref Executable::text;
 *  - the Phase 3 whole-program analysis consumes @ref Executable::bbAddrMap
 *    (absolute-address form of the .bb_addr_map metadata);
 *  - BOLT discovers functions from @ref Executable::symbols and
 *    disassembles @ref Executable::text;
 *  - the Figure 6 bench reads @ref Executable::sizes.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace propeller::linker {

/** Final address range of one text-section symbol. */
struct FuncRange
{
    std::string name;           ///< Symbol (function or cluster).
    std::string parentFunction; ///< Owning function.
    uint64_t start = 0;
    uint64_t end = 0;
    bool isPrimary = false; ///< Function entry symbol vs. extra cluster.
    bool isHandAsm = false; ///< Hand-written assembly (unreliable disasm).
};

/** One machine basic block at its final address. */
struct ExecBlock
{
    uint32_t bbId = 0;
    uint64_t address = 0;
    uint32_t size = 0;
    uint8_t flags = 0; ///< elf::BbFlags.

    /** Stable fingerprint from the v2 address map (0 if v1 metadata). */
    uint64_t hash = 0;

    /**
     * Static successor block ids from the v2 address map: a slice of the
     * owning ExecFuncMap::succIds, read through
     * ExecFuncMap::successors().
     */
    uint32_t succBegin = 0;
    uint32_t succCount = 0;
};

/** Absolute-address BB map for one function. */
struct ExecFuncMap
{
    std::string function;
    std::vector<ExecBlock> blocks;

    /** Whole-function fingerprint from the v2 address map (0 if v1). */
    uint64_t functionHash = 0;

    /** Successor ids of every block, stored once, in block order. */
    std::vector<uint32_t> succIds;

    /** Static successor block ids of @p block, one of this map's. */
    std::span<const uint32_t>
    successors(const ExecBlock &block) const
    {
        return {succIds.data() + block.succBegin, block.succCount};
    }

    /** Append @p block with @p succs as its successor list. */
    void
    addBlock(ExecBlock block, std::span<const uint32_t> succs)
    {
        block.succBegin = static_cast<uint32_t>(succIds.size());
        block.succCount = static_cast<uint32_t>(succs.size());
        succIds.insert(succIds.end(), succs.begin(), succs.end());
        blocks.push_back(block);
    }
};

/**
 * Final address range covered by one .eh_frame FDE.
 *
 * FrameDescriptor::codeLength is stamped at codegen time, *before* the
 * linker's branch relaxation shrinks sections — so the authoritative
 * unwind coverage must be re-derived at link time from the final section
 * layout.  The static verifier (src/analysis) requires every text symbol
 * range to be covered exactly; a gap here is the paper's section 2.2
 * failure mode (C++ exceptions unwinding through moved code).
 */
struct FrameCoverage
{
    std::string sectionSymbol;
    uint64_t start = 0;
    uint64_t end = 0;
};

/**
 * Startup code-integrity check (FIPS-140-2 analogue, paper section 5.8).
 *
 * The expected hash is application data baked in at (re)link time; the
 * machine hashes the function's current primary-range bytes at startup and
 * refuses to run on mismatch.  Binary rewriters that move code without
 * being able to regenerate this application constant produce binaries that
 * crash at startup — the failure mode the paper reports for BOLT on three
 * of four warehouse-scale applications.
 */
struct IntegrityCheck
{
    std::string function;
    uint64_t expectedHash = 0;
};

/** Final binary size breakdown, one bucket per Figure 6 component. */
struct SectionSizes
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
};

/** A linked (or post-link-rewritten) binary. */
struct Executable
{
    std::string name;

    uint64_t textBase = 0;
    uint64_t entryAddress = 0;
    std::vector<uint8_t> text; ///< Code image starting at textBase.

    /**
     * Binary identity: content hash of the linked text plus the section
     * layout (every symbol's name and address range).  Stamped into the
     * Profile header by the profiler so Phase 3 can detect that a profile
     * was collected on a *different* build and must go through the stale
     * matcher instead of the address-based fast path.
     */
    uint64_t identityHash = 0;

    /** Text is mapped on 2 MiB huge pages (affects the iTLB model). */
    bool hugePagesText = false;

    std::vector<FuncRange> symbols;
    std::vector<ExecFuncMap> bbAddrMap;
    std::vector<IntegrityCheck> integrityChecks;

    /**
     * Unwind coverage per text section, in layout order (final
     * addresses; see FrameCoverage).  Empty for rewritten binaries that
     * do not regenerate unwind metadata (e.g. the BOLT path).
     */
    std::vector<FrameCoverage> frames;

    SectionSizes sizes;

    /** End address of the text image. */
    uint64_t textEnd() const { return textBase + text.size(); }

    /** Whether @p addr lies inside the text image. */
    bool
    containsText(uint64_t addr) const
    {
        return addr >= textBase && addr < textEnd();
    }

    /** Look up a symbol range by name; nullptr if absent. */
    const FuncRange *findSymbol(const std::string &name) const;

    /** Total on-disk size (headers + all sections). */
    uint64_t fileSize() const { return 4096 + sizes.total(); }
};

} // namespace propeller::linker

#endif // PROPELLER_LINKER_EXECUTABLE_H
