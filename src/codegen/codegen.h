#ifndef PROPELLER_CODEGEN_CODEGEN_H
#define PROPELLER_CODEGEN_CODEGEN_H

/**
 * @file
 * The compiler backend: lowers IR modules to relocatable object files.
 *
 * Substitute for the LLVM backend of the paper's Phases 2 and 4.  The
 * backend implements:
 *
 *  - function sections (one text section per function);
 *  - **basic block sections** (paper section 4): one text section per basic
 *    block cluster, driven by per-function cluster directives computed by
 *    the whole-program analysis (cc_prof); primary cluster keeps the
 *    function symbol, the cold cluster gets a ".cold" suffix, further
 *    clusters numeric suffixes;
 *  - explicit fall-through jumps between sections with relocations, so the
 *    linker can reorder sections and later relax away redundant jumps
 *    (paper section 4.2);
 *  - BB address map metadata (paper section 3.2);
 *  - per-fragment CFI frame descriptors (paper section 4.4) and the
 *    landing-pad nop rule (paper section 4.5).
 *
 * The backend never chooses final branch encodings: every branch or call is
 * emitted as a *branch site* and the linker's unified relaxation pass picks
 * short/near forms and deletes dead fall-through jumps.  Codegen is a pure
 * function of (module, options), which is what makes its outputs cacheable
 * by content in the distributed build system.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "elf/object.h"
#include "ir/ir.h"

namespace propeller::codegen {

/**
 * Basic block cluster layout for one function (one line-set of
 * cc_prof.txt).  Each inner vector is an ordered cluster of block ids; the
 * first cluster is primary and must start with the entry block.  Every
 * block of the function must appear exactly once.
 */
struct ClusterSpec
{
    std::vector<std::vector<uint32_t>> clusters;

    /**
     * Index of the cold cluster within @ref clusters (gets the ".cold"
     * symbol suffix), or -1 if no cluster is cold.
     */
    int coldIndex = -1;
};

/** Per-function cluster directives, keyed by function name. */
using ClusterMap = std::map<std::string, ClusterSpec>;

/**
 * Drop cluster specs that fail validation against @p program: specs
 * naming unknown functions or blocks, not covering every block exactly
 * once, not leading with the entry block, or carrying an out-of-range
 * cold index.  Codegen treats these as producer-bug invariants and
 * aborts on them; sanitizing first turns a corrupt WPA directive into a
 * per-function fallback (original block order) instead.
 *
 * @return names of dropped functions, in map order.
 */
std::vector<std::string> sanitizeClusterMap(const ir::Program &program,
                                            ClusterMap &clusters);

/** How text sections are formed. */
enum class BbSectionsMode : uint8_t {
    /** One section per function, blocks in original order (baseline). */
    None,
    /** One section per basic block (the section 4.1 worst case). */
    All,
    /** Sections follow per-function ClusterSpec directives (Propeller). */
    Clusters,
};

/** Backend options. */
struct Options
{
    BbSectionsMode bbSections = BbSectionsMode::None;

    /**
     * Cluster directives for BbSectionsMode::Clusters.  Functions without
     * an entry are emitted as a single section in original order.
     */
    const ClusterMap *clusters = nullptr;

    /**
     * Emit the encoded .bb_addr_map section (Phase 2 metadata builds):
     * the object's only copy of its address maps, which the linker and
     * every other reader decode.
     */
    bool emitAddrMapSection = false;

    /**
     * Emit DWARF-like debug information (paper section 4.3): a .debug
     * section with DW_AT_ranges descriptors per code fragment, plus the
     * debug relocations that make --emit-relocs metadata binaries of
     * debug builds enormous (section 5.3).
     */
    bool emitDebugInfo = false;
};

/** Compile one module to an object file. */
elf::ObjectFile compileModule(const ir::Module &mod, const Options &opts);

/** Compile every module of a program. */
std::vector<elf::ObjectFile> compileProgram(const ir::Program &program,
                                            const Options &opts);

/** Section symbol name for cluster @p index of function @p fn. */
std::string clusterSymbolName(const std::string &fn, size_t index,
                              bool is_cold);

} // namespace propeller::codegen

#endif // PROPELLER_CODEGEN_CODEGEN_H
