#ifndef PROPELLER_PROPELLER_LAYOUT_H
#define PROPELLER_PROPELLER_LAYOUT_H

/**
 * @file
 * Code layout computation: turns the whole-program DCFG into per-function
 * basic block cluster directives (cc_prof) and a global symbol order
 * (ld_prof).
 *
 * Two strategies, as in the paper:
 *
 *  - **intra-procedural** (section 3.3/4.6, the mode evaluated in the
 *    paper): Ext-TSP orders each function's hot blocks independently; cold
 *    blocks split into a ".cold" cluster; the global order is C3/hfsort
 *    over hot function primary sections, cold clusters drift to the end;
 *
 *  - **inter-procedural** (section 4.7): Ext-TSP runs once over the whole
 *    program graph including call edges; the resulting global chain is cut
 *    into per-function section runs, which lets a multi-modal function be
 *    split around its callees.
 */

#include <memory>
#include <string>
#include <vector>

#include "propeller/addr_map_index.h"
#include "propeller/dcfg.h"
#include "propeller/directives.h"
#include "propeller/ext_tsp.h"

namespace propeller::core {

/** Layout strategy options. */
struct LayoutOptions
{
    /** Extract cold blocks into ".cold" clusters (paper section 4.6). */
    bool splitFunctions = true;

    /** Use inter-procedural layout (section 4.7). */
    bool interProcedural = false;

    /**
     * Inter-procedural only: fold non-primary section runs shorter than
     * this many blocks back into the primary (splitting is only worth a
     * section "when profitable", section 3.4).  Set to 1 to keep every
     * run.
     */
    uint32_t interProcMinRunBlocks = 3;

    /** Reorder hot blocks with Ext-TSP (off = keep original order). */
    bool reorderBlocks = true;

    /**
     * Solver knobs, including the full-scan reference retrieval
     * (ExtTspOptions::referenceSolver) that tests hold the lazy heap to.
     *
     * Note there is deliberately no thread knob here: concurrency is
     * owned by the scheduler/workflow layer (`WorkloadConfig::jobs`,
     * CLI `--jobs`) and passed as an explicit `jobs` argument to the
     * entry points below, so one setting governs every parallel stage.
     */
    ExtTspOptions extTsp;
};

/** Result of layout computation. */
struct LayoutResult
{
    CcProfile ccProf;
    LdProfile ldProf;

    /** Functions whose objects must be re-generated in Phase 4. */
    std::vector<std::string> hotFunctions;

    /** Aggregate Ext-TSP statistics. */
    ExtTspStats extTspStats;
};

/** Per-function product of the intra-procedural layout loop. */
struct FunctionLayout
{
    codegen::ClusterSpec spec;
    ExtTspStats stats;
};

/**
 * Fingerprint of every LayoutOptions field that can change a
 * per-function layout (doubles folded by bit pattern).  Part of the
 * layout memoization cache key: two runs with the same CFG, counts and
 * fingerprint must produce the same FunctionLayout.
 */
uint64_t layoutOptionsFingerprint(const LayoutOptions &opts);

/**
 * The layout-memoization cache key's function leg: name, the target's
 * whole-function hash plus its full block list (id, size, flags), and
 * the function's DCFG shape and counts.  @p funcIndex is the function's
 * index in @p index, or -1 when the function has no address-map entry
 * (the index legs are skipped then).  Combined with
 * layoutOptionsFingerprint() this is the exact-match memo key: any
 * change to the function's code or counts changes it.
 */
uint64_t layoutMemoFingerprint(const FunctionDcfg &fn,
                               const AddrMapIndex &index, int funcIndex);

/**
 * Digest of exactly the inputs layoutFunction() reads: the function's
 * DCFG (entry node; node ids, sizes, counts; edge endpoints and
 * weights) and the address-map block-id *order* (which cold blocks
 * exist and where) — deliberately *not* the whole-function hash, block
 * byte sizes or flags, none of which the layout pass consumes.  Two
 * functions with equal digests (and equal option fingerprints) produce
 * bit-identical FunctionLayouts, so a digest hit against an older
 * binary version's cache entry is a sound reuse: this is the alias key
 * the stale-matcher-primed layout-cache lookups use for functions whose
 * code drifted only in places layout never reads (e.g. edits inside
 * never-sampled blocks).
 */
uint64_t layoutInputDigest(const FunctionDcfg &fn,
                           const AddrMapIndex &index, int funcIndex);

/**
 * Lossless byte encoding of a FunctionLayout (cluster spec plus the
 * solver stats, doubles by bit pattern) for the layout memoization
 * tier of the artifact cache: a decoded warm hit reproduces the cold
 * run's merge inputs exactly, so cc_prof/ld_prof and the aggregated
 * ExtTspStats stay byte-identical.
 */
std::vector<uint8_t> encodeFunctionLayout(const FunctionLayout &layout);

/**
 * Decode; returns false on any truncation or trailing bytes, a block id
 * wider than 32 bits, or a cold index that is neither -1 nor a cluster.
 */
bool decodeFunctionLayout(const std::vector<uint8_t> &bytes,
                          FunctionLayout &out);

/**
 * Decomposed intra-procedural layout: each function's Ext-TSP problem is
 * independent, so a caller (the task-graph relink engine) can run
 * `layoutFunction` per function on any thread and in any order, then
 * `merge` the slots in function order.  The merged result is
 * byte-identical to computeLayout's own loop by construction.
 *
 * Only valid for the intra-procedural strategy; the inter-procedural
 * chain is a single global problem and stays monolithic (computeLayout).
 */
class LayoutContext
{
  public:
    LayoutContext(const WholeProgramDcfg &dcfg, const AddrMapIndex &index,
                  const LayoutOptions &opts);
    ~LayoutContext();
    LayoutContext(const LayoutContext &) = delete;
    LayoutContext &operator=(const LayoutContext &) = delete;

    size_t functionCount() const;

    /** Lay out one function. Thread-safe across distinct @p f. */
    FunctionLayout layoutFunction(size_t f) const;

    /**
     * Global symbol order (C3/hfsort over the call graph).  Depends only
     * on the DCFG, not on any per-function layout, so it can run
     * concurrently with the layoutFunction fan-out.
     */
    LdProfile globalOrder() const;

    /** Merge per-function slots + global order, in function order. */
    LayoutResult merge(std::vector<FunctionLayout> slots,
                       LdProfile order) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Compute the layout from a DCFG and the metadata binary's address map.
 * @p jobs bounds worker threads for the per-function loop (0 =
 * hardware concurrency); output is byte-identical at any value.
 */
LayoutResult computeLayout(const WholeProgramDcfg &dcfg,
                           const AddrMapIndex &index,
                           const LayoutOptions &opts = {},
                           unsigned jobs = 0);

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_LAYOUT_H
