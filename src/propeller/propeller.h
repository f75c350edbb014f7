#ifndef PROPELLER_PROPELLER_PROPELLER_H
#define PROPELLER_PROPELLER_PROPELLER_H

/**
 * @file
 * Phase 3: profile conversion and whole-program analysis (paper 3.3).
 *
 * This is the standalone tool of Table 1 ("create_llvm_prof" in the real
 * system): it consumes the metadata binary's BB address map and the raw
 * LBR profile, builds the whole-program dynamic CFG, computes code layout
 * and emits cc_prof / ld_prof plus the list of hot functions whose objects
 * Phase 4 must regenerate.  Peak memory is the quantity Figure 4 compares
 * against BOLT's perf2bolt.
 */

#include "linker/executable.h"
#include "profile/profile.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "support/memory_meter.h"

namespace propeller::core {

/** Whole-program-analysis statistics (Figure 4 inputs). */
struct WpaStats
{
    uint64_t peakMemory = 0;      ///< Modelled peak bytes of Phase 3.
    uint64_t profileBytes = 0;    ///< Raw profile size read.
    uint64_t dcfgFootprint = 0;   ///< In-memory DCFG bytes.
    uint64_t indexFootprint = 0;  ///< Address map index bytes.
    uint32_t hotFunctions = 0;
    MapperStats mapper;
    ExtTspStats extTsp;

    /**
     * Functions whose address-map metadata failed sanitation and were
     * dropped from the index: their samples go unmapped and they keep
     * their baseline layout ("degrade, don't die" — ISSUE 4).
     */
    uint32_t quarantined = 0;
    std::vector<std::string> quarantinedFunctions; ///< Their names, sorted.

    /**
     * The profile's binary identity does not match the binary being
     * analyzed: the samples were collected on a *different* build, and the
     * address-based mapping this pass performed is unsound.  Callers must
     * reject the result or re-run through the stale matcher (src/stale).
     */
    bool profileMismatch = false;
};

/** Phase 3 outputs. */
struct WpaResult
{
    CcProfile ccProf;
    LdProfile ldProf;
    std::vector<std::string> hotFunctions;
    WpaStats stats;
};

/**
 * Phase 3 decomposed into schedulable stages, shared by the serial
 * entry point below and the task-graph relink engine so both produce
 * byte-identical artifacts and identical stats by construction:
 *
 *   build()                  — aggregate profile, index, DCFG;
 *   layoutFunction(f)        — per-function Ext-TSP, any thread/order;
 *   globalOrder()            — hfsort, concurrent with the fan-out;
 *   finish(slots, order)     — ordered merge + memory accounting.
 *
 * The serial entry point is build() plus finishMonolithic(), whose one
 * computeLayout call runs the per-function loop on sched::parallelFor.
 * build() itself decomposes further for the task graph — profile
 * ingestion as dependency-ordered stages instead of one prelude:
 *
 *   prepare()                — identity check, shard plan;
 *   aggregateShard(s)        — per-shard counters, any thread/order;
 *   mergeAggregation()       — serial shard-order fold;
 *   buildIndex()             — BB address map index (independent of the
 *                              aggregation shards);
 *   beginMapping()           — snapshot records into mapper slots;
 *   resolveShard(k, n)       — read-only record resolution slices;
 *   applyDcfg()              — serial application, entry nodes, freqs.
 *
 * The MemoryMeter charge sequence matches the monolithic path exactly
 * (charges are monotonic within a phase, so the peak is order
 * independent), and every parallel stage writes disjoint slots, so
 * peakMemory and the DCFG are identical however the stages are
 * scheduled.
 */
class WpaPipeline
{
  public:
    WpaPipeline(const linker::Executable &metadata_exe,
                const profile::Profile &prof, const LayoutOptions &opts,
                unsigned jobs);
    ~WpaPipeline();
    WpaPipeline(const WpaPipeline &) = delete;
    WpaPipeline &operator=(const WpaPipeline &) = delete;

    /** Aggregate + index + DCFG. Must run before any other stage. */
    void build();

    /** Shard plan for the staged ingestion path. */
    struct IngestPlan
    {
        /** Number of independent aggregation shard stages. */
        size_t aggregationShards = 0;
    };

    /** Staged ingestion, stage 1: identity check + shard plan. */
    IngestPlan prepare();
    /** Aggregate one shard; thread-safe across distinct shards. */
    void aggregateShard(size_t shard);
    /** Serial shard-order fold of the aggregation slots. */
    void mergeAggregation();
    /** Build the BB address map index (independent of aggregation). */
    void buildIndex();
    /** Snapshot aggregated records into resolution slots; needs
     *  mergeAggregation() and buildIndex(). */
    void beginMapping();
    /** Resolve record slice @p shard of @p shardCount; thread-safe
     *  across distinct shards. */
    void resolveShard(size_t shard, size_t shardCount);
    /** Serial DCFG application; after this the pipeline is in the same
     *  state build() leaves it. */
    void applyDcfg();

    /**
     * Replace the mapper-built DCFG: the next applyDcfg() installs
     * @p dcfg instead of resolving the profile's records (the fleet
     * service's injection seam — its rolling multi-version aggregate is
     * already a DCFG in the target's block-id space, so re-deriving it
     * from synthetic samples would be lossy).  Ingestion still runs and
     * the profile's identity is still checked; only the mapper's output
     * is substituted.  Must be called before applyDcfg().
     */
    void overrideDcfg(WholeProgramDcfg dcfg);

    /**
     * layoutInputDigest() for function @p f (DCFG index) against this
     * pipeline's address-map index — the alias key for primed
     * layout-cache lookups (see layout.h).
     */
    uint64_t layoutInputDigest(size_t f) const;

    /**
     * Layout memoization key material for function @p f (DCFG index):
     * folds the function's .bb_addr_map v2 CFG hash, its DCFG shape
     * and profile counts, and the block list the cluster sanitizer
     * sees.  Combined with layoutOptionsFingerprint this keys a cached
     * FunctionLayout: equal fingerprints reproduce layoutFunction(f)
     * exactly.
     */
    uint64_t layoutFingerprint(size_t f) const;

    const WholeProgramDcfg &dcfg() const;
    size_t functionCount() const;

    /** Lay out one function. Thread-safe across distinct @p f. */
    FunctionLayout layoutFunction(size_t f) const;

    /** Global symbol order; independent of per-function layouts. */
    LdProfile globalOrder() const;

    /** Merge + stats; consumes the pipeline. */
    WpaResult finish(std::vector<FunctionLayout> slots, LdProfile order,
                     MemoryMeter *meter = nullptr);

    /**
     * Lay out the whole program in one computeLayout call instead of the
     * per-function stages: its loop over functions for the
     * intra-procedural strategy, the global chain (which cannot be
     * decomposed) for the inter-procedural one.  Merge + stats as
     * finish(); consumes the pipeline.
     */
    WpaResult finishMonolithic(MemoryMeter *meter = nullptr);

    /**
     * Move out the DCFG the mapper built from the profile's own samples:
     * dcfg() unless overrideDcfg() substituted it, in which case the
     * profile's mapping is still built (its stats stay out of
     * WpaStats).  Call once, after the pipeline finished.
     */
    WholeProgramDcfg takeProfileDcfg();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run profile conversion + whole-program analysis: build() plus
 * finishMonolithic(), byte-identical to the relink's task graph.
 *
 * @param metadata_exe the Phase 2 binary with BB address map metadata.
 * @param prof         LBR samples collected while running it.
 * @param opts         layout strategy.
 * @param jobs         worker threads for parallel stages (0 = hardware).
 * @param meter        optional external phase meter (pulsed with the peak).
 */
WpaResult runWholeProgramAnalysis(const linker::Executable &metadata_exe,
                                  const profile::Profile &prof,
                                  const LayoutOptions &opts = {},
                                  unsigned jobs = 0,
                                  MemoryMeter *meter = nullptr);

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_PROPELLER_H
