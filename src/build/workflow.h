#ifndef PROPELLER_BUILD_WORKFLOW_H
#define PROPELLER_BUILD_WORKFLOW_H

/**
 * @file
 * The distributed build system and the 4-phase Propeller workflow driver
 * (paper Figure 1 / section 3):
 *
 *   Phase 1  build optimized IR, cache it (modelled);
 *   Phase 2  distributed backends with basic-block-address-map metadata,
 *            link the metadata binaries (PM with .bb_addr_map for
 *            Propeller, BM with --emit-relocs for BOLT); the plain
 *            baseline binary is PM's stripped copy — all three share one
 *            text image;
 *   Phase 3  run the metadata binary under load collecting LBR samples,
 *            then profile conversion + whole-program analysis producing
 *            cc_prof / ld_prof;
 *   Phase 4  re-run backends for *hot* modules only (cluster
 *            directives changed their action fingerprint); every cold
 *            module is a content-cache hit streamed into the relink.
 *
 * Times are modelled with a deterministic makespan cost model (work
 * divided over workers plus the critical path — the standard bound for
 * list scheduling) and memory with the modelled MemoryMeter, because
 * host wall-clock and RSS neither scale like the real system nor stay
 * deterministic.  Local parallelism, however, is real: every parallel
 * stage runs on src/sched with WorkloadConfig::jobs threads — the relink
 * graph below, or sched::parallelFor for the loops outside it (Phase 2
 * and the rebuilds' per-module backend actions) — and results merge in
 * module order so binaries are byte-identical at any thread count.
 *
 * The relink chain (Phase 3 WPA -> Phase 4 codegen -> link -> Phase 5
 * verify) runs as ONE fine-grained task graph on the work-stealing
 * scheduler of src/sched: per-function Ext-TSP layouts, per-module
 * codegen, per-object link assembly and per-range and per-function
 * verification are tasks with real data dependencies, so a module's
 * backend re-runs the moment its last hot function's layout lands and
 * verification spreads over every worker the moment the one Phase 4
 * link lands — no phase barriers.  The Phase 5 profile-flow lint reads
 * the DCFG WPA's mapper built, which the workflow keeps across graphs.
 * Order-sensitive side effects (cache population, retry accounting,
 * failure attribution) commit through an OrderedSink in module order,
 * so artifacts, reports and cache statistics are byte-identical at any
 * thread count.  Every codegen
 * action — Phase 2, the relink, and the ablation and iterative
 * rebuilds — runs the same build step and in-order commit.
 * relinkSchedule() exposes the modelled schedule: critical path,
 * makespan, parallel efficiency, steals.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "bolt/bolt.h"
#include "build/cache.h"
#include "codegen/codegen.h"
#include "elf/object.h"
#include "ir/ir.h"
#include "linker/executable.h"
#include "linker/linker.h"
#include "profile/profile.h"
#include "propeller/propeller.h"
#include "sched/sched.h"
#include "workload/workload.h"

namespace propeller::buildsys {

/**
 * Per-action resource limits of the build system (the paper's production
 * constraint: every action must fit the ~12 GB RAM of a standard worker;
 * scaled ~1/100 like the workloads).
 */
struct BuildLimits
{
    /** RAM ceiling per build action (link, WPA, codegen). */
    static constexpr uint64_t ramPerAction = 120ull << 20;

    /** Concurrent workers executing actions. */
    uint32_t workers = 8;

    /**
     * Transient-failure retries per action beyond the first attempt.
     * Remote executors flake; a bounded retry with deterministic
     * exponential backoff absorbs that without hanging the build.
     */
    static constexpr uint32_t maxActionRetries = 2;

    /** Backoff before retry k is retryBackoffSec * 2^(k-1) seconds. */
    static constexpr double retryBackoffSec = 1.0;

    /**
     * Samples per serialized profile shard on the collection wire path
     * (taken only when fault hooks are attached; see Workflow::profile).
     */
    static constexpr uint32_t profileShardSamples = 128;
};

/**
 * Deterministic makespan model for a batch of build actions.
 *
 * makespan = sum(cost_i + overhead) / workers + max(cost_i + overhead):
 * the classic list-scheduling bound combining the parallel work term
 * with the critical path.  Per-action costs are derived from modelled
 * quantities (instructions compiled, bytes fetched/linked), calibrated
 * so phase *ratios* match the paper's Table 5 / Figure 9 shape.
 */
struct CostModel
{
    /** Scheduling + sandbox setup overhead per action, seconds. */
    double actionOverheadSec = 0.5;

    // ---- Calibration constants (modelled seconds) -------------------
    // Per IR instruction: Phase 1, codegen, BOLT disassembly+rewrite.
    static constexpr double irGenSecPerInst = 2e-4;
    static constexpr double backendSecPerInst = 6e-4;
    static constexpr double boltSecPerInst = 2e-5;
    /** Instrumented-build slowdown. */
    static constexpr double instrumentFactor = 1.45;
    // Per byte: link work per input byte, streaming a just-built or a
    // cache-hit object, profile conversion, Phase 5 disassembly+checks.
    static constexpr double linkSecPerByte = 8e-6;
    static constexpr double fetchFreshSecPerByte = 25e-6;
    static constexpr double fetchCachedSecPerByte = 3e-6;
    static constexpr double wpaSecPerProfileByte = 2e-5;
    static constexpr double verifySecPerByte = 4e-6;
    /** Layout per hot function. */
    static constexpr double wpaSecPerHotFunction = 0.02;

    /** Makespan of @p costs (seconds each) on @p workers workers. */
    double makespan(const std::vector<double> &costs,
                    uint32_t workers) const;
};

/** Modelled outcome of one build phase. */
struct PhaseReport
{
    std::string phase;

    double makespanSec = 0.0;
    uint32_t actions = 0;    ///< Actions actually executed.
    uint32_t cacheHits = 0;  ///< Actions served from the artifact cache.

    /** Peak modelled memory of the largest single action. */
    uint64_t peakActionMemory = 0;

    /** The largest action exceeded BuildLimits::ramPerAction. */
    bool memoryLimitExceeded = false;

    /** Failed action attempts that were retried (transient failures). */
    uint32_t retries = 0;

    /** Cache entries found corrupt while serving this phase. */
    uint32_t cacheCorruptions = 0;

    /**
     * Inputs this phase degraded instead of dying on: functions dropped
     * to baseline layout, profile shards rejected, addr-map metadata
     * discarded.
     */
    uint32_t quarantined = 0;

    /** Human-readable failure summary, one line per degraded item. */
    std::vector<std::string> failures;

    double makespanMinutes() const { return makespanSec / 60.0; }
};

/**
 * Fault-injection seams of the Workflow (src/faultinject drives these;
 * tests may subclass directly).  Every hook is a no-op by default, and a
 * Workflow without hooks attached takes none of the code paths below —
 * the zero-fault pipeline stays byte-identical.
 *
 * Hooks run on the coordinating thread at deterministic points, so a
 * seeded harness produces the same faults at any thread count.
 */
class FaultHooks
{
  public:
    virtual ~FaultHooks() = default;

    /** After a compile batch stores its outputs into the cache. */
    virtual void onCachePopulated(ArtifactCache &) {}

    /**
     * On the serialized profile shards between collection and reload
     * (the wire/disk window where profile bytes can rot).
     */
    virtual void onProfileShards(std::vector<std::vector<uint8_t>> &) {}

    /** On the Phase 2 objects before any of them are linked. */
    virtual void onPhase2Objects(std::vector<elf::ObjectFile> &) {}

    /**
     * Return true to fail attempt @p attempt (1-based) of the codegen
     * action for @p module_name — a modelled transient executor fault.
     */
    virtual bool
    failAction(const std::string &module_name, uint32_t attempt)
    {
        (void)module_name;
        (void)attempt;
        return false;
    }
};

/**
 * The 4-phase Propeller workflow over one workload.
 *
 * All products are lazy and memoized; any entry point (baseline(),
 * propellerBinary(), wpa(), ...) pulls exactly the phases it needs, in
 * order, and records their PhaseReports.  Everything is deterministic in
 * the workload config — two Workflow instances over the same config
 * produce byte-identical binaries, at any thread count.
 */
class Workflow
{
  public:
    explicit Workflow(workload::WorkloadConfig config);

    const workload::WorkloadConfig &config() const { return config_; }
    const BuildLimits &limits() const { return limits_; }
    const CostModel &costModel() const { return cost_; }

    /**
     * Override the build-system limits (worker count, RAM ceiling).
     * Must be called before the first product is pulled: limits feed
     * every phase's cost model and the scheduler's virtual workers.
     */
    void setBuildLimits(const BuildLimits &limits) { limits_ = limits; }

    /** The program IR (Phase 1 product; generated on first use). */
    const ir::Program &program();

    /**
     * Baseline binary: the Phase 2 link without metadata, made as PM's
     * stripped copy.  Its "baseline.link" report is what a stripped
     * link reports: PM's link report without the map rejections.
     */
    const linker::Executable &baseline();

    /**
     * PM: the Propeller metadata binary (.bb_addr_map kept).  The one
     * Phase 2 link; records "phase2.link" and "baseline.link".
     */
    const linker::Executable &metadataBinary();

    /** BM: the BOLT metadata binary (--emit-relocs). */
    const linker::Executable &boltInputBinary();

    /** Phase 3 LBR profile, collected running PM under load. */
    const profile::Profile &profile();

    /** Phase 3 whole-program analysis products (cc_prof / ld_prof). */
    const core::WpaResult &wpa();

    /** PO: the Propeller-optimized binary (Phase 4 relink). */
    const linker::Executable &propellerBinary();

    /**
     * Phase 5 (optional): statically verify the shipped Propeller
     * binary.  Phase 4 links once with .bb_addr_map kept and ships a
     * copy with the maps removed, so the verifier runs over the kept
     * image (verifiedBinary()) — its text is checked byte-identical to
     * PO, making every machine-code finding a finding about the shipped
     * bits.  Also lints the applied Phase 3 artifacts (cc_prof /
     * ld_prof, profile flow) and records a "phase5.verify" PhaseReport
     * with one failure line per diagnostic, attributed to the offending
     * function.
     */
    const analysis::VerifyReport &verifyReport();

    /**
     * The Phase 4 link image with .bb_addr_map kept: propellerBinary()
     * plus its address maps, the image Phase 5 verifies.
     */
    const linker::Executable &verifiedBinary();

    /**
     * A Propeller binary under non-default layout options (ablations:
     * splitting off, inter-procedural, ...).  Runs a fresh WPA and a
     * Phase-4-style cached rebuild without disturbing the canonical
     * pipeline's memoized products or reports.
     * @param wpa_out optional: receives the ablation's WPA result.
     */
    linker::Executable propellerBinaryWith(const core::LayoutOptions &opts,
                                           core::WpaResult *wpa_out =
                                               nullptr);

    /**
     * Second Propeller round (section 4.6 closing note): re-profile the
     * optimized binary and relink once more.
     */
    linker::Executable iterativePropellerBinary();

    /** BO: the BOLT-rewritten binary (reports "bolt.convert"/"bolt.opt"). */
    linker::Executable boltBinary(const bolt::BoltOptions &opts = {},
                                  bolt::BoltStats *stats = nullptr);

    /**
     * Run the static verifier over the BOLT-path output, so both
     * backends share one oracle: the same disassemble-and-cross-check
     * pass that guards the Propeller relink inspects the rewritten
     * binary (symbols, machine CFG, eh_frame coverage, startup
     * integrity hashes).  BOLT strips .bb_addr_map, so the
     * metadata-dependent checks skip; what remains are machine-level
     * findings about the shipped bits.  Records a "bolt.verify"
     * PhaseReport with one failure line per diagnostic.
     */
    analysis::VerifyReport verifyBoltBinary(const bolt::BoltOptions &opts =
                                                {},
                                            bolt::BoltStats *stats =
                                                nullptr);

    /**
     * The modelled schedule of the most recent task-graph relink run:
     * per-task spans, makespan vs the critical-path/work lower bound,
     * parallel efficiency, real steal counters.  Deterministic in the
     * workload config (virtual-time simulation on limits().workers
     * model workers); only valid after a product pulled the graph.
     */
    const sched::ScheduleReport &relinkSchedule() const;
    bool hasRelinkSchedule() const { return schedule_.has_value(); }

    /**
     * Modelled cost of one instrumented-PGO build of this program (the
     * Table 5 comparison: instrumentation slows every backend action and
     * the binary it produces runs the full load test).
     */
    PhaseReport instrumentedBuildReport();

    bool hasReport(const std::string &phase) const;
    const PhaseReport &report(const std::string &phase) const;

    /**
     * Attach fault-injection hooks (not owned; may be nullptr to
     * detach).  Must be set before the first product is pulled — hooks
     * attached mid-pipeline only affect phases not yet memoized.
     */
    void setFaultHooks(FaultHooks *hooks) { hooks_ = hooks; }

    /**
     * Integrity sweep over every cached artifact (the end-of-build
     * verification pass): evicts corrupt entries, counting them in
     * cacheStats().corruptions.
     * @return entries evicted.
     */
    uint64_t scrubCache() { return cache_.scrub(); }

    /** Names of the Phase 4 cache-hit objects (e.g. "mod_003.o"). */
    const std::vector<std::string> &coldObjects();

    /** The objects the Phase 4 link consumed, in module order. */
    const std::vector<elf::ObjectFile> &phase4Objects();

    const CacheStats &cacheStats() const { return cache_.stats(); }

    /** Layout-memoization tier accounting (hit rate = the fraction of
     *  per-function layouts served without re-running Ext-TSP). */
    const CacheStats &layoutCacheStats() const
    {
        return cache_.layoutStats();
    }

    /**
     * Seed the artifact cache (both tiers) from a journaled image on
     * disk — the cross-process warm-rerun path.  Returns false if the
     * file is absent, torn (a crash mid-save), fails the journal or
     * whole-image checksum, or decodes structurally damaged; the cache
     * is left empty in every failure case and the run proceeds cold.
     * Must be called before the first product is pulled.
     * @p generation receives the image's generation stamp when non-null.
     */
    bool loadCacheFile(const std::string &path,
                       uint64_t *generation = nullptr);

    /**
     * Persist the artifact cache image to @p path (for a later
     * loadCacheFile): the image is wrapped in a generation-stamped,
     * checksummed journal container and written atomically (full temp
     * file + rename), so a crash mid-save leaves the previous image
     * intact and never a torn one.  Returns false on I/O failure.
     * @p crashAtByte is the crash-point test seam (see
     * buildsys::atomicWriteFile).
     */
    bool saveCacheFile(const std::string &path, uint64_t generation = 0,
                       long crashAtByte = -1) const;

    /**
     * Replace the Phase 3 profile with @p prof (drift-injection seam
     * for incremental-relink experiments).  Must be called before the
     * profile is first pulled; later calls are rejected.
     */
    void overrideProfile(profile::Profile prof);

    /**
     * Supply the Phase 1 program instead of generating it from the
     * workload config — the fleet service's seam for relinking a
     * specific (drifted) binary version.  Must be called before the
     * program is first pulled.
     */
    void overrideProgram(ir::Program prog);

    /**
     * Supply the Phase 2 metadata binary (PM) instead of linking it —
     * the fleet service's seam for relinking a version it already
     * built: the relink reads @p exe where it would pull Phase 2, so it
     * compiles and links no Phase 2.  Phase 4 still takes each module
     * the relink leaves unchanged from the object cache under its
     * Phase 2 action key, and compiles it under that key on a miss.
     * @p exe must be the metadata binary of the program this workflow
     * relinks.  Must be called before the metadata binary is first
     * pulled.
     */
    void overrideMetadataBinary(linker::Executable exe);

    /**
     * Replace the WPA DCFG: the relink's layout runs over @p dcfg
     * instead of the DCFG mapped from the profile (see
     * core::WpaPipeline::overrideDcfg).  The fleet service injects its
     * rolling multi-version aggregate here — already expressed in the
     * target's block-id space — paired with overrideProfile() carrying
     * only the identity stamp.  Must be called before the WPA runs.
     */
    void overrideDcfg(core::WholeProgramDcfg dcfg);

    /**
     * Functions eligible for *primed* layout-cache lookups: on an exact
     * memo-key miss for a function named here, the relink additionally
     * probes the layout tier by input digest (ArtifactCache::
     * lookupLayoutPrimed) before recomputing Ext-TSP.  The fleet
     * service fills this with the stale matcher's drifted-but-matched
     * function-hash map; primed hits land in layoutCacheStats().
     */
    void setLayoutPrimeFunctions(std::set<std::string> functions);

  private:
    /** One codegen action's result, handed from build to commit. */
    struct ModuleBuild
    {
        uint64_t key = 0;            ///< The action's cache key.
        bool hit = false;            ///< Served from the cache.
        std::string reject;          ///< Cache-rejection line, if any.
        std::vector<uint8_t> stored; ///< Serialized object (misses).
    };

    /** One compile batch over the content cache, committed in order. */
    struct CompileBatch
    {
        std::vector<elf::ObjectFile> objects; ///< In module order.
        std::vector<std::string> cachedNames; ///< Cache-hit object names.
        std::vector<std::string> dropped;     ///< Cluster directives dropped.
        std::vector<std::string> rejects;     ///< Cache-rejection lines.
        std::vector<std::string> exhausted;   ///< Retry-exhaustion lines.
        std::vector<double> missCosts;        ///< Per executed action.
        uint32_t cacheHits = 0;
        uint32_t retries = 0; ///< Failed attempts retried.
        uint64_t peakActionMemory = 0;
        /** cacheStats().corruptions when the batch started. */
        uint64_t corruptionsBefore = 0;
    };

    /** Fingerprint of one codegen action (module + directives). */
    uint64_t actionKey(size_t module_index,
                       const codegen::ClusterMap *clusters,
                       bool emit_addr_map) const;

    /**
     * The thread-safe half of module @p i's codegen action: cache
     * lookup and checked decode (a damaged hit is evicted and becomes
     * a reject line), else compile and serialize.  Writes the object to
     * @p object.  @p clusters must already be sanitized.
     */
    ModuleBuild buildModule(size_t i, const codegen::ClusterMap *clusters,
                            elf::ObjectFile &object);

    /**
     * The in-order half, called in module order: records the reject
     * line, then counts the hit, or stores the object and charges the
     * action (retries with backoff, peak memory) to @p batch.
     * @return the action's modelled cost plus the per-action overhead;
     *         0 for a hit (no action ran).
     */
    double commitModule(size_t i, ModuleBuild &built, CompileBatch &batch);

    /**
     * Compile every module, serving unchanged actions from the cache:
     * buildModule() in parallel (jobs threads), then commitModule() in
     * module order.
     */
    CompileBatch compileModules(const codegen::ClusterMap *clusters);

    /**
     * Record a codegen-batch report under @p phase.  Failure lines:
     * dropped directives in map order, then cache rejects, then
     * exhausted retries, each in module order.
     */
    void recordCodegenReport(const std::string &phase,
                             const CompileBatch &batch);

    /** The link-phase report: one action over every object. */
    PhaseReport makeLinkReport(
        const std::string &phase,
        const std::vector<elf::ObjectFile> &objects,
        const linker::LinkStats &stats,
        const std::vector<std::string> &cached_names) const;

    /** Record "phase3.wpa" from the memoized WPA stats. */
    void recordWpaReport();

    /** Record @p phase ("phase5.verify", "bolt.verify") from a merged
     *  verification report. */
    void recordVerifyReport(const std::string &phase,
                            const analysis::VerifyReport &rep);

    /** Options of the one Phase 4 link (ld_prof order, maps kept). */
    linker::Options phase4LinkOptions();

    /**
     * Record the Phase 4 link: its "phase4.link" report and quarantine
     * list, @p image (maps kept) as verifiedBinary() and a copy with
     * the maps removed as the shipped propellerBinary().
     */
    void commitPhase4Link(linker::Executable image, linker::LinkStats stats,
                          const std::vector<elf::ObjectFile> &objects,
                          const std::vector<std::string> &cached_names);

    /**
     * Phase 5 verify options: the applied symbol order, with the
     * functions WPA or the Phase 4 link quarantined exempt from PV015.
     */
    analysis::VerifyOptions verifyOptions() const;

    /**
     * Fold the pre-link lints into @p rep (the verifier's report over
     * verifiedBinary()) — the profile-flow lint over WPA's profile
     * DCFG, which it then frees — record "phase5.verify" and memoize
     * the result.
     */
    void commitVerify(analysis::VerifyReport rep,
                      const analysis::VerifyOptions &vopts);

    /** Link with cost accounting; records a report under @p phase. */
    linker::Executable linkWithReport(
        const std::vector<elf::ObjectFile> &objects,
        const linker::Options &opts, const std::string &phase,
        const std::vector<std::string> &cached_names);

    const std::vector<elf::ObjectFile> &phase2Objects();

    /** How deep into the relink chain a task-graph run must reach. */
    enum class RelinkStage { Wpa, Link, Verify };

    /**
     * Build and run one task graph covering every unmemoized relink
     * stage up to @p target (WPA layout fan-out, per-module codegen,
     * link assembly, per-range and per-function verification), then
     * record the per-phase PhaseReports — each phase's makespan by its
     * own formula, as if the phases ran one after another — plus
     * "relink.graph" and the ScheduleReport.  A no-op when every stage
     * up to @p target is memoized.
     */
    void runRelinkGraph(RelinkStage target);
    linker::Options linkOptions();

    /** Set the program and size the per-module hash memo for it. */
    void setProgram(ir::Program prog);
    uint64_t moduleHash(size_t module_index) const;

    workload::WorkloadConfig config_;
    BuildLimits limits_;
    CostModel cost_;
    FaultHooks *hooks_ = nullptr;
    mutable ArtifactCache cache_;
    std::map<std::string, PhaseReport> reports_;

    std::optional<ir::Program> program_;
    /**
     * Per-module content hashes, each filled by its module's first
     * codegen action: plain slots and byte flags (a bit vector would
     * share words across modules hashed on different workers).
     */
    mutable std::vector<uint64_t> moduleHashes_;
    mutable std::vector<uint8_t> moduleHashed_;
    std::optional<std::vector<elf::ObjectFile>> phase2Objects_;
    std::optional<linker::Executable> baseline_;
    std::optional<linker::Executable> metadataBinary_;
    std::optional<linker::Executable> boltInputBinary_;
    std::optional<profile::Profile> profile_;
    std::optional<core::WpaResult> wpa_;
    std::optional<linker::Executable> propellerBinary_;
    std::optional<std::vector<elf::ObjectFile>> phase4Objects_;
    std::optional<linker::Executable> verifiedBinary_;
    /** Functions the Phase 4 link quarantined (overflow, input order). */
    std::vector<std::string> poQuarantined_;
    std::optional<analysis::VerifyReport> verify_;
    std::optional<linker::Executable> iterative_;
    std::vector<std::string> coldObjects_;
    std::optional<sched::ScheduleReport> schedule_;
    std::optional<core::WholeProgramDcfg> dcfgOverride_;
    /**
     * The DCFG WPA's mapper built from the profile, kept from the WPA
     * graph for the Phase 5 flow lint, which may run in a later graph.
     * Under overrideDcfg() it is still the profile's own mapping, never
     * the injected DCFG.
     */
    std::optional<core::WholeProgramDcfg> profileDcfg_;
    std::set<std::string> primeFns_;
};

} // namespace propeller::buildsys

#endif // PROPELLER_BUILD_WORKFLOW_H
