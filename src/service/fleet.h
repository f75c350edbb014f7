#ifndef PROPELLER_SERVICE_FLEET_H
#define PROPELLER_SERVICE_FLEET_H

/**
 * @file
 * Continuous-profiling fleet service (the warehouse-scale deployment
 * loop of paper section 2: profiles stream in from production machines
 * continuously, and the optimized binary is *relinked*, not rebuilt,
 * whenever the profile has drifted far enough from the one that
 * produced the shipped layout).
 *
 * The service simulates a fleet of N machines spread over a chain of
 * binary versions (v0 is the pristine build; each later version is the
 * previous one plus one week of synthetic drift, workload::applyDrift).
 * Every epoch, each machine runs its version under load and emits its
 * share of LBR samples as wire-format profile shards, stamped with the
 * version's identity hash.  Ingestion is shard-at-a-time,
 * arrival-order independent, and chaos-tolerant:
 *
 *  - each shard decodes independently (corrupt shards are dropped and
 *    counted, never fatal) and is routed to its *version's* bucket by
 *    the per-shard identity stamp — samples from an old binary version
 *    are remapped through the stale matcher (src/stale) rather than
 *    being rejected against the newest version's hash;
 *  - arrivals are deduplicated by (machine, emission epoch, sequence),
 *    so a retransmitting network path never double-counts samples;
 *  - a shard delayed on the wire folds into the decay-window slot of
 *    the epoch it was *emitted* in (DecayedAggregate::addAt), so laggy
 *    machines age on their run clock, not their delivery clock; shards
 *    older than the window are expired, not mis-folded;
 *  - every envelope names its batch size, so gaps in a machine's
 *    sequence space are detected as losses once the lag horizon (the
 *    decay window) passes, and per-machine health counters attribute
 *    duplicates, losses, corruption, lag and reorder per emitter;
 *  - per-version epoch counters fold into a recency-weighted rolling
 *    aggregate (profile::DecayedAggregate); the per-version aggregates
 *    are normalized by decayed weight share, mapped onto the *target*
 *    version's block-id space through matchStaleProfile +
 *    inferStaleCounts, and merged — by function name, block id and
 *    edge key, in sorted order — into one combined whole-program DCFG.
 *
 * A drift metric (total-variation distance between the combined DCFG's
 * per-block frequency distribution and the snapshot taken at the last
 * relink) is evaluated every epoch; when it crosses the configured
 * threshold the service triggers an incremental relink: a fresh
 * buildsys::Workflow over the target version with the combined DCFG
 * injected (overrideDcfg), the persisted artifact-cache image
 * loaded from disk, and the stale matcher's drifted-but-matched
 * function set priming the layout tier (setLayoutPrimeFunctions).
 *
 * Relinks are guarded by a last-good rollback state machine: a failed
 * attempt (an injected executor fault, or an artifact the static
 * verifier rejects) is retried with bounded deterministic backoff; on
 * persistent failure the relink is quarantined — the service keeps
 * serving the previous generation's verifier-clean artifact, flags
 * degraded mode in statusz, and re-attempts at the next epoch whether
 * or not the metric crosses again.  Every *served* artifact carries a
 * generation stamp and passed analysis::verifyExecutable; the cache
 * image is persisted through a generation-stamped, checksummed journal
 * with atomic temp-file+rename writes (src/build/journal.h), so a
 * crash mid-save cold-starts cleanly instead of serving a torn image.
 *
 * Everything is deterministic in FleetOptions (and the chaos seed, when
 * chaos hooks are attached): machine upgrade order, shard emission, the
 * (seeded) arrival shuffle, aggregation, matching, merging and the
 * relink itself — two services with the same options produce
 * byte-identical shipped binaries and drift histories.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "linker/executable.h"
#include "propeller/dcfg.h"
#include "propeller/propeller.h"
#include "sched/sched.h"
#include "support/status.h"
#include "workload/workload.h"

namespace propeller::fleet {

/** Parameters of one simulated fleet. */
struct FleetOptions
{
    /** The application every machine runs (v0's generator config).
     *  `base.jobs` is the worker-thread count for every parallel stage
     *  of ingestion and relinking. */
    workload::WorkloadConfig base;

    /** Fleet machines emitting profile shards. */
    uint32_t machines = 8;

    /** Binary versions in the drift chain (>= 1). */
    uint32_t versions = 3;

    /** Drift rate applied between consecutive versions. */
    double interVersionDrift = 0.10;

    /** Relink when the drift metric exceeds this (strictly). */
    double driftThreshold = 0.15;

    /** Per-epoch decay of older epochs' sample weight, in (0, 1]. */
    double decay = 0.5;

    /** Epochs of history kept per version (DecayedAggregate window).
     *  Doubles as the lag horizon: a shard older than this is useless
     *  to the mix, so outstanding batch gaps older than the window are
     *  finalized as losses. */
    static constexpr uint32_t decayWindow = 4;

    /**
     * Epoch at which the newest version becomes the relink target.  The
     * flip precedes any machine migration, so the release-epoch relink
     * sees an unchanged sample mix remapped onto the new binary — the
     * case layout-tier priming exists for.
     */
    uint32_t releaseEpoch = 2;

    /** Machines migrated to the target per epoch after the release. */
    static constexpr uint32_t upgradesPerEpoch = 2;

    /** Scale the combined DCFG's heaviest branch count to this. */
    static constexpr uint64_t freqResolution = 1'000'000;

    /**
     * Seed for the per-epoch shard arrival shuffle.  Ingestion
     * canonicalizes by (machine, emission epoch, shard sequence) before
     * folding, so the service's outputs are identical for every seed —
     * the knob exists so tests can prove that.
     */
    uint64_t arrivalShuffleSeed = 0;

    /** Samples per emitted wire shard. */
    uint32_t shardSamples = 64;

    /** Artifact-cache image persisted across relinks (and across
     *  service restarts).  Empty = "<base.name>.fleet.cache". */
    std::string cachePath;

    /** Relink attempts retried beyond the first, per trigger. */
    static constexpr uint32_t maxRelinkRetries = 2;

    /** Backoff before relink retry k is relinkBackoffSec * 2^(k-1)
     *  modelled seconds (accumulated in RelinkRecord::backoffSec). */
    static constexpr double relinkBackoffSec = 30.0;
};

/**
 * One profile shard in flight from a machine to the service, as the
 * chaos seams see it: transport metadata (which machine, which epoch's
 * emission, sequence within that emission and the emission's batch
 * size) plus the opaque serialized profile bytes.
 *
 * Chaos hooks mutate a wire batch in place: erase envelopes to model
 * drops, copy them to model retransmit duplicates, permute them to
 * model reordering, raise `deliverEpoch` to model multi-epoch lag, and
 * corrupt `bytes` to model payload rot.  Ingestion never reads
 * `deliverEpoch` for detection — lag is measured against `emitEpoch`,
 * exactly as a real pipeline timestamps at emission.
 */
struct WireShard
{
    uint32_t machine = 0;
    uint32_t emitEpoch = 0;  ///< Epoch the emitting machine ran in.
    uint32_t seq = 0;        ///< Sequence within the machine's emission.
    uint32_t batchSize = 0;  ///< Shards in this (machine, epoch) batch.
    uint32_t deliverEpoch = 0; ///< Epoch the wire delivers it (>= emit).
    std::vector<uint8_t> bytes;
};

/**
 * Chaos-injection seams of the fleet service (src/faultinject's
 * ChaosSchedule drives these; tests may subclass directly).  Every hook
 * is a no-op by default and a service without hooks attached takes none
 * of the degraded paths — the chaos-free loop stays byte-identical.
 */
class FleetChaosHooks
{
  public:
    virtual ~FleetChaosHooks() = default;

    /**
     * On the wire batch of @p epoch, after the service's own arrival
     * shuffle and before ingestion.  May drop, duplicate, reorder,
     * delay (set deliverEpoch > epoch) or corrupt envelopes.
     */
    virtual void onWireShards(uint32_t epoch,
                              std::vector<WireShard> &wire)
    {
        (void)epoch;
        (void)wire;
    }

    /**
     * Return true to fail attempt @p attempt (1-based) of the relink
     * triggered at @p epoch — a modelled mid-relink executor crash.
     */
    virtual bool
    failRelink(uint32_t epoch, uint32_t attempt)
    {
        (void)epoch;
        (void)attempt;
        return false;
    }
};

/** Cumulative ingest health of one emitting machine. */
struct MachineHealth
{
    uint64_t shardsIngested = 0;  ///< Decoded, unique, in-window.
    uint64_t duplicates = 0;      ///< (machine, epoch, seq) re-arrivals.
    uint64_t losses = 0;          ///< Batch gaps finalized as lost.
    uint64_t corrupt = 0;         ///< Payload rejected by decode.
    uint64_t late = 0;            ///< Arrived after their emit epoch.
    uint64_t expired = 0;         ///< Late beyond the decay window.
    uint32_t lagPeakEpochs = 0;   ///< Worst arrival lag seen.

    bool operator==(const MachineHealth &) const = default;
};

/** Service-wide fault-detection totals (the chaos gate's counters). */
struct FaultDetection
{
    uint64_t corrupt = 0;    ///< Shards rejected as corrupt.
    uint64_t duplicates = 0; ///< Shards dropped as duplicates.
    uint64_t losses = 0;     ///< Shards finalized as lost.
    uint64_t late = 0;       ///< Shards folded into a past window slot.
    uint64_t expired = 0;    ///< Late shards beyond the window, dropped.
    uint64_t inversions = 0; ///< Same-batch out-of-sequence arrivals.
    uint64_t relinkFailures = 0; ///< Relink attempts that failed.

    bool operator==(const FaultDetection &) const = default;
};

/** What one epoch ingested and decided. */
struct EpochStats
{
    uint32_t epoch = 0;

    uint32_t shardsIngested = 0; ///< Wire shards folded into the mix.
    uint32_t shardsRejected = 0; ///< Wire shards dropped as corrupt.
    uint32_t shardsDuplicated = 0; ///< Dropped as duplicate arrivals.
    uint32_t shardsLate = 0;     ///< Folded into a past window slot.
    uint32_t shardsExpired = 0;  ///< Too old for the window, dropped.
    uint32_t shardsLost = 0;     ///< Batch gaps finalized this epoch.
    uint32_t arrivalInversions = 0; ///< Out-of-sequence arrivals.

    /** Peak arrival lag among this epoch's arrivals, in epochs
     *  (0 = every shard arrived in its emission epoch). */
    uint32_t shardLagPeak = 0;

    /** Version index -> samples ingested this epoch. */
    std::map<uint32_t, uint64_t> samplesByVersion;

    /** Version index -> machines running it when the epoch ended. */
    std::map<uint32_t, uint32_t> machinesByVersion;

    /** Drift metric vs the last-relink snapshot, in [0, 1]. */
    double driftMetric = 0.0;

    bool relinked = false; ///< The metric crossed the threshold.

    /** A quarantined relink was re-attempted this epoch. */
    bool relinkRetried = false;
};

/** One relink of the shipped binary. */
struct RelinkRecord
{
    uint32_t epoch = 0;    ///< Epoch that triggered it.
    double metric = 0.0;   ///< Drift metric at the trigger.
    bool forced = false;   ///< relinkNow(), not a threshold crossing.

    bool cacheLoaded = false; ///< The persisted image seeded the run.

    uint64_t layoutHits = 0;       ///< Layout tier: exact-key hits.
    uint64_t layoutMisses = 0;     ///< Layout tier: Ext-TSP reruns.
    uint64_t layoutPrimedHits = 0; ///< Layout tier: digest-alias hits.
    /**
     * Object tier: Phase 4 modules served from the image.  The relink
     * links against the version's metadata binary and runs no Phase 2,
     * so no hit is on an object it built itself.
     */
    uint64_t objectHits = 0;

    /**
     * Warm hits this service *knows* the persisted image must serve
     * (keys it wrote in earlier relinks).  Actual hits may exceed this
     * when the image predates the service; they must never fall short —
     * the service checks that invariant on every relink.
     */
    uint64_t expectedHits = 0;
    uint64_t expectedPrimedHits = 0;

    /** Functions primed for digest-alias lookups this relink. */
    uint64_t primedFunctions = 0;

    // ---- Rollback state machine ------------------------------------
    uint32_t attempts = 1;       ///< Attempts run (1 = clean first try).
    uint32_t failedAttempts = 0; ///< Attempts that failed.
    double backoffSec = 0.0;     ///< Modelled retry backoff accumulated.

    /** All attempts failed: the last-good artifact keeps serving and
     *  the service re-attempts next epoch (degraded mode). */
    bool quarantined = false;

    /** The shipped artifact passed the static verifier (true on
     *  success; false when quarantined — nothing new shipped). */
    bool verifierClean = false;

    /** Generation stamp of the artifact serving *after* this relink
     *  (unchanged from the previous record when quarantined). */
    uint64_t generation = 0;

    /** Modelled schedule of the relink task graph. */
    sched::ScheduleReport schedule;
};

/**
 * The long-running service.  Construction builds the version chain and
 * collects each version's steady-state load profile; stepEpoch() then
 * advances the deterministic clock one epoch at a time.
 */
class FleetService
{
  public:
    explicit FleetService(FleetOptions opts);
    ~FleetService();
    FleetService(const FleetService &) = delete;
    FleetService &operator=(const FleetService &) = delete;

    const FleetOptions &options() const;

    /**
     * Attach chaos hooks (not owned; nullptr detaches).  Hooks attached
     * mid-run only affect epochs not yet stepped.
     */
    void setChaosHooks(FleetChaosHooks *hooks);

    /** Ingest one epoch of fleet shards; relink on a threshold cross
     *  (or re-attempt a quarantined relink). */
    void stepEpoch();

    /** stepEpoch() @p epochs times. */
    void run(uint32_t epochs);

    /**
     * Relink now regardless of the drift metric (flagged `forced` in
     * the record, excluded from driftCrossings()).  Requires at least
     * one epoch of ingested samples.
     */
    void relinkNow();

    // ---- Runtime fleet configuration --------------------------------

    /**
     * Extend the version chain by one drift episode on top of the
     * current newest version (canary rollout seam: push a new build to
     * a live fleet).  Returns the new version's index.  The new version
     * emits no shards until machines migrate to it — follow with
     * setTargetVersion() to start the canary.
     */
    uint32_t addVersion();

    /**
     * Retarget relinks (and post-release machine migration) at version
     * @p v.  The version must not be retired.
     */
    void setTargetVersion(uint32_t v);

    /**
     * Retire version @p v: its machines migrate off immediately (to the
     * target, or — when @p v *is* the target, the canary-rollback case
     * — to the newest non-retired version, which becomes the target).
     * The version stops emitting; its in-flight and decaying samples
     * still route through the stale matcher until they age out.  At
     * least one version must remain.
     */
    void retireVersion(uint32_t v);

    bool versionRetired(uint32_t v) const;

    /** Versions in the chain, including retired ones. */
    uint32_t versionCount() const;

    uint32_t epochsRun() const;
    uint32_t targetVersion() const;

    /** Epochs whose drift metric exceeded the threshold. */
    uint32_t driftCrossings() const;

    /**
     * Degraded mode: the most recent relink was quarantined after
     * exhausting its retries, and the service is serving the last-good
     * generation while re-attempting each epoch.
     */
    bool degraded() const;

    /** Generation stamp of the currently served artifact (0 = none
     *  shipped yet; bumped only by successful, verified relinks). */
    uint64_t generation() const;

    const std::vector<EpochStats> &history() const;
    const std::vector<RelinkRecord> &relinks() const;

    /** Cumulative per-machine ingest health. */
    const std::map<uint32_t, MachineHealth> &machineHealth() const;

    /** Service-wide fault-detection totals. */
    const FaultDetection &detection() const;

    /** The last *successful* relink's output binary (the last-good
     *  artifact during quarantine).  Requires >= 1 shipped relink. */
    const linker::Executable &shippedBinary() const;

    /** The combined DCFG the last successful relink was driven by. */
    const core::WholeProgramDcfg &lastRelinkDcfg() const;

    /** The last successful relink's WPA artifacts (cc_prof/ld_prof). */
    const core::WpaResult &lastRelinkWpa() const;

    /** Function names primed for digest-alias layout lookups at the
     *  last relink (drifted-but-matched per the stale matcher). */
    const std::set<std::string> &lastPrimeFunctions() const;

    /** Version @p v's metadata binary (profiling target). */
    const linker::Executable &versionBinary(uint32_t v) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Regenerate version @p v's program: v0 is the pristine build of
 * `opts.base`, each later version replays one more drift episode — the
 * exact recipe the service uses internally (including for versions
 * added at runtime), so callers comparing against a service's relinks
 * get byte-identical programs.
 */
ir::Program makeVersionProgram(const FleetOptions &opts, uint32_t v);

/** Per-(function, block) frequency shares of @p dcfg (the drift
 *  metric's distribution). */
std::map<std::pair<std::string, uint32_t>, double>
blockDistribution(const core::WholeProgramDcfg &dcfg);

/** Total-variation distance between two share distributions, in
 *  [0, 1]; an empty side counts as completely disjoint. */
double
totalVariation(const std::map<std::pair<std::string, uint32_t>, double> &a,
               const std::map<std::pair<std::string, uint32_t>, double> &b);

/** Multi-line human-readable statusz page. */
std::string renderStatuszText(const FleetService &service);

/** The same page as a JSON document (the CI/monitoring form). */
std::string renderStatuszJson(const FleetService &service);

/**
 * Render the JSON statusz page to @p path.  A malformed or unwritable
 * path is a typed usage error, never a silent failure or an abort.
 */
support::Status writeStatuszFile(const FleetService &service,
                                 const std::string &path);

} // namespace propeller::fleet

#endif // PROPELLER_SERVICE_FLEET_H
