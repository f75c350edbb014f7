#ifndef PROPELLER_PROFILE_PROFILE_H
#define PROPELLER_PROFILE_PROFILE_H

/**
 * @file
 * Hardware sample profiles.
 *
 * Substitute for perf.data with Intel Last Branch Records (paper section
 * 3.3).  The machine simulator snapshots its 32-entry LBR ring every
 * sampling period; each snapshot is the (source, destination) address pairs
 * of the most recently retired taken branches, exactly the payload Linux
 * perf delivers.  The same profile object drives both Propeller's Phase 3
 * whole-program analysis and BOLT's perf2bolt conversion, matching the
 * paper's fairness methodology (section 5).
 */

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/status.h"

namespace propeller::profile {

/** Source/destination address pair of one retired taken branch. */
struct BranchRecord
{
    uint64_t from = 0; ///< Address of the branch instruction.
    uint64_t to = 0;   ///< Address of the target instruction.

    bool operator==(const BranchRecord &) const = default;
};

/** Number of LBR entries per sample (Intel Skylake). */
constexpr unsigned kLbrDepth = 32;

/**
 * One LBR snapshot: up to 32 records ordered oldest first.  Early samples
 * taken before the ring fills carry fewer records.
 */
struct LbrSample
{
    std::array<BranchRecord, kLbrDepth> records{};
    uint8_t count = 0;
};

/** A full profiling session ("perf.data"). */
struct Profile
{
    uint64_t binaryHash = 0;    ///< Identity of the profiled binary.
    uint64_t totalRetired = 0;  ///< Instructions retired while profiling.
    std::vector<LbrSample> samples;

    /** Serialized size in bytes (what profile conversion must read). */
    uint64_t sizeInBytes() const;

    /**
     * Wire format: 4-byte magic, ULEB128 fields, and a trailing 8-byte
     * FNV-1a checksum over everything before it.  ULEB128 streams can
     * absorb bit flips silently; the checksum is what turns any
     * corruption into a *detected* rejection (ISSUE 4).
     */
    std::vector<uint8_t> serialize() const;

    /** Decode @p data; corruption is a typed error, never an abort. */
    static support::StatusOr<Profile>
    deserializeChecked(const std::vector<uint8_t> &data);

    /** Decode @p data, aborting on corruption (trusted-input paths). */
    static Profile deserialize(const std::vector<uint8_t> &data);
};

/** Outcome of salvaging a sharded profile (see loadShards()). */
struct ShardLoadStats
{
    uint32_t shardsTotal = 0;    ///< Shards presented.
    uint32_t shardsRejected = 0; ///< Shards dropped as corrupt.
    std::string firstError;      ///< Diagnostic for the first rejection.

    /**
     * Per-shard binary version stamp, parallel to the input shard list
     * (0 for rejected shards).  Every shard is a complete Profile
     * serialization carrying its own binaryHash, so a mixed-version
     * shard set can be diagnosed per shard — and routed per version by
     * the fleet service — instead of being rejected wholesale against
     * the first shard's stamp.
     */
    std::vector<uint64_t> shardVersions;

    /** Distinct nonzero version stamps among accepted shards. */
    uint32_t distinctVersions = 0;
};

/**
 * Split @p profile into independently-decodable shards of at most
 * @p samplesPerShard samples each (0 = one shard).  Every shard is a
 * complete Profile serialization carrying the session's binaryHash and
 * totalRetired, so losing any subset of shards loses only those samples.
 */
std::vector<std::vector<uint8_t>>
serializeShards(const Profile &profile, uint32_t samplesPerShard);

/**
 * Reassemble a profile from shards, dropping (and counting) corrupt
 * ones.  This is the "degrade, don't die" ingest path: a bit-flipped
 * shard costs its samples, not the run.
 */
Profile loadShards(const std::vector<std::vector<uint8_t>> &shards,
                   ShardLoadStats *stats = nullptr);

/**
 * Aggregated form: branch edge counts plus fall-through ranges.
 *
 * A fall-through range (to_i .. from_{i+1}) between consecutive LBR
 * records covers the straight-line instructions executed between two taken
 * branches; walking those ranges recovers fall-through edge counts without
 * disassembly (paper section 3.3).
 */
struct AggregatedProfile
{
    /** (from << 32 | to-offset) keyed taken-branch counts. */
    std::unordered_map<uint64_t, uint64_t> branches;

    /** (start << 32 | end-offset) keyed fall-through range counts. */
    std::unordered_map<uint64_t, uint64_t> ranges;

    uint64_t totalBranchEvents = 0;

    /** Pack two text addresses into one key (text is < 4 GiB). */
    static uint64_t
    key(uint64_t a, uint64_t b)
    {
        return (a << 32) | (b & 0xffffffffull);
    }

    static uint64_t keyFrom(uint64_t k) { return k >> 32; }
    static uint64_t keyTo(uint64_t k) { return k & 0xffffffffull; }

    /** Fold @p other's counters into this one (sharded aggregation). */
    void merge(const AggregatedProfile &other);
};

/** Options for sharded profile aggregation. */
struct AggregationOptions
{
    /** Worker threads (0 = hardware_concurrency()). */
    unsigned threads = 0;

    /**
     * Samples per aggregation shard.  Shard boundaries are a pure
     * function of the profile size — never of the thread count — and
     * shards merge serially in shard order, so the aggregated maps (and
     * everything downstream that consumes their iteration order) are
     * byte-identical at any thread count.
     */
    static constexpr uint32_t samplesPerShard = 4096;
};

/** Aggregate raw LBR samples into edge and range counts. */
AggregatedProfile aggregate(const Profile &profile);

/** Sharded aggregation: per-shard counters merged once at the end. */
AggregatedProfile aggregate(const Profile &profile,
                            const AggregationOptions &opts);

/**
 * Staged aggregation, for schedulers that want each shard as its own
 * task: the number of shards is a pure function of the profile size
 * (`AggregationOptions::samplesPerShard`, never the thread count), each
 * shard aggregates independently into its slot, and
 * `mergeAggregationShards` folds the slots serially in shard order —
 * byte-identical to `aggregate(profile, opts)` under any execution order
 * of the shards.
 */
size_t aggregationShardCount(const Profile &profile);

/** Aggregate shard @p shard (of aggregationShardCount) into @p out. */
void aggregateShardInto(const Profile &profile, size_t shard,
                        AggregatedProfile &out);

/** Serial shard-order merge of per-shard slots (slot 0 is the base). */
AggregatedProfile
mergeAggregationShards(std::vector<AggregatedProfile> &slots);

/**
 * Recency-weighted rolling aggregate for the continuous-profiling loop:
 * the last `window` epochs of integer counters are retained and an
 * epoch observed d epochs ago contributes with weight decay^d (decay in
 * (0, 1]) — older epochs never outweigh newer ones at equal counts, and
 * epochs older than the window stop contributing entirely.
 *
 * Truncating the exponential tail is what makes steady state *exact*:
 * once the window holds identical epochs, every quantize() call runs
 * the same arithmetic on the same integers and emits byte-identical
 * results — whereas an untruncated rolling sum R = R*decay + E carries
 * a forever-shrinking residue from before the mix stabilized, and its
 * rounded snapshots keep flickering for dozens of epochs.  Downstream
 * consumers that key caches on the quantized counts (the fleet
 * service's layout-fingerprint reuse) depend on this.
 *
 * Each key's weighted value folds in fixed window order from integer
 * per-epoch counts, never map iteration order, and the accumulation map
 * is ordered, so quantize() emits keys in sorted order — the whole
 * state is byte-deterministic for a deterministic epoch sequence
 * regardless of shard arrival order inside an epoch (the epoch counters
 * come from the order-invariant sharded aggregation above).
 */
class DecayedAggregate
{
public:
    explicit DecayedAggregate(uint32_t window = 8);

    /** Append one epoch's counters as the newest window entry.  The
     *  decay factor must be identical across every fold. */
    void fold(const AggregatedProfile &epoch, double decay);

    /**
     * Merge @p late into the window entry observed @p age epochs ago
     * (0 = the newest fold) — the landing path for profile shards that
     * arrive epochs after they were emitted: a laggy machine's samples
     * belong to the epoch it *ran*, not the epoch the wire delivered
     * them, so they join that epoch's slot and decay on its clock.
     * Returns false (and folds nothing) when the slot already slid out
     * of the window — samples that old no longer influence the mix.
     */
    bool addAt(uint32_t age, const AggregatedProfile &late);

    /**
     * Integer snapshot of the windowed state (llround per key); keys
     * whose weighted count rounds to zero are dropped.
     *
     * With @p scaleTo nonzero the snapshot is rescaled so the heaviest
     * branch key lands exactly on @p scaleTo before rounding.  The
     * common geometric factor of the window cancels *before* any
     * rounding, so at a constant epoch mix the scaled snapshot is
     * exactly stable — the normalization the fleet service relies on
     * for warm layout-fingerprint hits.
     */
    AggregatedProfile quantize(uint64_t scaleTo = 0) const;

    /** Epochs folded so far (including sample-free epochs). */
    uint64_t epochs() const { return epochs_; }

    /** Decay-weighted branch-event mass over the window (the fleet
     *  service's cross-version mixing weight). */
    double totalBranchWeight() const;

    /** True when no window epoch carries any samples (a binary version
     *  whose machines have all migrated away ages out like this). */
    bool empty() const;

private:
    std::vector<AggregatedProfile> window_; ///< Newest first.
    uint32_t windowSize_ = 8;
    double decay_ = 0.0; ///< Fixed by the first fold().
    uint64_t epochs_ = 0;
};

} // namespace propeller::profile

#endif // PROPELLER_PROFILE_PROFILE_H
