#ifndef PROPELLER_PROPELLER_PROFILE_MAPPER_H
#define PROPELLER_PROPELLER_PROFILE_MAPPER_H

/**
 * @file
 * Mapping aggregated LBR profiles onto machine basic blocks (section 3.3).
 *
 * Taken-branch records become branch edges; the straight-line gaps between
 * consecutive LBR records are walked block-by-block through the address
 * map to recover fall-through edge counts.  Cross-function records whose
 * destination is a function entry become call edges.  Everything is done
 * through the BB address map — no instruction bytes are inspected.
 */

#include <memory>

#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/dcfg.h"

namespace propeller::core {

/** Mapper statistics (also used for memory accounting). */
struct MapperStats
{
    uint64_t branchEdges = 0;
    uint64_t fallThroughEdges = 0;
    uint64_t callEdges = 0;
    uint64_t returnRecords = 0;   ///< Records mapped to returns (ignored).
    uint64_t unmappedRecords = 0; ///< Records outside the address map.
    uint64_t rangeWalkTruncated = 0;
};

/**
 * Staged profile-to-DCFG mapper, for schedulers that want record
 * resolution as independent tasks.
 *
 * The constructor snapshots the aggregation maps' iteration order into
 * per-record slots; `resolveShard` does the read-only address lookups
 * and fall-through range walks for one fraction slice of the branch and
 * range records, and slices may run concurrently; `apply` then feeds
 * the mutable DCFG builder serially in slot order.  Because node
 * numbering is first-touch order over that fixed sequence, the
 * resulting graph is byte-identical however the records were sliced and
 * scheduled.
 */
class DcfgMapper
{
  public:
    DcfgMapper(const profile::AggregatedProfile &agg,
               const AddrMapIndex &index);
    ~DcfgMapper();
    DcfgMapper(const DcfgMapper &) = delete;
    DcfgMapper &operator=(const DcfgMapper &) = delete;

    /** Resolve slice @p shard of @p shardCount of both record arrays;
     *  thread-safe across distinct slices. */
    void resolveShard(size_t shard, size_t shardCount);

    /** Resolve every slice: one sched::parallelFor over resolveShard
     *  on up to @p threads threads (0 = all hardware threads). */
    void resolve(unsigned threads);

    /** Serial application: all slots must be resolved. Call once. */
    WholeProgramDcfg apply(MapperStats *stats = nullptr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Build the whole-program DCFG from an aggregated profile.
 *
 * @param threads workers for the read-only record-resolution phase
 *        (address lookups and fall-through range walks); 0 = all hardware
 *        threads.  Resolved records land in per-record slots and the
 *        mutable DCFG builder consumes them serially in record order, so
 *        the graph is byte-identical at any thread count.
 */
WholeProgramDcfg buildDcfg(const profile::AggregatedProfile &agg,
                           const AddrMapIndex &index,
                           MapperStats *stats = nullptr,
                           unsigned threads = 1);

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_PROFILE_MAPPER_H
