#include "propeller/propeller.h"

#include <optional>

#include "propeller/addr_map_index.h"
#include "sched/sched.h"
#include "support/hash.h"

namespace propeller::core {

/**
 * Stage state shared by build/layout/finish.  The memory-meter charge
 * sequence below is the same one the original monolithic function
 * performed, in the same order, so peakMemory stays bit-identical no
 * matter how the middle stages are scheduled.
 */
struct WpaPipeline::Impl
{
    const linker::Executable &exe;
    const profile::Profile &prof;
    LayoutOptions opts;
    unsigned jobs;

    MemoryMeter local;
    WpaResult result;
    std::optional<AddrMapIndex> index;
    std::optional<WholeProgramDcfg> dcfg;
    std::optional<LayoutContext> layout;
    uint64_t hotNodes = 0;

    // Staged-ingestion state (alive between prepare() and applyDcfg()).
    std::vector<profile::AggregatedProfile> aggSlots;
    std::optional<profile::AggregatedProfile> agg;
    std::optional<DcfgMapper> mapper;

    // Injected DCFG (fleet service seam): consumed by applyDcfg() in
    // place of the mapper's output, which then lands in profileDcfg.
    std::optional<WholeProgramDcfg> pendingDcfg;
    std::optional<WholeProgramDcfg> profileDcfg;

    Impl(const linker::Executable &e, const profile::Profile &p,
         const LayoutOptions &o, unsigned j)
        : exe(e), prof(p), opts(o), jobs(j)
    {
    }

    WpaPipeline::IngestPlan
    prepare()
    {
        // Identity check: a profile collected on a different build must
        // not be silently mis-mapped by address.  (Profiles without
        // identity — e.g. hand-built in tests — are accepted as-is.)
        result.stats.profileMismatch =
            prof.binaryHash != 0 && prof.binaryHash != exe.identityHash;

        // Reading and decoding the raw profile (chunked reading could
        // lower this, as the paper notes in section 5.1).
        result.stats.profileBytes = prof.sizeInBytes();
        local.charge(result.stats.profileBytes * 2);

        WpaPipeline::IngestPlan plan;
        plan.aggregationShards = profile::aggregationShardCount(prof);
        aggSlots.resize(plan.aggregationShards);
        return plan;
    }

    void
    aggregateShard(size_t shard)
    {
        profile::aggregateShardInto(prof, shard, aggSlots[shard]);
    }

    void
    mergeAggregation()
    {
        // Serial shard-order fold: the aggregation maps' iteration
        // order — which everything downstream consumes — depends only
        // on the profile and the shard size, never the schedule.
        agg.emplace(profile::mergeAggregationShards(aggSlots));
        aggSlots.clear();
        aggSlots.shrink_to_fit();
        local.charge((agg->branches.size() + agg->ranges.size()) * 48);
    }

    void
    buildIndex()
    {
        // The BB address map interval index (sanitizing construction:
        // functions with inconsistent metadata drop out here).
        // Independent of the aggregation shards, so the schedule may
        // overlap the two; the meter's charges are monotonic within the
        // build, so the recorded peak is order independent.
        index.emplace(exe);
        result.stats.indexFootprint = index->footprint();
        result.stats.quarantinedFunctions = index->quarantined();
        result.stats.quarantined =
            static_cast<uint32_t>(index->quarantined().size());
        local.charge(result.stats.indexFootprint);
    }

    void
    beginMapping()
    {
        mapper.emplace(*agg, *index);
    }

    void
    applyDcfg()
    {
        // The whole-program DCFG: proportional to *sampled* code only —
        // this is the design property that bounds Phase 3 memory
        // (section 3.5).  The profile's own mapping is built even when
        // an injected DCFG is laid out instead, because the Phase 5 flow
        // lint judges the profile; the injection keeps the mapper stats
        // at zero.
        if (pendingDcfg) {
            profileDcfg.emplace(mapper->apply());
            dcfg.emplace(std::move(*pendingDcfg));
            pendingDcfg.reset();
        } else {
            dcfg.emplace(mapper->apply(&result.stats.mapper));
        }
        mapper.reset();
        agg.reset();
        result.stats.dcfgFootprint = dcfg->footprint();
        local.charge(result.stats.dcfgFootprint);

        for (const auto &fn : dcfg->functions)
            hotNodes += fn.nodes.size();
        if (!opts.interProcedural)
            layout.emplace(*dcfg, *index, opts);
    }

    void
    build()
    {
        WpaPipeline::IngestPlan plan = prepare();
        sched::parallelFor(jobs, plan.aggregationShards,
                           [&](size_t s) { aggregateShard(s); });
        mergeAggregation();
        buildIndex();
        beginMapping();
        mapper->resolve(jobs);
        applyDcfg();
    }

    uint64_t
    layoutFingerprint(size_t f) const
    {
        const FunctionDcfg &fn = dcfg->functions[f];
        return layoutMemoFingerprint(fn, *index,
                                     index->findFunction(fn.function));
    }

    uint64_t
    layoutInputDigest(size_t f) const
    {
        const FunctionDcfg &fn = dcfg->functions[f];
        return core::layoutInputDigest(fn, *index,
                                       index->findFunction(fn.function));
    }

    WpaResult
    assemble(LayoutResult layoutResult, MemoryMeter *meter)
    {
        result.ccProf = std::move(layoutResult.ccProf);
        result.ldProf = std::move(layoutResult.ldProf);
        result.hotFunctions = std::move(layoutResult.hotFunctions);
        result.stats.extTsp = layoutResult.extTspStats;
        result.stats.hotFunctions =
            static_cast<uint32_t>(result.hotFunctions.size());
        result.stats.peakMemory = local.peak();
        if (meter) {
            meter->charge(result.stats.peakMemory);
            meter->release(result.stats.peakMemory);
        }
        return std::move(result);
    }
};

WpaPipeline::WpaPipeline(const linker::Executable &metadata_exe,
                         const profile::Profile &prof,
                         const LayoutOptions &opts, unsigned jobs)
    : impl_(std::make_unique<Impl>(metadata_exe, prof, opts, jobs))
{
}

WpaPipeline::~WpaPipeline() = default;

void
WpaPipeline::build()
{
    impl_->build();
}

WpaPipeline::IngestPlan
WpaPipeline::prepare()
{
    return impl_->prepare();
}

void
WpaPipeline::aggregateShard(size_t shard)
{
    impl_->aggregateShard(shard);
}

void
WpaPipeline::mergeAggregation()
{
    impl_->mergeAggregation();
}

void
WpaPipeline::buildIndex()
{
    impl_->buildIndex();
}

void
WpaPipeline::beginMapping()
{
    impl_->beginMapping();
}

void
WpaPipeline::resolveShard(size_t shard, size_t shardCount)
{
    impl_->mapper->resolveShard(shard, shardCount);
}

void
WpaPipeline::applyDcfg()
{
    impl_->applyDcfg();
}

uint64_t
WpaPipeline::layoutFingerprint(size_t f) const
{
    return impl_->layoutFingerprint(f);
}

uint64_t
WpaPipeline::layoutInputDigest(size_t f) const
{
    return impl_->layoutInputDigest(f);
}

void
WpaPipeline::overrideDcfg(WholeProgramDcfg dcfg)
{
    impl_->pendingDcfg.emplace(std::move(dcfg));
}

const WholeProgramDcfg &
WpaPipeline::dcfg() const
{
    return *impl_->dcfg;
}

size_t
WpaPipeline::functionCount() const
{
    return impl_->dcfg->functions.size();
}

FunctionLayout
WpaPipeline::layoutFunction(size_t f) const
{
    return impl_->layout->layoutFunction(f);
}

LdProfile
WpaPipeline::globalOrder() const
{
    return impl_->layout->globalOrder();
}

WpaResult
WpaPipeline::finish(std::vector<FunctionLayout> slots, LdProfile order,
                    MemoryMeter *meter)
{
    // Layout computation working set (chains, pairs, heap).  The charge
    // brackets the merge just as the monolithic path bracketed the full
    // computeLayout call; peak accounting is identical because nothing
    // is released between build() and here.
    LayoutResult merged;
    {
        ScopedCharge working(impl_->local, impl_->hotNodes * 160);
        merged =
            impl_->layout->merge(std::move(slots), std::move(order));
    }
    return impl_->assemble(std::move(merged), meter);
}

WholeProgramDcfg
WpaPipeline::takeProfileDcfg()
{
    return std::move(impl_->profileDcfg ? *impl_->profileDcfg
                                        : *impl_->dcfg);
}

WpaResult
WpaPipeline::finishMonolithic(MemoryMeter *meter)
{
    LayoutResult merged;
    {
        ScopedCharge working(impl_->local, impl_->hotNodes * 160);
        merged = computeLayout(*impl_->dcfg, *impl_->index, impl_->opts,
                               impl_->jobs);
    }
    return impl_->assemble(std::move(merged), meter);
}

WpaResult
runWholeProgramAnalysis(const linker::Executable &metadata_exe,
                        const profile::Profile &prof,
                        const LayoutOptions &opts, unsigned jobs,
                        MemoryMeter *meter)
{
    // The serial composition: computeLayout's per-function loop merges
    // in function order, byte-identical to the relink's task graph,
    // which runs the same stages as graph tasks.
    WpaPipeline pipeline(metadata_exe, prof, opts, jobs);
    pipeline.build();
    return pipeline.finishMonolithic(meter);
}

} // namespace propeller::core
