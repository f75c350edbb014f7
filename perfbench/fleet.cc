/**
 * @file
 * The `fleet` workload: fleet::FleetService over the bigtable-shaped app
 * with chaos off, 32 machines on a 3-version chain (10% drift between
 * versions), LBR period 500, stepped through fixed 100-epoch schedules,
 * each on its own program and a freshly constructed service.
 * The first epoch, the release at epoch 2 and the machine migration
 * after it (2 machines per epoch) cross the 0.025 drift threshold ~5
 * times; the remaining epochs are converged single-version ingestion.
 * Every relink but a schedule's first starts warm from the cache image
 * the previous relink saved.
 */

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "bench.h"
#include "build/workflow.h"
#include "propeller/profile_mapper.h"
#include "replay.h"
#include "service/fleet.h"
#include "stale/stale.h"

namespace perfbench {

namespace {

constexpr uint32_t kMachines = 32;
constexpr uint32_t kVersions = 3;
constexpr double kInterVersionDrift = 0.10;
constexpr double kDriftThreshold = 0.025;
constexpr uint64_t kLbrPeriod = 500;
constexpr uint32_t kEpochs = 100;
constexpr uint32_t kMinSchedules = 3;

/**
 * The options of schedule @p k.  Each schedule runs its own program, so
 * a run averages over programs whose drift crosses the threshold a
 * different number of times; schedule 0 is the traced run's.
 */
fleet::FleetOptions
fleetOptions(const Args &args, const std::string &cachePath, uint32_t k)
{
    const uint64_t seed = k == 0 ? args.seed : deriveSeed(args.seed, 100 + k);
    fleet::FleetOptions o;
    o.base = appConfig(seed, args.jobs);
    o.base.sampleLbrPeriod = kLbrPeriod;
    o.machines = kMachines;
    o.versions = kVersions;
    o.interVersionDrift = kInterVersionDrift;
    o.driftThreshold = kDriftThreshold;
    o.arrivalShuffleSeed = deriveSeed(seed, 2);
    o.cachePath = cachePath;
    return o;
}

/** What the traced run needs of every version, replayed once. */
struct VersionInputs
{
    std::vector<elf::ObjectFile> phase2;
    profile::Profile profile; ///< Steady-state load profile.
    std::unique_ptr<core::AddrMapIndex> index;
};

/**
 * The service's machine -> version assignment, replayed: machines start
 * spread over every version but the newest; from the release epoch on,
 * the newest version is the target and `upgradesPerEpoch` machines
 * migrate to it per epoch, lowest index first.
 */
struct MachineMap
{
    std::vector<uint32_t> version;
    uint32_t target = 0;

    explicit MachineMap(const fleet::FleetOptions &o)
        : version(o.machines), target(o.versions - 2)
    {
        for (uint32_t m = 0; m < o.machines; ++m)
            version[m] = m % (o.versions - 1);
    }

    void
    step(const fleet::FleetOptions &o, uint32_t epoch)
    {
        if (epoch == o.releaseEpoch)
            target = o.versions - 1;
        if (epoch <= o.releaseEpoch)
            return;
        uint32_t moved = 0;
        for (uint32_t m = 0; m < o.machines && moved < o.upgradesPerEpoch;
             ++m) {
            if (version[m] != target) {
                version[m] = target;
                ++moved;
            }
        }
    }
};

/**
 * What a merge of per-version DCFGs adds up to: the service's merge sums
 * node frequencies, edge weights and call weights by key, so these
 * totals survive it.  Compared against the DCFG a relink consumed.
 */
struct MergeTotals
{
    std::set<std::string> functions;
    std::set<std::string> primed; ///< Functions whose hash drifted.
    uint64_t nodeFreq = 0;
    uint64_t edgeWeight = 0;
    uint64_t callWeight = 0;

    void
    add(const core::WholeProgramDcfg &dcfg)
    {
        for (const core::FunctionDcfg &fn : dcfg.functions) {
            functions.insert(fn.function);
            for (const core::DcfgNode &n : fn.nodes)
                nodeFreq += n.freq;
            for (const core::DcfgEdge &e : fn.edges)
                edgeWeight += e.weight;
        }
        for (const core::CallEdge &ce : dcfg.callEdges)
            callWeight += ce.weight;
    }

    bool operator==(const MergeTotals &) const = default;
};

/**
 * One epoch's ingestion, replayed layer by layer as the service does it:
 * each machine's wire shards encoded and decoded (`profile.encode`/
 * `profile.decode`); each version's samples aggregated, folded into the
 * version's decayed window and the window quantized to the version's
 * share of the fleet's branch mass (`profile.aggregate`); every version
 * with a non-empty window turned into a DCFG in its own address space
 * (`propeller.dcfg`) and matched onto the target (`stale.match`/
 * `stale.infer`).  @p windows carries the decayed windows across epochs,
 * so every epoch of the schedule is replayed, traced or not.  Checks the
 * samples routed to each version against @p es.
 * @return the totals of the matched DCFGs the service merges.
 */
MergeTotals
replayEpoch(Trace &t, uint32_t op, uint32_t parent,
            const fleet::FleetOptions &o, const MachineMap &machines,
            const std::vector<VersionInputs> &versions,
            std::vector<profile::DecayedAggregate> &windows,
            const fleet::EpochStats &es, std::vector<std::string> &failed)
{
    std::vector<uint64_t> samples(versions.size(), 0);
    std::vector<profile::AggregatedProfile> quant(versions.size());
    {
        Scope g(t, "profile", op, parent, true);
        std::vector<std::pair<uint32_t, std::vector<uint8_t>>> wire;
        {
            Scope s(t, "profile.encode", op, g.id());
            for (uint32_t m = 0; m < o.machines; ++m) {
                const uint32_t v = machines.version[m];
                const profile::Profile &full = versions[v].profile;
                profile::Profile slice;
                slice.binaryHash = full.binaryHash;
                slice.totalRetired = full.totalRetired / o.machines;
                for (size_t i = m; i < full.samples.size(); i += o.machines)
                    slice.samples.push_back(full.samples[i]);
                for (auto &bytes :
                     profile::serializeShards(slice, o.shardSamples))
                    wire.emplace_back(v, std::move(bytes));
            }
        }
        std::vector<profile::Profile> byVersion(versions.size());
        {
            Scope s(t, "profile.decode", op, g.id());
            for (const auto &[v, bytes] : wire) {
                profile::Profile p = profile::loadShards({bytes});
                profile::Profile &acc = byVersion[v];
                acc.binaryHash = p.binaryHash;
                acc.totalRetired += p.totalRetired;
                acc.samples.insert(acc.samples.end(), p.samples.begin(),
                                   p.samples.end());
                samples[v] += p.samples.size();
            }
        }
        {
            Scope s(t, "profile.aggregate", op, g.id());
            profile::AggregationOptions ao;
            ao.threads = 1;
            double totalWeight = 0.0;
            for (size_t v = 0; v < versions.size(); ++v) {
                profile::AggregatedProfile epoch;
                if (!byVersion[v].samples.empty())
                    epoch = profile::aggregate(byVersion[v], ao);
                windows[v].fold(epoch, o.decay);
                if (!windows[v].empty())
                    totalWeight += windows[v].totalBranchWeight();
            }
            for (size_t v = 0; v < versions.size(); ++v) {
                if (windows[v].empty())
                    continue;
                const double share =
                    windows[v].totalBranchWeight() / totalWeight;
                const auto scaleTo = static_cast<uint64_t>(std::llround(
                    static_cast<double>(o.freqResolution) * share));
                quant[v] =
                    windows[v].quantize(std::max<uint64_t>(scaleTo, 1));
            }
        }
        uint64_t total = 0;
        for (size_t v = 0; v < versions.size(); ++v) {
            const auto it = es.samplesByVersion.find(v);
            if (samples[v] !=
                (it == es.samplesByVersion.end() ? 0 : it->second))
                failed.push_back("replayed ingestion routed a different "
                                 "sample count to version " +
                                 std::to_string(v));
            total += samples[v];
        }
        t.count(op, "profile.samples", static_cast<double>(total));
    }

    std::vector<bool> present(versions.size());
    for (size_t v = 0; v < versions.size(); ++v)
        present[v] = !quant[v].branches.empty() || !quant[v].ranges.empty();

    std::vector<core::WholeProgramDcfg> dcfgs(versions.size());
    {
        Scope g(t, "propeller", op, parent, true);
        uint64_t records = 0;
        uint64_t unmapped = 0;
        {
            Scope s(t, "propeller.dcfg", op, g.id());
            for (size_t v = 0; v < versions.size(); ++v) {
                if (!present[v])
                    continue;
                core::MapperStats ms;
                dcfgs[v] = core::buildDcfg(quant[v], *versions[v].index,
                                           &ms, 1);
                records += quant[v].branches.size() + quant[v].ranges.size();
                unmapped += ms.unmappedRecords;
            }
        }
        t.count(op, "propeller.mapped_frac",
                records == 0 ? 1.0 : 1.0 - ratio(unmapped, records));
    }

    MergeTotals totals;
    {
        Scope g(t, "stale", op, parent, true);
        const core::AddrMapIndex &target = *versions[machines.target].index;
        std::vector<stale::StaleMatchResult> matches(versions.size());
        {
            Scope s(t, "stale.match", op, g.id());
            for (size_t v = 0; v < versions.size(); ++v) {
                if (present[v])
                    matches[v] = stale::matchStaleProfile(
                        dcfgs[v], *versions[v].index, target);
            }
        }
        {
            Scope s(t, "stale.infer", op, g.id());
            for (size_t v = 0; v < versions.size(); ++v) {
                if (present[v])
                    stale::inferStaleCounts(matches[v], target);
            }
        }
        uint64_t blocks = 0;
        uint64_t matched = 0;
        for (size_t v = 0; v < versions.size(); ++v) {
            if (!present[v])
                continue;
            const stale::StaleMatchResult &m = matches[v];
            blocks += m.stats.blocksTotal;
            matched += m.stats.blocksExact + m.stats.blocksAnchor;
            totals.add(m.dcfg);
            for (const auto &fh : m.functionHashes) {
                if (fh.profiledHash != fh.targetHash)
                    totals.primed.insert(fh.function);
            }
        }
        t.count(op, "stale.block_match_frac",
                blocks == 0 ? 1.0 : ratio(matched, blocks));
    }
    return totals;
}

/**
 * The relink the service just made, replayed: a Workflow with the same
 * overrides and the cache image as it stood before the epoch (the
 * `build.*` spans), then the lower layers (replayRelink).
 */
void
replayServiceRelink(Trace &t, uint32_t op, uint32_t parent,
                    const fleet::FleetOptions &o,
                    const fleet::FleetService &svc,
                    const std::vector<VersionInputs> &versions,
                    const std::string &snapshot, const std::string &scratch,
                    LayoutMemo &memo, std::vector<std::string> &failed)
{
    const uint32_t target = svc.targetVersion();
    const fleet::RelinkRecord &rec = svc.relinks().back();
    buildsys::Workflow wf(o.base);
    wf.overrideProgram(fleet::makeVersionProgram(o, target));
    profile::Profile stamp;
    stamp.binaryHash = svc.versionBinary(target).identityHash;
    stamp.totalRetired = 1;
    wf.overrideProfile(std::move(stamp));
    wf.overrideDcfg(svc.lastRelinkDcfg());
    wf.setLayoutPrimeFunctions(svc.lastPrimeFunctions());

    SchedTotals sched;
    double relinkS = 0.0;
    double relinkCpu = 0.0;
    {
        Scope g(t, "build", op, parent);
        Stopwatch clock;
        const double cpu0 = cpuNow();
        bool loaded = false;
        {
            Scope s(t, "build.cache_load", op, g.id());
            loaded = wf.loadCacheFile(snapshot);
        }
        relinkS += clock.seconds();
        relinkCpu += cpuNow() - cpu0;
        if (loaded != rec.cacheLoaded)
            failed.push_back("replayed relink saw a different cache image");
        wf.metadataBinary();
        Stopwatch clock2;
        const double cpu1 = cpuNow();
        {
            Scope s(t, "build.wpa", op, g.id());
            wf.wpa();
        }
        sched.add(wf);
        {
            Scope s(t, "build.propeller_binary", op, g.id());
            wf.propellerBinary();
        }
        sched.add(wf);
        {
            Scope s(t, "build.verify", op, g.id());
            wf.verifyReport();
        }
        sched.add(wf);
        {
            Scope s(t, "build.cache_save", op, g.id());
            if (!wf.saveCacheFile(scratch))
                failed.push_back("replayed relink could not save its image");
        }
        relinkS += clock2.seconds();
        relinkCpu += cpuNow() - cpu1;
    }

    const buildsys::CacheStats &ls = wf.layoutCacheStats();
    if (wf.propellerBinary().text != svc.shippedBinary().text)
        failed.push_back("replayed relink differs from the shipped binary");
    if (ls.hits != rec.layoutHits || ls.misses != rec.layoutMisses ||
        ls.primedHits != rec.layoutPrimedHits)
        failed.push_back("replayed relink's layout cache differs");
    countRelink(t, op, wf, sched, relinkS, relinkCpu, scratch);

    RelinkCase c = relinkCase(wf, versions[target].phase2);
    c.dcfg = &svc.lastRelinkDcfg();
    c.primed = &svc.lastPrimeFunctions();
    replayRelink(t, op, parent, c, memo, failed);
}

/** Everything one run shares across its schedules. */
struct FleetRun
{
    FleetRun(const Args &a, Report &r, Trace &t)
        : args(a), rep(r), trace(t),
          cachePath(a.workdir + "/fleet.cache"),
          snapshot(a.workdir + "/fleet.snapshot.cache"),
          scratch(a.workdir + "/fleet.replay.cache")
    {
    }

    const Args &args;
    Report &rep;
    Trace &trace;
    fleet::FleetOptions opts; ///< The current schedule's.
    std::string cachePath;
    std::string snapshot; ///< The cache image before the current epoch.
    std::string scratch;  ///< Where relink replays save their image.
    std::vector<VersionInputs> versions; ///< Traced runs only.
    uint32_t shippedVersion = 0; ///< Target of the latest relink.
    std::vector<double> speedups; ///< Per schedule, percent.
    uint64_t layoutHits = 0;      ///< Over every relink of the run.
    uint64_t layoutLookups = 0;
    uint64_t relinks = 0;
    uint32_t schedule = 0; ///< Index of the current schedule.
    double wall = 0.0; ///< Seconds spent inside stepEpoch().
    uint32_t op = 0;
};

/** Replays what construction did, per version; the epoch replays reuse
 *  the profiles, objects and indexes. */
void
replayConstruction(FleetRun &run, const fleet::FleetService &svc)
{
    Trace &t = run.trace;
    const uint32_t opSpan = t.open("op", run.op, 0);
    for (uint32_t v = 0; v < kVersions; ++v) {
        VersionInputs in;
        ir::Program program;
        {
            Scope g(t, "workload", run.op, opSpan);
            Scope s(t, "workload.generate", run.op, g.id());
            program = fleet::makeVersionProgram(run.opts, v);
        }
        in.phase2 = replayCompile(t, run.op, opSpan, program);
        {
            Scope g(t, "sim", run.op, opSpan);
            sim::RunResult r;
            {
                Scope s(t, "sim.profile", run.op, g.id());
                r = sim::run(svc.versionBinary(v),
                             workload::profileOptions(run.opts.base));
            }
            t.count(run.op, "sim.instructions",
                    static_cast<double>(r.counters.instructions));
            in.profile = std::move(r.profile);
        }
        in.index = std::make_unique<core::AddrMapIndex>(svc.versionBinary(v));
        run.versions.push_back(std::move(in));
    }
    t.close(opSpan);
    ++run.op;
}

/** Checks that hold once a schedule has run; they land on its last
 *  epoch. */
void
checkSchedule(FleetRun &run, const fleet::FleetService &svc,
              std::vector<std::string> &failed)
{
    if (svc.relinks().size() != svc.driftCrossings())
        failed.push_back("relinks != drift crossings");
    // The service's own arrival shuffle reorders shards, so sequence
    // inversions are expected; nothing may be lost.
    const fleet::FaultDetection &det = svc.detection();
    if (det.corrupt != 0 || det.duplicates != 0 || det.losses != 0 ||
        det.late != 0 || det.expired != 0 || det.relinkFailures != 0)
        failed.push_back("transport faults detected with chaos off");
    if (svc.relinks().empty()) {
        failed.push_back("the schedule shipped no relink");
        return;
    }
    buildsys::Workflow base(run.opts.base);
    base.overrideProgram(
        fleet::makeVersionProgram(run.opts, run.shippedVersion));
    run.speedups.push_back(simCheck(base.baseline(), svc.shippedBinary(),
                                    run.opts.base, failed));
    for (const fleet::RelinkRecord &r : svc.relinks()) {
        run.layoutHits += r.layoutHits + r.layoutPrimedHits;
        run.layoutLookups += r.layoutHits + r.layoutMisses;
    }
    run.relinks += svc.relinks().size();
}

/** One fixed schedule of kEpochs epochs on @p svc. */
void
runSchedule(FleetRun &run, fleet::FleetService &svc)
{
    Report &rep = run.rep;
    Trace off(false);
    MachineMap machines(run.opts);
    LayoutMemo memo;
    std::vector<profile::DecayedAggregate> windows(
        kVersions, profile::DecayedAggregate(run.opts.decayWindow));
    size_t relinksSeen = 0;
    for (uint32_t e = 0; e < kEpochs; ++e, ++run.op) {
        const uint32_t op = run.op;
        // Traced runs alternate untraced and traced epochs.  Every epoch's
        // ingestion is replayed, untraced ones untimed, so the decayed
        // windows see every epoch; every relink epoch's relink is replayed
        // and timed, so the layout memo sees every relink.
        const bool tracing = run.trace.enabled();
        const bool traced = tracing && e % 2 == 1;
        Trace &t = traced ? run.trace : off;
        if (tracing) {
            std::filesystem::remove(run.snapshot);
            if (std::filesystem::exists(run.cachePath))
                std::filesystem::copy_file(run.cachePath, run.snapshot);
            // A layer replay trims the heap, so the epoch after it faults
            // its pages back in; trimming before every epoch starts both
            // alike.
            trimHeap();
        }
        std::vector<std::string> failed;
        const uint32_t opSpan = t.open("op", op, 0);
        Stopwatch clock;
        const double cpu0 = cpuNow();
        {
            Scope s(t, "step", op, opSpan);
            svc.stepEpoch();
        }
        const double stepS = clock.seconds();
        rep.samples["epoch_cpu_ms"].push_back((cpuNow() - cpu0) * 1e3);
        run.wall += stepS;
        machines.step(run.opts, e);

        const fleet::EpochStats &es = svc.history().back();
        const bool relinked = svc.relinks().size() > relinksSeen;
        relinksSeen = svc.relinks().size();
        rep.samples["epoch_ms"].push_back(stepS * 1e3);
        rep.samples["epoch_relinked"].push_back(relinked ? 1.0 : 0.0);
        rep.samples["epoch_mixed"].push_back(
            es.machinesByVersion.size() > 1 ? 1.0 : 0.0);
        rep.samples["op_traced"].push_back(traced ? 1.0 : 0.0);
        rep.samples["epoch_schedule"].push_back(run.schedule);
        if (relinked) {
            // A schedule's first relink starts from an empty cache; the
            // rest load the image the previous one saved.  relink_s is
            // the warm ones, the service's steady state.
            if (svc.relinks().back().cacheLoaded)
                rep.samples["relink_s"].push_back(stepS);
            run.shippedVersion = svc.targetVersion();
        }

        // ---- Output checks -------------------------------------------
        if (es.shardsRejected != 0 || es.shardsDuplicated != 0 ||
            es.shardsLost != 0 || es.shardsLate != 0 ||
            es.shardsExpired != 0)
            failed.push_back("epoch " + std::to_string(e) +
                             " rejected, lost or duplicated shards");
        if (relinked) {
            const fleet::RelinkRecord &rec = svc.relinks().back();
            if (rec.quarantined || !rec.verifierClean || rec.attempts != 1)
                failed.push_back("relink at epoch " + std::to_string(e) +
                                 " failed or shipped unverified");
        }
        if (tracing) {
            uint32_t parent = opSpan;
            if (!traced && relinked)
                parent = run.trace.open("op", op, 0);
            std::map<uint32_t, uint32_t> counts;
            for (uint32_t v : machines.version)
                ++counts[v];
            if (counts != es.machinesByVersion ||
                machines.target != svc.targetVersion())
                failed.push_back("replayed machine map diverged");
            const MergeTotals totals =
                replayEpoch(t, op, parent, run.opts, machines, run.versions,
                            windows, es, failed);
            if (relinked) {
                MergeTotals consumed;
                consumed.add(svc.lastRelinkDcfg());
                consumed.primed = svc.lastPrimeFunctions();
                if (totals != consumed)
                    failed.push_back("replayed ingestion differs from the "
                                     "DCFG the relink consumed");
                replayServiceRelink(run.trace, op, parent, run.opts, svc,
                                    run.versions, run.snapshot, run.scratch,
                                    memo, failed);
            }
            if (!traced && relinked)
                run.trace.close(parent);
        }
        t.close(opSpan);
        if (e + 1 == kEpochs)
            checkSchedule(run, svc, failed);
        rep.finishOp(failed);
    }
}

} // namespace

int
runFleet(const Args &args, Report &rep, Trace &trace)
{
    FleetRun run(args, rep, trace);
    rep.context["app"] = "bigtable shape, a program per schedule";
    rep.context["lbr_period"] = std::to_string(kLbrPeriod);
    rep.context["fleet"] = std::to_string(kMachines) + " machines, " +
                           std::to_string(kVersions) + " versions, " +
                           std::to_string(kEpochs) + "-epoch schedules";

    // Whole schedules, each on a freshly constructed service with an
    // empty cache, until the epochs fill the time budget; at least three,
    // so set-up time is a median of three constructions.  A traced run
    // traces one schedule.
    const uint32_t minSchedules = trace.enabled() ? 1 : kMinSchedules;
    for (uint32_t k = 0; k < minSchedules ||
                         (!trace.enabled() && run.wall < args.seconds);
         ++k) {
        run.opts = fleetOptions(args, run.cachePath, k);
        run.schedule = k;
        std::filesystem::remove(run.cachePath);
        resetPeakRss();
        Stopwatch clock;
        fleet::FleetService svc(run.opts);
        rep.samples["setup_s"].push_back(clock.seconds());
        if (trace.enabled())
            replayConstruction(run, svc);
        runSchedule(run, svc);
        rep.samples["peak_rss_mb"].push_back(peakRssMb());
    }
    // Speedups are ratios to a baseline: average them geometrically.
    double logSum = 0.0;
    for (double pct : run.speedups)
        logSum += std::log1p(pct / 100.0);
    if (!run.speedups.empty())
        rep.values["speedup_pct"] =
            std::expm1(logSum / static_cast<double>(run.speedups.size())) *
            100.0;
    rep.values["service.layout_hit_frac"] =
        ratio(run.layoutHits, run.layoutLookups);
    rep.values["relinks"] = static_cast<double>(run.relinks);
    rep.values["measured_s"] = run.wall;
    for (const std::string &p : {run.cachePath, run.snapshot, run.scratch})
        std::filesystem::remove(p);
    return 0;
}

} // namespace perfbench
