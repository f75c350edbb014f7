#include "service/fleet.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "build/workflow.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "sim/machine.h"
#include "stale/stale.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::fleet {

namespace {

/** splitmix64 step, the arrival-shuffle PRNG. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One decoded shard, waiting for the epoch fold. */
struct Arrival
{
    uint32_t machine = 0;
    uint32_t seq = 0;
    profile::Profile prof;
};

/**
 * Outstanding (machine, emission epoch) batch: which sequences have
 * arrived (the dedupe set) and how many the emitter said to expect.
 * Batches are finalized — gaps becoming counted losses — once the lag
 * horizon (the decay window) passes and no useful arrival can remain
 * in flight.  A batch whose every shard was dropped leaves no tracker
 * and no loss count; chaos schedules therefore always deliver at least
 * one shard (possibly corrupt) per batch, exactly as a real transport's
 * batch manifest would still arrive.
 */
struct BatchTracker
{
    uint32_t batchSize = 0;
    std::set<uint32_t> seen;
};

} // namespace

// ir::Program is move-only, and deterministic regeneration is cheaper to
// reason about than a deep clone — every caller gets a byte-identical
// program.
ir::Program
makeVersionProgram(const FleetOptions &opts, uint32_t v)
{
    ir::Program prog = workload::generate(opts.base);
    for (uint32_t k = 1; k <= v; ++k) {
        workload::DriftSpec spec;
        spec.seed = opts.base.seed * 7919 + k;
        spec.rate = opts.interVersionDrift;
        workload::applyDrift(prog, spec);
    }
    return prog;
}

std::map<std::pair<std::string, uint32_t>, double>
blockDistribution(const core::WholeProgramDcfg &dcfg)
{
    std::map<std::pair<std::string, uint32_t>, double> dist;
    double total = 0.0;
    for (const core::FunctionDcfg &fn : dcfg.functions) {
        for (const core::DcfgNode &n : fn.nodes)
            total += static_cast<double>(n.freq);
    }
    if (total <= 0.0)
        return dist;
    for (const core::FunctionDcfg &fn : dcfg.functions) {
        for (const core::DcfgNode &n : fn.nodes)
            dist[{fn.function, n.bbId}] += static_cast<double>(n.freq) / total;
    }
    return dist;
}

double
totalVariation(const std::map<std::pair<std::string, uint32_t>, double> &a,
               const std::map<std::pair<std::string, uint32_t>, double> &b)
{
    if (a.empty() && b.empty())
        return 0.0;
    if (a.empty() || b.empty())
        return 1.0;
    double sum = 0.0;
    auto bit = b.begin();
    for (const auto &[key, p] : a) {
        while (bit != b.end() && bit->first < key) {
            sum += bit->second;
            ++bit;
        }
        if (bit != b.end() && bit->first == key) {
            sum += std::fabs(p - bit->second);
            ++bit;
        } else {
            sum += p;
        }
    }
    for (; bit != b.end(); ++bit)
        sum += bit->second;
    return 0.5 * sum;
}

/** Per-binary-version service state. */
struct VersionState
{
    linker::Executable exe; ///< Metadata binary (with .bb_addr_map).
    std::unique_ptr<core::AddrMapIndex> index;
    profile::Profile fullProfile; ///< Steady-state load profile.
    profile::DecayedAggregate agg;
};

struct FleetService::Impl
{
    FleetOptions opts;

    std::vector<VersionState> versions;
    std::vector<bool> retired; ///< Parallel to `versions`.
    std::vector<uint32_t> machineVersion; ///< Machine -> version index.
    uint32_t target = 0;

    uint32_t epochsRun = 0;
    uint32_t crossings = 0;

    FleetChaosHooks *chaos = nullptr; ///< Not owned; may be null.

    std::vector<EpochStats> history;
    std::vector<RelinkRecord> relinkLog;

    /** Delayed wire shards, keyed by the epoch that delivers them. */
    std::map<uint32_t, std::vector<WireShard>> pendingWire;

    /** Outstanding (machine, emit epoch) batches awaiting the horizon. */
    std::map<std::pair<uint32_t, uint32_t>, BatchTracker> batches;

    std::map<uint32_t, MachineHealth> health;
    FaultDetection det;

    /** Rolling state rebuilt every epoch. */
    core::WholeProgramDcfg combined;
    bool combinedValid = false;
    std::set<std::string> primeFns;

    /** Per-(function, block) shares at the last successful relink. */
    std::map<std::pair<std::string, uint32_t>, double> snapshot;

    /** Layout keys/digests this service has written to the cache image
     *  (the lower bound for warm-hit accounting; the image on disk may
     *  hold more if it predates this service). */
    std::set<uint64_t> knownLayoutKeys;
    std::set<uint64_t> knownLayoutDigests;

    /** Rollback state machine. */
    uint64_t generation = 0;
    bool degraded = false;
    bool pendingRelink = false;

    /** Last *successful* relink products (the last-good artifact). */
    linker::Executable shipped;
    bool haveShipped = false;
    core::WholeProgramDcfg lastDcfg;
    core::WpaResult lastWpa;
    std::set<std::string> lastPrime;

    explicit Impl(FleetOptions o);

    int versionOfHash(uint64_t hash) const;
    uint32_t newestLive() const;
    uint32_t addVersion();
    void retireVersion(uint32_t v);
    void stepEpoch();
    profile::AggregatedProfile
    canonAggregate(uint32_t v, std::vector<Arrival> &arrivals) const;
    void rebuildCombined();
    double driftMetric() const;
    void relink(uint32_t epoch, double metric, bool forced);
};

FleetService::Impl::Impl(FleetOptions o) : opts(std::move(o))
{
    opts.machines = std::max<uint32_t>(opts.machines, 1);
    opts.versions = std::max<uint32_t>(opts.versions, 1);
    if (opts.cachePath.empty())
        opts.cachePath = opts.base.name + ".fleet.cache";

    // The version chain: v0 is the pristine build; each later version
    // accumulates one more drift episode on top of the previous one.
    versions.reserve(opts.versions);
    for (uint32_t v = 0; v < opts.versions; ++v)
        addVersion();

    // Initial mix: machines spread over every version but the newest,
    // which ships at releaseEpoch.
    machineVersion.assign(opts.machines, 0);
    if (opts.versions > 1) {
        for (uint32_t m = 0; m < opts.machines; ++m)
            machineVersion[m] = m % (opts.versions - 1);
    }
    target = opts.versions >= 2 ? opts.versions - 2 : 0;

    for (uint32_t m = 0; m < opts.machines; ++m)
        health[m];
}

uint32_t
FleetService::Impl::addVersion()
{
    const auto v = static_cast<uint32_t>(versions.size());
    VersionState vs;
    buildsys::Workflow wf(opts.base);
    wf.overrideProgram(makeVersionProgram(opts, v));
    vs.exe = wf.metadataBinary();
    vs.fullProfile =
        sim::collectProfile(vs.exe, workload::profileOptions(opts.base));
    PROPELLER_CHECK(vs.fullProfile.binaryHash == vs.exe.identityHash,
                    "profiler stamped the wrong binary identity");
    vs.agg = profile::DecayedAggregate(opts.decayWindow);
    versions.push_back(std::move(vs));
    versions.back().index =
        std::make_unique<core::AddrMapIndex>(versions.back().exe);
    retired.push_back(false);
    return v;
}

uint32_t
FleetService::Impl::newestLive() const
{
    for (uint32_t v = static_cast<uint32_t>(versions.size()); v-- > 0;) {
        if (!retired[v])
            return v;
    }
    PROPELLER_CHECK(false, "no live versions remain");
    return 0;
}

void
FleetService::Impl::retireVersion(uint32_t v)
{
    PROPELLER_CHECK(v < versions.size(),
                    "retireVersion: no such version");
    PROPELLER_CHECK(!retired[v], "retireVersion: already retired");
    uint32_t live = 0;
    for (uint32_t i = 0; i < versions.size(); ++i) {
        if (!retired[i] && i != v)
            ++live;
    }
    PROPELLER_CHECK(live >= 1, "cannot retire the last live version");

    retired[v] = true;
    if (target == v)
        target = newestLive(); // Canary rollback: revert the target.
    for (uint32_t m = 0; m < opts.machines; ++m) {
        if (machineVersion[m] == v)
            machineVersion[m] = target;
    }
}

int
FleetService::Impl::versionOfHash(uint64_t hash) const
{
    for (uint32_t v = 0; v < versions.size(); ++v) {
        if (versions[v].exe.identityHash == hash)
            return static_cast<int>(v);
    }
    return -1;
}

profile::AggregatedProfile
FleetService::Impl::canonAggregate(uint32_t v,
                                   std::vector<Arrival> &arrivals) const
{
    // Canonicalize by (machine, sequence) — this is what makes the fold
    // arrival-order independent.
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  return std::tie(a.machine, a.seq) <
                         std::tie(b.machine, b.seq);
              });
    profile::Profile canon;
    canon.binaryHash = versions[v].exe.identityHash;
    for (Arrival &a : arrivals) {
        canon.totalRetired += a.prof.totalRetired;
        canon.samples.insert(canon.samples.end(), a.prof.samples.begin(),
                             a.prof.samples.end());
    }
    profile::AggregationOptions ao;
    ao.threads = opts.base.jobs;
    return profile::aggregate(canon, ao);
}

void
FleetService::Impl::stepEpoch()
{
    const uint32_t epoch = epochsRun;
    EpochStats es;
    es.epoch = epoch;

    // Release: the newest live version becomes the relink target
    // *before* any machine migrates, so the release-epoch relink remaps
    // an unchanged sample mix onto the new binary.
    if (versions.size() >= 2 && epoch == opts.releaseEpoch)
        target = newestLive();
    if (versions.size() >= 2 && epoch > opts.releaseEpoch) {
        uint32_t moved = 0;
        for (uint32_t m = 0;
             m < opts.machines && moved < opts.upgradesPerEpoch; ++m) {
            if (machineVersion[m] != target) {
                machineVersion[m] = target;
                ++moved;
            }
        }
    }

    // Each machine emits its slice of its version's steady-state load
    // profile as wire shards stamped with that version's identity and
    // this epoch's emission metadata (batch size, sequence).
    std::vector<WireShard> wire;
    for (uint32_t m = 0; m < opts.machines; ++m) {
        const VersionState &vs = versions[machineVersion[m]];
        profile::Profile slice;
        slice.binaryHash = vs.fullProfile.binaryHash;
        slice.totalRetired = vs.fullProfile.totalRetired / opts.machines;
        for (size_t i = m; i < vs.fullProfile.samples.size();
             i += opts.machines)
            slice.samples.push_back(vs.fullProfile.samples[i]);
        std::vector<std::vector<uint8_t>> shards =
            profile::serializeShards(slice, opts.shardSamples);
        const auto batch = static_cast<uint32_t>(shards.size());
        for (uint32_t s = 0; s < shards.size(); ++s) {
            WireShard ws;
            ws.machine = m;
            ws.emitEpoch = epoch;
            ws.seq = s;
            ws.batchSize = batch;
            ws.deliverEpoch = epoch;
            ws.bytes = std::move(shards[s]);
            wire.push_back(std::move(ws));
        }
    }

    // Seeded arrival shuffle: shard order on the wire is arbitrary and
    // the fold below must not depend on it.
    uint64_t rng =
        mix64(opts.arrivalShuffleSeed ^
              (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(epoch) + 1)));
    for (size_t i = wire.size(); i > 1; --i) {
        rng = mix64(rng);
        std::swap(wire[i - 1], wire[rng % i]);
    }

    // Chaos on the emission stream: drops, duplicates, reorders,
    // delays, corruption.
    if (chaos != nullptr)
        chaos->onWireShards(epoch, wire);

    // Delayed shards park until their delivery epoch; earlier epochs'
    // delayed shards join this epoch's stream in canonical order (the
    // canonical sort keeps the merged stream independent of the map's
    // insertion history).
    std::vector<WireShard> now;
    now.reserve(wire.size());
    for (WireShard &ws : wire) {
        if (ws.deliverEpoch > epoch)
            pendingWire[ws.deliverEpoch].push_back(std::move(ws));
        else
            now.push_back(std::move(ws));
    }
    auto pit = pendingWire.find(epoch);
    if (pit != pendingWire.end()) {
        std::sort(pit->second.begin(), pit->second.end(),
                  [](const WireShard &a, const WireShard &b) {
                      return std::tie(a.machine, a.emitEpoch, a.seq) <
                             std::tie(b.machine, b.emitEpoch, b.seq);
                  });
        for (WireShard &ws : pit->second)
            now.push_back(std::move(ws));
        pendingWire.erase(pit);
    }

    // Shard-at-a-time ingest: track transport consistency, dedupe,
    // decode, diagnose, classify lag, route by the *shard's* version
    // stamp.  A shard from last week's binary is not an error — it
    // feeds that version's bucket and reaches the target through the
    // stale matcher.
    std::map<std::pair<uint32_t, uint32_t>, std::vector<Arrival>> groups;
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> stepMaxSeq;
    for (WireShard &ws : now) {
        MachineHealth &mh = health[ws.machine];
        const std::pair<uint32_t, uint32_t> key{ws.machine, ws.emitEpoch};

        // Arrival inversions: a same-batch sequence arriving below the
        // step's running maximum.  Counted on the delivered stream, so
        // a chaos schedule counting its own output sees the same total.
        auto [mit, fresh] = stepMaxSeq.try_emplace(key, ws.seq);
        if (!fresh) {
            if (ws.seq < mit->second) {
                ++es.arrivalInversions;
                ++det.inversions;
            } else {
                mit->second = ws.seq;
            }
        }

        // Batch manifest + dedupe.  Envelope metadata is valid even
        // when the payload is corrupt, so a corrupt shard still marks
        // its sequence seen — fault classes stay disjoint (a corrupt
        // shard is never also finalized as a loss).
        BatchTracker &bt = batches[key];
        bt.batchSize = std::max(bt.batchSize, ws.batchSize);
        if (!bt.seen.insert(ws.seq).second) {
            ++es.shardsDuplicated;
            ++mh.duplicates;
            ++det.duplicates;
            continue;
        }

        profile::ShardLoadStats ss;
        profile::Profile p = profile::loadShards({ws.bytes}, &ss);
        if (ss.shardsRejected > 0) {
            ++es.shardsRejected;
            ++mh.corrupt;
            ++det.corrupt;
            continue;
        }

        // Lag is measured against the emission stamp, never the wire's
        // delivery instruction.
        const uint32_t lag = epoch - ws.emitEpoch;
        es.shardLagPeak = std::max(es.shardLagPeak, lag);
        mh.lagPeakEpochs = std::max(mh.lagPeakEpochs, lag);
        if (lag >= opts.decayWindow) {
            ++es.shardsExpired;
            ++mh.expired;
            ++det.expired;
            continue;
        }
        if (lag > 0) {
            ++es.shardsLate;
            ++mh.late;
            ++det.late;
        }

        int v = versionOfHash(p.binaryHash);
        PROPELLER_CHECK(v >= 0,
                        "shard stamped with an unknown binary version");
        ++es.shardsIngested;
        ++mh.shardsIngested;
        es.samplesByVersion[static_cast<uint32_t>(v)] += p.samples.size();
        groups[{static_cast<uint32_t>(v), lag}].push_back(
            {ws.machine, ws.seq, std::move(p)});
    }

    // Fold one epoch into every version's rolling state (versions with
    // no samples fold an empty epoch and age out), then land the late
    // arrivals in the window slot of the epoch they were emitted in —
    // a laggy machine's samples decay on its run clock.
    for (uint32_t v = 0; v < versions.size(); ++v) {
        profile::AggregatedProfile epochAgg;
        auto it = groups.find({v, 0u});
        if (it != groups.end())
            epochAgg = canonAggregate(v, it->second);
        versions[v].agg.fold(epochAgg, opts.decay);
    }
    for (auto &[key, arrivals] : groups) {
        const auto &[v, lag] = key;
        if (lag == 0)
            continue;
        profile::AggregatedProfile lateAgg = canonAggregate(v, arrivals);
        PROPELLER_CHECK(versions[v].agg.addAt(lag, lateAgg),
                        "late shard fell outside the decay window");
    }

    // Finalize batches past the lag horizon: any sequence still missing
    // can no longer contribute and is counted lost.
    for (auto it = batches.begin(); it != batches.end();) {
        const auto &[m, emitEpoch] = it->first;
        if (epoch - emitEpoch >= opts.decayWindow) {
            const BatchTracker &bt = it->second;
            const auto seen = static_cast<uint32_t>(bt.seen.size());
            const uint32_t lost =
                bt.batchSize > seen ? bt.batchSize - seen : 0;
            es.shardsLost += lost;
            health[m].losses += lost;
            det.losses += lost;
            it = batches.erase(it);
        } else {
            ++it;
        }
    }

    for (uint32_t m = 0; m < opts.machines; ++m)
        ++es.machinesByVersion[machineVersion[m]];

    rebuildCombined();
    es.driftMetric = driftMetric();
    es.relinked = es.driftMetric > opts.driftThreshold;
    es.relinkRetried = !es.relinked && pendingRelink && combinedValid;

    history.push_back(es);
    ++epochsRun;
    if (es.relinked) {
        ++crossings;
        relink(epoch, es.driftMetric, /*forced=*/false);
    } else if (es.relinkRetried) {
        // Quarantined relink: re-attempt every epoch until one ships,
        // whether or not the metric crosses again.
        relink(epoch, es.driftMetric, /*forced=*/false);
    }
}

void
FleetService::Impl::rebuildCombined()
{
    combined = {};
    combinedValid = false;
    primeFns.clear();

    double totalWeight = 0.0;
    for (const VersionState &vs : versions) {
        if (!vs.agg.empty())
            totalWeight += vs.agg.totalBranchWeight();
    }
    if (totalWeight <= 0.0)
        return;

    const core::AddrMapIndex &tindex = *versions[target].index;

    struct NodeAcc
    {
        uint64_t freq = 0;
        uint32_t size = 0;
        uint8_t flags = 0;
    };
    struct FnAcc
    {
        std::map<uint32_t, NodeAcc> nodes;
        std::map<std::tuple<uint32_t, uint32_t, uint8_t>, uint64_t> edges;
        uint32_t entryBb = 0;
        bool haveEntry = false;
    };
    std::map<std::string, FnAcc> fns;
    std::map<std::tuple<std::string, uint32_t, std::string>, uint64_t>
        calls;

    for (uint32_t v = 0; v < versions.size(); ++v) {
        VersionState &vs = versions[v];
        if (vs.agg.empty())
            continue;

        // Normalize this version's rolling counts by its decayed weight
        // share, with the window's geometric factor cancelled before
        // rounding (DecayedAggregate::quantize) — at a constant fleet
        // mix the per-version counts are exactly stable, which is what
        // keeps layout fingerprints warm across steady-state relinks.
        double share = vs.agg.totalBranchWeight() / totalWeight;
        auto scale_to = static_cast<uint64_t>(std::llround(
            static_cast<double>(opts.freqResolution) * share));
        profile::AggregatedProfile quant =
            vs.agg.quantize(std::max<uint64_t>(scale_to, 1));
        if (quant.branches.empty() && quant.ranges.empty())
            continue;

        core::WholeProgramDcfg dcfg = core::buildDcfg(
            quant, *vs.index, nullptr, opts.base.jobs ? opts.base.jobs : 1);

        // Into the target's block-id space: identity for the target
        // version itself, fingerprint matching + count inference for
        // every older (or newer) one.
        stale::StaleMatchResult match =
            stale::matchStaleProfile(dcfg, *vs.index, tindex);
        stale::inferStaleCounts(match, tindex);

        for (const auto &fh : match.functionHashes) {
            if (fh.profiledHash != fh.targetHash)
                primeFns.insert(fh.function);
        }

        for (const core::FunctionDcfg &fn : match.dcfg.functions) {
            FnAcc &acc = fns[fn.function];
            if (!acc.haveEntry && fn.entryNode < fn.nodes.size()) {
                acc.entryBb = fn.nodes[fn.entryNode].bbId;
                acc.haveEntry = true;
            }
            for (const core::DcfgNode &n : fn.nodes) {
                NodeAcc &na = acc.nodes[n.bbId];
                na.freq += n.freq;
                na.size = n.size;
                na.flags = n.flags;
            }
            for (const core::DcfgEdge &e : fn.edges) {
                acc.edges[{fn.nodes[e.fromNode].bbId,
                           fn.nodes[e.toNode].bbId,
                           static_cast<uint8_t>(e.kind)}] += e.weight;
            }
        }
        for (const core::CallEdge &ce : match.dcfg.callEdges) {
            const core::FunctionDcfg &caller =
                match.dcfg.functions[ce.callerDcfg];
            const core::FunctionDcfg &callee =
                match.dcfg.functions[ce.calleeDcfg];
            calls[{caller.function, caller.nodes[ce.callerNode].bbId,
                   callee.function}] += ce.weight;
        }
    }

    // Emit the merged DCFG in fully sorted order (functions by name,
    // nodes by block id, edges by endpoint key): deterministic, and
    // stable epoch-over-epoch whenever the accumulators are.
    std::map<std::string, uint32_t> fnIndex;
    for (auto &[name, acc] : fns) {
        core::FunctionDcfg fn;
        fn.function = name;
        PROPELLER_CHECK(acc.haveEntry &&
                            acc.nodes.find(acc.entryBb) != acc.nodes.end(),
                        "combined DCFG lost a function's entry block");
        std::map<uint32_t, uint32_t> nodeIndex;
        for (const auto &[bb, na] : acc.nodes) {
            nodeIndex[bb] = static_cast<uint32_t>(fn.nodes.size());
            fn.nodes.push_back({bb, na.size, na.freq, na.flags});
        }
        fn.entryNode = nodeIndex[acc.entryBb];
        for (const auto &[key, weight] : acc.edges) {
            const auto &[fromBb, toBb, kind] = key;
            fn.edges.push_back({nodeIndex[fromBb], nodeIndex[toBb], weight,
                                static_cast<core::EdgeKind>(kind)});
        }
        fnIndex[name] = static_cast<uint32_t>(combined.functions.size());
        combined.functions.push_back(std::move(fn));
    }
    for (const auto &[key, weight] : calls) {
        const auto &[callerName, callerBb, calleeName] = key;
        uint32_t callerIdx = fnIndex[callerName];
        uint32_t calleeIdx = fnIndex[calleeName];
        const core::FunctionDcfg &caller = combined.functions[callerIdx];
        uint32_t callerNode = 0;
        for (uint32_t i = 0; i < caller.nodes.size(); ++i) {
            if (caller.nodes[i].bbId == callerBb) {
                callerNode = i;
                break;
            }
        }
        combined.callEdges.push_back(
            {callerIdx, callerNode, calleeIdx, weight});
    }
    combinedValid = !combined.functions.empty();
}

double
FleetService::Impl::driftMetric() const
{
    return totalVariation(blockDistribution(combined), snapshot);
}

void
FleetService::Impl::relink(uint32_t epoch, double metric, bool forced)
{
    PROPELLER_CHECK(combinedValid,
                    "relink requested before any samples were ingested");
    const VersionState &tv = versions[target];

    RelinkRecord rec;
    rec.epoch = epoch;
    rec.metric = metric;
    rec.forced = forced;

    const uint32_t maxAttempts = 1 + opts.maxRelinkRetries;
    bool shippedNew = false;
    for (uint32_t attempt = 1; attempt <= maxAttempts && !shippedNew;
         ++attempt) {
        rec.attempts = attempt;
        if (attempt > 1) {
            // Deterministic exponential backoff in modelled seconds.
            rec.backoffSec += opts.relinkBackoffSec *
                              static_cast<double>(1u << (attempt - 2));
        }

        // A modelled mid-relink crash: the attempt produces nothing.
        // Nothing was persisted either — the cache image is only ever
        // written after an artifact is accepted.
        if (chaos != nullptr && chaos->failRelink(epoch, attempt)) {
            ++rec.failedAttempts;
            ++det.relinkFailures;
            continue;
        }

        // The relink's inputs are the target's program recipe, the
        // metadata binary built for it at construction and the image:
        // no Phase 2 runs.  Modules the layout leaves unchanged come
        // from the image under their Phase 2 keys.
        buildsys::Workflow wf(opts.base);
        wf.overrideProgram(makeVersionProgram(opts, target));
        wf.overrideMetadataBinary(tv.exe);

        // The profile seam carries only the identity stamp: the layout
        // input is the injected combined DCFG, already in the target's
        // block-id space.
        profile::Profile stamp;
        stamp.binaryHash = tv.exe.identityHash;
        stamp.totalRetired = 1;
        wf.overrideProfile(std::move(stamp));
        wf.overrideDcfg(core::WholeProgramDcfg(combined));
        wf.setLayoutPrimeFunctions(primeFns);

        uint64_t imageGen = 0;
        bool loaded = wf.loadCacheFile(opts.cachePath, &imageGen);
        // A restarted service resumes the persisted generation sequence
        // instead of restarting from zero.
        if (loaded && imageGen > generation)
            generation = imageGen;

        // Warm-hit accounting: every layout key this service wrote to
        // the image in an earlier relink must be served warm — exactly,
        // or through the primed digest alias for drifted-but-matched
        // functions.  Computed with the same free fingerprint functions
        // the relink engine uses, so the expectation is key-for-key
        // honest.
        const uint64_t opts_fp =
            core::layoutOptionsFingerprint(core::LayoutOptions{});
        uint64_t expected_hits = 0;
        uint64_t expected_primed = 0;
        std::vector<std::pair<uint64_t, uint64_t>> keys;
        keys.reserve(combined.functions.size());
        for (const core::FunctionDcfg &fn : combined.functions) {
            int fi = tv.index->findFunction(fn.function);
            uint64_t key = hashCombine(
                core::layoutMemoFingerprint(fn, *tv.index, fi), opts_fp);
            uint64_t dkey = hashCombine(
                core::layoutInputDigest(fn, *tv.index, fi), opts_fp);
            keys.emplace_back(key, dkey);
            if (!loaded)
                continue;
            if (knownLayoutKeys.count(key) != 0)
                ++expected_hits;
            else if (primeFns.count(fn.function) != 0 &&
                     knownLayoutDigests.count(dkey) != 0)
                ++expected_primed;
        }

        const linker::Executable &po = wf.propellerBinary();

        // Acceptance gate: never ship an artifact the static verifier
        // rejects.  A dirty report fails the attempt exactly like a
        // crashed one — the last-good binary keeps serving.
        if (!wf.verifyReport().clean()) {
            ++rec.failedAttempts;
            ++det.relinkFailures;
            continue;
        }

        ++generation;
        PROPELLER_CHECK(wf.saveCacheFile(opts.cachePath, generation),
                        "failed to persist the fleet cache image");

        const buildsys::CacheStats &ls = wf.layoutCacheStats();
        PROPELLER_CHECK(ls.hits + ls.primedHits >=
                            expected_hits + expected_primed,
                        "persisted layout entries failed to serve warm");

        rec.cacheLoaded = loaded;
        rec.layoutHits = ls.hits;
        rec.layoutMisses = ls.misses;
        rec.layoutPrimedHits = ls.primedHits;
        rec.objectHits = wf.cacheStats().hits;
        rec.expectedHits = expected_hits;
        rec.expectedPrimedHits = expected_primed;
        rec.primedFunctions = primeFns.size();
        rec.verifierClean = true;
        if (wf.hasRelinkSchedule())
            rec.schedule = wf.relinkSchedule();

        shipped = po;
        haveShipped = true;
        lastDcfg = combined;
        lastWpa = wf.wpa();
        lastPrime = primeFns;
        snapshot = blockDistribution(combined);
        for (const auto &[key, dkey] : keys) {
            knownLayoutKeys.insert(key);
            knownLayoutDigests.insert(dkey);
        }
        shippedNew = true;
    }

    rec.generation = generation;
    rec.quarantined = !shippedNew;
    degraded = !shippedNew;
    pendingRelink = !shippedNew;
    relinkLog.push_back(std::move(rec));
}

FleetService::FleetService(FleetOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
}

FleetService::~FleetService() = default;

const FleetOptions &
FleetService::options() const
{
    return impl_->opts;
}

void
FleetService::setChaosHooks(FleetChaosHooks *hooks)
{
    impl_->chaos = hooks;
}

void
FleetService::stepEpoch()
{
    impl_->stepEpoch();
}

void
FleetService::run(uint32_t epochs)
{
    for (uint32_t e = 0; e < epochs; ++e)
        impl_->stepEpoch();
}

void
FleetService::relinkNow()
{
    impl_->relink(impl_->epochsRun, impl_->driftMetric(),
                  /*forced=*/true);
}

uint32_t
FleetService::addVersion()
{
    return impl_->addVersion();
}

void
FleetService::setTargetVersion(uint32_t v)
{
    PROPELLER_CHECK(v < impl_->versions.size(),
                    "setTargetVersion: no such version");
    PROPELLER_CHECK(!impl_->retired[v],
                    "setTargetVersion: version is retired");
    impl_->target = v;
}

void
FleetService::retireVersion(uint32_t v)
{
    impl_->retireVersion(v);
}

bool
FleetService::versionRetired(uint32_t v) const
{
    PROPELLER_CHECK(v < impl_->versions.size(),
                    "versionRetired: no such version");
    return impl_->retired[v];
}

uint32_t
FleetService::versionCount() const
{
    return static_cast<uint32_t>(impl_->versions.size());
}

uint32_t
FleetService::epochsRun() const
{
    return impl_->epochsRun;
}

uint32_t
FleetService::targetVersion() const
{
    return impl_->target;
}

uint32_t
FleetService::driftCrossings() const
{
    return impl_->crossings;
}

bool
FleetService::degraded() const
{
    return impl_->degraded;
}

uint64_t
FleetService::generation() const
{
    return impl_->generation;
}

const std::vector<EpochStats> &
FleetService::history() const
{
    return impl_->history;
}

const std::vector<RelinkRecord> &
FleetService::relinks() const
{
    return impl_->relinkLog;
}

const std::map<uint32_t, MachineHealth> &
FleetService::machineHealth() const
{
    return impl_->health;
}

const FaultDetection &
FleetService::detection() const
{
    return impl_->det;
}

const linker::Executable &
FleetService::shippedBinary() const
{
    PROPELLER_CHECK(impl_->haveShipped, "no relink has shipped yet");
    return impl_->shipped;
}

const core::WholeProgramDcfg &
FleetService::lastRelinkDcfg() const
{
    PROPELLER_CHECK(impl_->haveShipped, "no relink has shipped yet");
    return impl_->lastDcfg;
}

const core::WpaResult &
FleetService::lastRelinkWpa() const
{
    PROPELLER_CHECK(impl_->haveShipped, "no relink has shipped yet");
    return impl_->lastWpa;
}

const std::set<std::string> &
FleetService::lastPrimeFunctions() const
{
    return impl_->lastPrime;
}

const linker::Executable &
FleetService::versionBinary(uint32_t v) const
{
    return impl_->versions.at(v).exe;
}

} // namespace propeller::fleet
