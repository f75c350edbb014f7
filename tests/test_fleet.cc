/**
 * @file
 * Tests for the continuous-profiling fleet service (src/service): the
 * recency-weighted DecayedAggregate, shard version stamps, service
 * determinism across arrival orders and thread counts, the drift-trigger
 * property, layout-cache priming through the Workflow seams, the
 * relink against the version's metadata binary, the persisted cache
 * image across service restarts, and the pinned shipped bytes and
 * records of a small schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "build/journal.h"
#include "build/workflow.h"
#include "faultinject/chaos.h"
#include "ir/ir.h"
#include "profile/profile.h"
#include "service/fleet.h"
#include "support/status.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller {
namespace {

/** Small fleet: three binary versions, a handful of machines. */
workload::WorkloadConfig
fleetConfig(uint64_t seed = 47)
{
    workload::WorkloadConfig cfg = test::smallConfig(seed);
    cfg.name = "fleetapp";
    cfg.modules = 8;
    cfg.functions = 48;
    cfg.hotFunctions = 14;
    cfg.profileInstructions = 200'000;
    cfg.evalInstructions = 200'000;
    cfg.sampleLbrPeriod = 2'000;
    return cfg;
}

/**
 * A test's cache image file: removed when the guard is made (a leftover
 * of an interrupted run) and again when the test ends, with the
 * temporary an atomic write may leave beside it.
 */
class ScopedImage
{
  public:
    explicit ScopedImage(std::string path) : path_(std::move(path))
    {
        remove();
    }
    ~ScopedImage() { remove(); }
    ScopedImage(const ScopedImage &) = delete;
    ScopedImage &operator=(const ScopedImage &) = delete;

    const std::string &path() const { return path_; }

  private:
    void
    remove() const
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    std::string path_;
};

fleet::FleetOptions
fleetOptions(const ScopedImage &image, uint64_t seed = 47)
{
    fleet::FleetOptions fo;
    fo.base = fleetConfig(seed);
    fo.machines = 4;
    fo.versions = 3;
    fo.cachePath = image.path();
    return fo;
}

// ---------------------------------------------------------------------
// DecayedAggregate

TEST(DecayedAggregate, MonotoneDecayUntilWindowExit)
{
    const uint64_t key = profile::AggregatedProfile::key(0x100, 0x200);
    profile::AggregatedProfile epoch;
    epoch.branches[key] = 1000;
    epoch.totalBranchEvents = 1000;

    profile::DecayedAggregate agg(4);
    agg.fold(epoch, 0.5);

    // Aging: each empty epoch halves the key's weight; after the window
    // slides past the non-empty epoch the aggregate reads empty.
    uint64_t prev = agg.quantize().branches.at(key);
    EXPECT_EQ(prev, 1000u);
    profile::AggregatedProfile empty;
    for (int age = 1; age < 4; ++age) {
        agg.fold(empty, 0.5);
        uint64_t cur = agg.quantize().branches.at(key);
        EXPECT_LT(cur, prev) << "age " << age;
        EXPECT_EQ(cur, 1000u >> age);
        EXPECT_FALSE(agg.empty());
        prev = cur;
    }
    agg.fold(empty, 0.5);
    EXPECT_TRUE(agg.empty());
    EXPECT_EQ(agg.quantize().branches.count(key), 0u);
    EXPECT_EQ(agg.epochs(), 5u);
}

TEST(DecayedAggregate, ScaledQuantizeExactlyStableAtConstantMix)
{
    profile::AggregatedProfile epoch;
    epoch.branches[profile::AggregatedProfile::key(1, 2)] = 977;
    epoch.branches[profile::AggregatedProfile::key(3, 4)] = 311;
    epoch.ranges[profile::AggregatedProfile::key(2, 3)] = 613;
    epoch.totalBranchEvents = 1288;

    profile::DecayedAggregate agg(3);
    std::vector<profile::AggregatedProfile> snaps;
    for (int i = 0; i < 6; ++i) {
        agg.fold(epoch, 0.7);
        snaps.push_back(agg.quantize(1'000'000));
    }
    // Once the window fills (3 folds) every snapshot is byte-identical:
    // same window contents, same arithmetic — no geometric residue.
    for (size_t i = 3; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].branches, snaps[2].branches) << "fold " << i;
        EXPECT_EQ(snaps[i].ranges, snaps[2].ranges) << "fold " << i;
    }
    // The heaviest branch lands exactly on the requested resolution.
    EXPECT_EQ(
        snaps.back().branches.at(profile::AggregatedProfile::key(1, 2)),
        1'000'000u);
}

// ---------------------------------------------------------------------
// Per-shard version stamps

TEST(ShardVersions, MixedVersionShardSetIsDiagnosedPerShard)
{
    profile::Profile a;
    a.binaryHash = 0x1111;
    a.totalRetired = 10;
    a.samples.resize(3);
    profile::Profile b = a;
    b.binaryHash = 0x2222;

    std::vector<std::vector<uint8_t>> shards =
        profile::serializeShards(a, 1);
    std::vector<std::vector<uint8_t>> sb = profile::serializeShards(b, 1);
    shards.insert(shards.end(), sb.begin(), sb.end());

    profile::ShardLoadStats stats;
    profile::Profile merged = profile::loadShards(shards, &stats);
    EXPECT_EQ(stats.shardsRejected, 0u);
    ASSERT_EQ(stats.shardVersions.size(), 6u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(stats.shardVersions[i], 0x1111u) << i;
        EXPECT_EQ(stats.shardVersions[i + 3], 0x2222u) << i;
    }
    EXPECT_EQ(stats.distinctVersions, 2u);
    EXPECT_EQ(merged.samples.size(), 6u);
}

// ---------------------------------------------------------------------
// Service determinism

TEST(FleetService, DeterministicAcrossArrivalOrderAndThreads)
{
    ScopedImage image_a("test_fleet_det_a.cache");
    fleet::FleetOptions a = fleetOptions(image_a);
    a.base.jobs = 1;
    a.arrivalShuffleSeed = 0;
    ScopedImage image_b("test_fleet_det_b.cache");
    fleet::FleetOptions b = fleetOptions(image_b);
    b.base.jobs = 8;
    b.arrivalShuffleSeed = 0xfeedface;

    fleet::FleetService sa(std::move(a));
    fleet::FleetService sb(std::move(b));
    sa.run(4);
    sb.run(4);

    ASSERT_EQ(sa.history().size(), 4u);
    for (size_t e = 0; e < 4; ++e) {
        const fleet::EpochStats &ea = sa.history()[e];
        const fleet::EpochStats &eb = sb.history()[e];
        EXPECT_EQ(ea.driftMetric, eb.driftMetric) << "epoch " << e;
        EXPECT_EQ(ea.relinked, eb.relinked) << "epoch " << e;
        EXPECT_EQ(ea.shardsIngested, eb.shardsIngested) << "epoch " << e;
        EXPECT_EQ(ea.samplesByVersion, eb.samplesByVersion)
            << "epoch " << e;
        EXPECT_EQ(ea.machinesByVersion, eb.machinesByVersion)
            << "epoch " << e;
    }
    EXPECT_EQ(sa.driftCrossings(), sb.driftCrossings());
    ASSERT_GE(sa.relinks().size(), 1u);

    // Same shipped bytes regardless of shard arrival order or threads.
    EXPECT_EQ(sa.shippedBinary().identityHash,
              sb.shippedBinary().identityHash);
    EXPECT_EQ(sa.shippedBinary().text, sb.shippedBinary().text);
}

// ---------------------------------------------------------------------
// Drift-trigger property

TEST(FleetService, RelinkFiresIffMetricCrossesThreshold)
{
    const double thresholds[] = {0.02, 0.25};
    for (uint64_t seed = 101; seed <= 105; ++seed) {
        for (double threshold : thresholds) {
            ScopedImage image("test_fleet_trigger.cache");
            fleet::FleetOptions fo = fleetOptions(image, seed);
            fo.driftThreshold = threshold;
            fleet::FleetService svc(std::move(fo));
            svc.run(4);

            uint32_t expected_crossings = 0;
            for (const fleet::EpochStats &es : svc.history()) {
                EXPECT_EQ(es.relinked, es.driftMetric > threshold)
                    << "seed " << seed << " threshold " << threshold
                    << " epoch " << es.epoch;
                if (es.driftMetric > threshold)
                    ++expected_crossings;
            }
            EXPECT_EQ(svc.driftCrossings(), expected_crossings);

            // Every triggered relink is recorded, none forced.
            EXPECT_EQ(svc.relinks().size(), expected_crossings);
            for (const fleet::RelinkRecord &r : svc.relinks())
                EXPECT_FALSE(r.forced);
        }
    }
}

// ---------------------------------------------------------------------
// Layout-cache priming through the Workflow seams

TEST(FleetWorkflow, PrimedDigestHitAfterLayoutNeutralEdit)
{
    workload::WorkloadConfig cfg = fleetConfig();
    ScopedImage image("test_fleet_prime.cache");

    buildsys::Workflow cold(cfg);
    cold.propellerBinary();
    ASSERT_TRUE(cold.saveCacheFile(image.path()));
    ASSERT_FALSE(cold.wpa().hotFunctions.empty());

    // Edit a Work immediate in a sampled function: the function hash
    // (and the exact-match memo key) changes, but the layout inputs —
    // CFG shape, block sizes, counts — do not.
    ir::Program edited = workload::generate(cfg);
    std::string victim;
    for (const std::string &hot : cold.wpa().hotFunctions) {
        for (auto &module : edited.modules) {
            for (auto &fn : module->functions) {
                if (fn->name != hot || fn->isHandAsm)
                    continue;
                for (auto &bb : fn->blocks) {
                    for (ir::Inst &inst : bb->insts) {
                        if (inst.kind == ir::InstKind::Work &&
                            victim.empty()) {
                            inst.imm += 0x5eed;
                            victim = fn->name;
                        }
                    }
                }
            }
        }
        if (!victim.empty())
            break;
    }
    ASSERT_FALSE(victim.empty());

    buildsys::Workflow warm(cfg);
    warm.overrideProgram(std::move(edited));
    ASSERT_TRUE(warm.loadCacheFile(image.path()));
    warm.setLayoutPrimeFunctions({victim});
    warm.propellerBinary();

    EXPECT_GE(warm.layoutCacheStats().primedHits, 1u);
    EXPECT_GE(warm.layoutCacheStats().hits, 1u);
}

// A relink handed the version's metadata binary runs no Phase 2; its
// twin builds Phase 2 from the same image.  Both must ship the same
// bytes from the same directives, verify the same and serve the same
// layouts.  Run at 8 jobs so the relink's codegen tasks hash their
// modules on several workers (the TSan job runs this test).
TEST(FleetWorkflow, VersionBinaryRelinkMatchesPhase2Relink)
{
    ScopedImage image("test_fleet_twin.cache");
    ScopedImage before("test_fleet_twin_before.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.base.jobs = 8;
    fo.driftThreshold = 0.02;
    fleet::FleetService svc(fo);

    // Step to the second relink (the release retarget, warm), keeping
    // the image as it stood before that epoch.
    while (svc.relinks().size() < 2 && svc.epochsRun() < 10) {
        std::remove(before.path().c_str());
        std::vector<uint8_t> bytes;
        if (buildsys::readFile(image.path(), bytes)) {
            ASSERT_TRUE(buildsys::atomicWriteFile(before.path(), bytes));
        }
        svc.stepEpoch();
    }
    ASSERT_EQ(svc.relinks().size(), 2u);
    // The service's relinks run no Phase 2, so the first, cold one has
    // no object of its own to hit.
    EXPECT_EQ(svc.relinks().front().objectHits, 0u);
    const fleet::RelinkRecord &rec = svc.relinks().back();
    ASSERT_TRUE(rec.cacheLoaded);
    const uint32_t target = svc.targetVersion();

    auto relink = [&](buildsys::Workflow &wf, bool version_binary) {
        wf.overrideProgram(fleet::makeVersionProgram(fo, target));
        if (version_binary)
            wf.overrideMetadataBinary(svc.versionBinary(target));
        profile::Profile stamp;
        stamp.binaryHash = svc.versionBinary(target).identityHash;
        stamp.totalRetired = 1;
        wf.overrideProfile(std::move(stamp));
        wf.overrideDcfg(svc.lastRelinkDcfg());
        wf.setLayoutPrimeFunctions(svc.lastPrimeFunctions());
        ASSERT_TRUE(wf.loadCacheFile(before.path()));
        wf.verifyReport();
    };
    buildsys::Workflow given(fo.base);
    relink(given, true);
    buildsys::Workflow built(fo.base);
    relink(built, false);
    EXPECT_FALSE(given.hasReport("phase2.codegen"));
    ASSERT_TRUE(built.hasReport("phase2.codegen"));
    EXPECT_EQ(built.metadataBinary().text, svc.versionBinary(target).text);
    EXPECT_EQ(built.metadataBinary().identityHash,
              svc.versionBinary(target).identityHash);

    const linker::Executable &a = given.propellerBinary();
    const linker::Executable &b = built.propellerBinary();
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.identityHash, b.identityHash);
    EXPECT_EQ(a.entryAddress, b.entryAddress);
    EXPECT_EQ(a.symbols.size(), b.symbols.size());
    EXPECT_EQ(a.sizes.total(), b.sizes.total());
    EXPECT_EQ(a.text, svc.shippedBinary().text);
    EXPECT_EQ(given.verifiedBinary().bbAddrMap.size(),
              built.verifiedBinary().bbAddrMap.size());

    EXPECT_EQ(given.wpa().ccProf.serialize(), built.wpa().ccProf.serialize());
    EXPECT_EQ(given.wpa().ldProf.serialize(), built.wpa().ldProf.serialize());

    const analysis::VerifyReport &va = given.verifyReport();
    const analysis::VerifyReport &vb = built.verifyReport();
    auto rendered = [](const analysis::VerifyReport &rep) {
        std::vector<std::string> lines;
        for (const auto &diag : rep.engine.diagnostics())
            lines.push_back(diag.render());
        return lines;
    };
    EXPECT_TRUE(va.clean());
    EXPECT_EQ(rendered(va), rendered(vb));
    EXPECT_EQ(va.functionsChecked, vb.functionsChecked);
    EXPECT_EQ(va.rangesDecoded, vb.rangesDecoded);
    EXPECT_EQ(va.instructionsDecoded, vb.instructionsDecoded);
    EXPECT_EQ(va.bytesVerified, vb.bytesVerified);

    for (const buildsys::Workflow *wf : {&given, &built}) {
        const buildsys::CacheStats &ls = wf->layoutCacheStats();
        EXPECT_EQ(ls.hits, rec.layoutHits);
        EXPECT_EQ(ls.misses, rec.layoutMisses);
        EXPECT_EQ(ls.primedHits, rec.layoutPrimedHits);
    }
    EXPECT_GT(rec.layoutHits, 0u);
}

// ---------------------------------------------------------------------
// Persisted cache image across service restarts

TEST(FleetService, RestartedServiceRelinksFullyWarm)
{
    ScopedImage image("test_fleet_restart.cache");
    {
        fleet::FleetService first(fleetOptions(image));
        first.run(1); // Epoch 0's metric is 1.0: always relinks.
        ASSERT_EQ(first.relinks().size(), 1u);
        EXPECT_FALSE(first.relinks()[0].cacheLoaded);
        EXPECT_GT(first.relinks()[0].layoutMisses, 0u);
    }

    // Same image, not removed in between: the restart image.
    fleet::FleetService second(fleetOptions(image));
    second.run(1);
    ASSERT_EQ(second.relinks().size(), 1u);
    const fleet::RelinkRecord &r = second.relinks()[0];
    EXPECT_TRUE(r.cacheLoaded);
    EXPECT_GT(r.layoutHits, 0u);
    EXPECT_EQ(r.layoutMisses, 0u);
}

// ---------------------------------------------------------------------
// Shipped bytes and relink records, pinned

/**
 * One digest over every relink of a small 3-version schedule (a cold
 * first relink, the release retarget, warm drift relinks and two forced
 * ones, the second fully warm): its target, shipped text, generation,
 * whether the image seeded it, and the layout tier's hits, misses and
 * primed hits.  The object tier's hit count is left out on purpose: it
 * says where the relink found its objects, not what it shipped.
 */
TEST(FleetGolden, ShippedBinariesAndRecords)
{
    ScopedImage image("test_fleet_golden.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.driftThreshold = 0.02;
    fleet::FleetService svc(std::move(fo));

    test::Digest d;
    uint32_t loaded = 0;
    auto addRelink = [&] {
        const fleet::RelinkRecord &r = svc.relinks().back();
        const std::vector<uint8_t> &text = svc.shippedBinary().text;
        d.add(r.epoch);
        d.add(svc.targetVersion());
        d.add(std::string(text.begin(), text.end()));
        d.add(r.generation);
        d.add(r.cacheLoaded ? 1 : 0);
        d.add(r.layoutHits);
        d.add(r.layoutMisses);
        d.add(r.layoutPrimedHits);
        loaded += r.cacheLoaded ? 1 : 0;
    };
    size_t seen = 0;
    for (int e = 0; e < 10; ++e) {
        svc.stepEpoch();
        if (svc.relinks().size() == seen)
            continue;
        seen = svc.relinks().size();
        addRelink();
    }
    // The second forced relink sees the first one's DCFG: fully warm.
    for (int forced = 0; forced < 2; ++forced) {
        svc.relinkNow();
        addRelink();
    }

    EXPECT_GE(svc.relinks().size(), 5u);
    EXPECT_EQ(loaded, svc.relinks().size() - 1);
    EXPECT_GT(svc.relinks().back().layoutHits, 0u);
    EXPECT_EQ(svc.relinks().back().layoutMisses, 0u);
    EXPECT_EQ(d.value(), 0xf95db375b45654f3ull)
        << "0x" << std::hex << d.value();
}

// ---------------------------------------------------------------------
// Forced relinks and statusz rendering

TEST(FleetService, ForcedRelinkIsFlaggedAndExcludedFromCrossings)
{
    ScopedImage image("test_fleet_forced.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.driftThreshold = 2.0; // Unreachable: no triggered relinks.
    fleet::FleetService svc(std::move(fo));
    svc.run(2);
    EXPECT_EQ(svc.driftCrossings(), 0u);
    EXPECT_TRUE(svc.relinks().empty());

    svc.relinkNow();
    ASSERT_EQ(svc.relinks().size(), 1u);
    EXPECT_TRUE(svc.relinks()[0].forced);
    EXPECT_EQ(svc.driftCrossings(), 0u);
}

TEST(FleetService, StatuszRendersHistoryAndRelinks)
{
    ScopedImage image("test_fleet_statusz.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fleet::FleetService svc(std::move(fo));
    svc.run(3);

    std::string text = fleet::renderStatuszText(svc);
    EXPECT_NE(text.find("fleet statusz: fleetapp"), std::string::npos);
    EXPECT_NE(text.find("drift history"), std::string::npos);
    EXPECT_NE(text.find("layout tier:"), std::string::npos);
    EXPECT_NE(text.find("makespan"), std::string::npos);

    std::string json = fleet::renderStatuszJson(svc);
    EXPECT_NE(json.find("\"workload\": \"fleetapp\""), std::string::npos);
    EXPECT_NE(json.find("\"epochs\": ["), std::string::npos);
    EXPECT_NE(json.find("\"relinks\": ["), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------------------
// Late folds into the emission epoch's slot

TEST(DecayedAggregate, AddAtFoldsIntoEmissionSlotAndRejectsExpired)
{
    const uint64_t key = profile::AggregatedProfile::key(0x10, 0x20);
    profile::AggregatedProfile epoch;
    epoch.branches[key] = 1000;
    epoch.totalBranchEvents = 1000;
    profile::AggregatedProfile empty;

    // Reference: the shard arrived on time, then aged two epochs.
    profile::DecayedAggregate onTime(4);
    onTime.fold(epoch, 0.5);
    onTime.fold(empty, 0.5);
    onTime.fold(empty, 0.5);

    // Same shard arriving two epochs late lands in the same slot:
    // identical windowed state, so identical snapshots.
    profile::DecayedAggregate late(4);
    late.fold(empty, 0.5);
    late.fold(empty, 0.5);
    late.fold(empty, 0.5);
    ASSERT_TRUE(late.addAt(2, epoch));
    EXPECT_EQ(late.quantize().branches.at(key),
              onTime.quantize().branches.at(key));

    // A slot that already slid out of the window folds nothing.
    profile::AggregatedProfile before = late.quantize();
    EXPECT_FALSE(late.addAt(4, epoch));
    EXPECT_EQ(late.quantize().branches, before.branches);
}

// ---------------------------------------------------------------------
// Chaos-free runs report a quiet transport (satellite: the lag peak is
// a real measurement now, not a shard count)

TEST(FleetService, ChaosFreeTransportIsQuiet)
{
    ScopedImage image("test_fleet_quiet.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fleet::FleetService svc(std::move(fo));
    svc.run(4);

    for (const fleet::EpochStats &es : svc.history()) {
        EXPECT_EQ(es.shardLagPeak, 0u) << "epoch " << es.epoch;
        EXPECT_EQ(es.shardsDuplicated, 0u) << "epoch " << es.epoch;
        EXPECT_EQ(es.shardsLate, 0u) << "epoch " << es.epoch;
        EXPECT_EQ(es.shardsExpired, 0u) << "epoch " << es.epoch;
        EXPECT_EQ(es.shardsLost, 0u) << "epoch " << es.epoch;
        EXPECT_EQ(es.shardsRejected, 0u) << "epoch " << es.epoch;
        EXPECT_FALSE(es.relinkRetried) << "epoch " << es.epoch;
    }
    EXPECT_EQ(svc.detection(), fleet::FaultDetection{});
    for (const auto &[m, h] : svc.machineHealth()) {
        EXPECT_GT(h.shardsIngested, 0u) << "machine " << m;
        EXPECT_EQ(h.lagPeakEpochs, 0u) << "machine " << m;
        EXPECT_EQ(h.duplicates + h.losses + h.corrupt + h.late +
                      h.expired,
                  0u)
            << "machine " << m;
    }
    EXPECT_FALSE(svc.degraded());
    EXPECT_GE(svc.generation(), 1u);
}

// ---------------------------------------------------------------------
// Injected == detected, per fault class

TEST(FleetChaos, DetectionMatchesInjectionPerFaultClass)
{
    ScopedImage image("test_fleet_chaos_det.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.shardSamples = 8; // Multi-shard batches: real drop-able streams.
    const uint32_t decayWindow = fo.decayWindow;

    faultinject::ChaosSpec spec;
    spec.seed = 1234;
    spec.dropRate = 0.12;
    spec.dupRate = 0.10;
    spec.delayRate = 0.15;
    spec.corruptRate = 0.08;
    spec.reorderRate = 0.30;
    spec.maxDelayEpochs = 2; // <= decayWindow
    ASSERT_LE(spec.maxDelayEpochs, decayWindow);
    spec.chaosStartEpoch = 0;
    spec.chaosEndEpoch = 5;
    faultinject::ChaosSchedule chaos(spec);

    fleet::FleetService svc(std::move(fo));
    svc.setChaosHooks(&chaos);
    // Drain long enough for every delayed shard to land and every
    // outstanding batch gap to cross the lag horizon.
    svc.run(spec.chaosEndEpoch + 1 + spec.maxDelayEpochs + decayWindow);

    const faultinject::ChaosStats &inj = chaos.stats();
    const fleet::FaultDetection &det = svc.detection();
    ASSERT_GT(inj.shardsSeen, 0u);
    EXPECT_GT(inj.shardsDropped, 0u);
    EXPECT_GT(inj.shardsDuplicated, 0u);
    EXPECT_GT(inj.shardsDelayed, 0u);
    EXPECT_GT(inj.shardsCorrupted, 0u);

    EXPECT_EQ(det.losses, inj.shardsDropped);
    EXPECT_EQ(det.duplicates, inj.shardsDuplicated);
    EXPECT_EQ(det.corrupt, inj.shardsCorrupted);
    EXPECT_EQ(det.late + det.expired, inj.shardsDelayed);
    EXPECT_EQ(det.inversions, inj.arrivalInversions);
    EXPECT_EQ(det.relinkFailures, 0u);

    // The epoch counters are the same totals, epoch-sliced.
    uint64_t lost = 0, dup = 0, rej = 0, lateN = 0, expired = 0;
    uint32_t lagPeak = 0;
    for (const fleet::EpochStats &es : svc.history()) {
        lost += es.shardsLost;
        dup += es.shardsDuplicated;
        rej += es.shardsRejected;
        lateN += es.shardsLate;
        expired += es.shardsExpired;
        lagPeak = std::max(lagPeak, es.shardLagPeak);
    }
    EXPECT_EQ(lost, det.losses);
    EXPECT_EQ(dup, det.duplicates);
    EXPECT_EQ(rej, det.corrupt);
    EXPECT_EQ(lateN, det.late);
    EXPECT_EQ(expired, det.expired);
    EXPECT_EQ(lagPeak, inj.maxDelayInjected);

    // Per-machine health sums to the service-wide totals.
    fleet::MachineHealth sum;
    for (const auto &[m, h] : svc.machineHealth()) {
        sum.duplicates += h.duplicates;
        sum.losses += h.losses;
        sum.corrupt += h.corrupt;
        sum.late += h.late;
        sum.expired += h.expired;
        sum.lagPeakEpochs = std::max(sum.lagPeakEpochs, h.lagPeakEpochs);
    }
    EXPECT_EQ(sum.duplicates, det.duplicates);
    EXPECT_EQ(sum.losses, det.losses);
    EXPECT_EQ(sum.corrupt, det.corrupt);
    EXPECT_EQ(sum.late, det.late);
    EXPECT_EQ(sum.expired, det.expired);
    EXPECT_EQ(sum.lagPeakEpochs, inj.maxDelayInjected);
}

// ---------------------------------------------------------------------
// Post-chaos convergence: once the window outlives the chaos epochs,
// a relink ships the same bytes as a chaos-free twin

TEST(FleetChaos, PostChaosRelinkConvergesToChaosFreeBytes)
{
    // Chaos only in epochs [0, 1]; by the time the decay window has
    // slid past them the mix holds only clean epochs.
    faultinject::ChaosSpec spec;
    spec.seed = 77;
    spec.dropRate = 0.20;
    spec.dupRate = 0.15;
    spec.corruptRate = 0.10;
    spec.reorderRate = 0.50;
    spec.delayRate = 0.0;
    spec.chaosStartEpoch = 0;
    spec.chaosEndEpoch = 1;
    faultinject::ChaosSchedule chaos(spec);

    ScopedImage image_a("test_fleet_conv_a.cache");
    fleet::FleetOptions a = fleetOptions(image_a);
    a.shardSamples = 8;
    const uint32_t epochs = spec.chaosEndEpoch + 1 + a.decayWindow;
    fleet::FleetService chaotic(std::move(a));
    chaotic.setChaosHooks(&chaos);
    chaotic.run(epochs);
    chaotic.relinkNow();

    ScopedImage image_b("test_fleet_conv_b.cache");
    fleet::FleetOptions b = fleetOptions(image_b);
    b.shardSamples = 8;
    fleet::FleetService clean(std::move(b));
    clean.run(epochs);
    clean.relinkNow();

    ASSERT_GT(chaos.stats().shardsDropped +
                  chaos.stats().shardsDuplicated +
                  chaos.stats().shardsCorrupted,
              0u);
    EXPECT_EQ(chaotic.shippedBinary().identityHash,
              clean.shippedBinary().identityHash);
    EXPECT_EQ(chaotic.shippedBinary().text, clean.shippedBinary().text);
}

// ---------------------------------------------------------------------
// Relink failure, quarantine, last-good serving, recovery

namespace chaostest {

/** Fail the next `failNext` relink attempts, then heal. */
class CountedFailHooks : public fleet::FleetChaosHooks
{
  public:
    uint32_t failNext = 0;

    bool
    failRelink(uint32_t, uint32_t) override
    {
        if (failNext == 0)
            return false;
        --failNext;
        return true;
    }
};

} // namespace chaostest

TEST(FleetChaos, QuarantineServesLastGoodThenRecovers)
{
    ScopedImage image("test_fleet_rollback.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.driftThreshold = 2.0; // Only forced relinks fire.
    const uint32_t retries = fo.maxRelinkRetries;
    fleet::FleetService svc(std::move(fo));
    chaostest::CountedFailHooks blackout;
    svc.setChaosHooks(&blackout);

    // Epoch 0: clean relink establishes generation 1 (the last-good).
    svc.stepEpoch();
    svc.relinkNow();
    ASSERT_EQ(svc.relinks().size(), 1u);
    EXPECT_TRUE(svc.relinks()[0].verifierClean);
    EXPECT_EQ(svc.generation(), 1u);
    EXPECT_FALSE(svc.degraded());
    const uint64_t goodHash = svc.shippedBinary().identityHash;

    // Epoch 1: every attempt of the next relink crashes; it quarantines
    // and the last-good artifact keeps serving.
    blackout.failNext = 1 + retries;
    svc.stepEpoch();
    svc.relinkNow();
    ASSERT_EQ(svc.relinks().size(), 2u);
    const fleet::RelinkRecord &q = svc.relinks()[1];
    EXPECT_TRUE(q.quarantined);
    EXPECT_FALSE(q.verifierClean);
    EXPECT_EQ(q.attempts, 1 + retries);
    EXPECT_EQ(q.failedAttempts, 1 + retries);
    EXPECT_GT(q.backoffSec, 0.0);
    EXPECT_EQ(q.generation, 1u); // Unchanged: nothing new shipped.
    EXPECT_TRUE(svc.degraded());
    EXPECT_EQ(svc.generation(), 1u);
    EXPECT_EQ(svc.shippedBinary().identityHash, goodHash);
    EXPECT_EQ(svc.detection().relinkFailures,
              static_cast<uint64_t>(1 + retries));

    // Epoch 2: the blackout has passed; the pending relink re-attempts
    // without a fresh crossing, succeeds, and clears degraded mode.
    svc.stepEpoch();
    ASSERT_EQ(svc.relinks().size(), 3u);
    EXPECT_TRUE(svc.history().back().relinkRetried);
    const fleet::RelinkRecord &r = svc.relinks()[2];
    EXPECT_FALSE(r.quarantined);
    EXPECT_TRUE(r.verifierClean);
    EXPECT_EQ(r.generation, 2u);
    EXPECT_FALSE(svc.degraded());
    EXPECT_EQ(svc.generation(), 2u);
}

// ---------------------------------------------------------------------
// Runtime fleet configuration: canary rollout and rollback

TEST(FleetService, CanaryAddTargetRetireRollsBackCleanly)
{
    ScopedImage image("test_fleet_canary.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fo.releaseEpoch = 1;
    fleet::FleetService svc(std::move(fo));
    const uint32_t baseVersions = svc.versionCount();
    svc.run(3); // Past the release: migration toward the target began.
    const uint32_t oldTarget = svc.targetVersion();

    // Roll out a canary: new version, retarget at it.
    const uint32_t canary = svc.addVersion();
    EXPECT_EQ(canary, baseVersions);
    EXPECT_EQ(svc.versionCount(), baseVersions + 1);
    svc.setTargetVersion(canary);
    EXPECT_EQ(svc.targetVersion(), canary);
    svc.run(2);

    // Machines migrated onto the canary and it emits samples.
    const fleet::EpochStats &mid = svc.history().back();
    ASSERT_NE(mid.machinesByVersion.count(canary), 0u);
    EXPECT_GT(mid.machinesByVersion.at(canary), 0u);
    EXPECT_GT(mid.samplesByVersion.at(canary), 0u);

    // Roll it back: retiring the target repoints at the newest live
    // version and pulls every machine off the canary immediately.
    svc.retireVersion(canary);
    EXPECT_TRUE(svc.versionRetired(canary));
    EXPECT_EQ(svc.targetVersion(), oldTarget);
    svc.run(2);
    const fleet::EpochStats &after = svc.history().back();
    EXPECT_EQ(after.machinesByVersion.count(canary), 0u);
    EXPECT_EQ(after.samplesByVersion.count(canary), 0u);

    // The post-rollback service still relinks a verified artifact.
    svc.relinkNow();
    EXPECT_TRUE(svc.relinks().back().verifierClean);
    EXPECT_FALSE(svc.degraded());

    // The program recipe for runtime-added versions is reproducible: a
    // metadata link of the replayed program is the canary's binary.
    ScopedImage replay_image("test_fleet_canary2.cache");
    const fleet::FleetOptions replay_opts = fleetOptions(replay_image);
    buildsys::Workflow replay(replay_opts.base);
    replay.overrideProgram(fleet::makeVersionProgram(replay_opts, canary));
    EXPECT_EQ(replay.metadataBinary().identityHash,
              svc.versionBinary(canary).identityHash);
}

// ---------------------------------------------------------------------
// Drift metric

TEST(FleetDrift, TotalVariationHelperProperties)
{
    using Dist = std::map<std::pair<std::string, uint32_t>, double>;
    Dist empty;
    Dist a = {{{"f", 0}, 0.5}, {{"f", 1}, 0.5}};
    Dist b = {{{"g", 0}, 1.0}};
    EXPECT_EQ(fleet::totalVariation(empty, empty), 0.0);
    EXPECT_EQ(fleet::totalVariation(a, empty), 1.0);
    EXPECT_EQ(fleet::totalVariation(empty, a), 1.0);
    EXPECT_EQ(fleet::totalVariation(a, a), 0.0);
    EXPECT_EQ(fleet::totalVariation(a, b), 1.0); // Disjoint supports.

    Dist c = {{{"f", 0}, 0.75}, {{"f", 1}, 0.25}};
    EXPECT_DOUBLE_EQ(fleet::totalVariation(a, c), 0.25);
}

// ---------------------------------------------------------------------
// Statusz coverage (satellite): golden keys and typed path errors

TEST(FleetStatusz, JsonCarriesChaosAndRollbackKeys)
{
    ScopedImage image("test_fleet_szkeys.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fleet::FleetService svc(std::move(fo));
    svc.run(2);

    const std::string json = fleet::renderStatuszJson(svc);
    const char *keys[] = {
        "\"workload\"",
        "\"generation\"",     "\"degraded\"",
        "\"detection\"",      "\"machine_health\"",
        "\"corrupt\"",        "\"duplicates\"",
        "\"losses\"",         "\"late\"",
        "\"expired\"",        "\"inversions\"",
        "\"relink_failures\"",
        "\"shards_duplicated\"", "\"shards_late\"",
        "\"shards_expired\"", "\"shards_lost\"",
        "\"arrival_inversions\"", "\"shard_lag_peak\"",
        "\"relink_retried\"",
        "\"attempts\"",       "\"failed_attempts\"",
        "\"backoff_sec\"",    "\"quarantined\"",
        "\"verifier_clean\"",
    };
    for (const char *key : keys)
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // One drift metric: the size-weighted twin's keys are gone.
    for (const char *gone :
         {"\"weighted_drift\"", "\"drift_metric_unweighted\""})
        EXPECT_EQ(json.find(gone), std::string::npos) << gone;
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    const std::string text = fleet::renderStatuszText(svc);
    EXPECT_NE(text.find("transport health"), std::string::npos);
    EXPECT_NE(text.find("serving generation"), std::string::npos);
}

TEST(FleetStatusz, WriteFileReportsTypedPathErrors)
{
    ScopedImage image("test_fleet_szfile.cache");
    fleet::FleetOptions fo = fleetOptions(image);
    fleet::FleetService svc(std::move(fo));
    svc.run(1);

    support::Status bad = fleet::writeStatuszFile(svc, "");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), support::ErrorCode::kMalformed);

    support::Status unopenable = fleet::writeStatuszFile(
        svc, "no_such_dir/definitely/statusz.json");
    EXPECT_FALSE(unopenable.ok());
    EXPECT_EQ(unopenable.code(), support::ErrorCode::kUnresolved);
    EXPECT_NE(unopenable.message().find("no_such_dir"),
              std::string::npos);

    const char *path = "test_fleet_statusz_out.json";
    std::remove(path);
    support::Status ok = fleet::writeStatuszFile(svc, path);
    EXPECT_TRUE(ok.ok()) << ok.message();
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(buildsys::readFile(path, bytes));
    EXPECT_FALSE(bytes.empty());
    std::remove(path);
}

} // namespace
} // namespace propeller
