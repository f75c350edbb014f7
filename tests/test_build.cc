/**
 * @file
 * Unit tests for the distributed build system substrate: the artifact
 * cache, cost model, phase reports and caching behaviour across the
 * 4-phase workflow.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "build/cache.h"
#include "build/journal.h"
#include "build/workflow.h"
#include "codegen/codegen.h"
#include "elf/bb_addr_map.h"
#include "profile/profile.h"
#include "propeller/propeller.h"
#include "support/hash.h"
#include "test_util.h"

namespace propeller::buildsys {
namespace {

TEST(ArtifactCache, HitMissAccounting)
{
    ArtifactCache cache;
    EXPECT_EQ(cache.lookup(1), nullptr);
    cache.put(1, {1, 2, 3});
    const auto *hit = cache.lookup(1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->size(), 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().storedBytes, 3u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(ArtifactCache, ContainsDoesNotCount)
{
    ArtifactCache cache;
    cache.put(9, {0});
    EXPECT_TRUE(cache.contains(9));
    EXPECT_FALSE(cache.contains(10));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ArtifactCache, LayoutTierIsIndependentOfObjectTier)
{
    ArtifactCache cache;
    cache.put(7, {1, 2});
    cache.putLayout(7, {9, 9, 9});
    const auto *obj = cache.lookup(7);
    const auto *lay = cache.lookupLayout(7);
    ASSERT_NE(obj, nullptr);
    ASSERT_NE(lay, nullptr);
    EXPECT_EQ(obj->size(), 2u);
    EXPECT_EQ(lay->size(), 3u);
    // Counters are per tier.
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.layoutStats().hits, 1u);
    EXPECT_EQ(cache.layoutStats().misses, 0u);
    EXPECT_EQ(cache.lookupLayout(8), nullptr);
    EXPECT_EQ(cache.layoutStats().misses, 1u);
    // keys() stays an object-tier view (fault injection targets it).
    EXPECT_EQ(cache.keys().size(), 1u);
    EXPECT_EQ(cache.layoutKeys().size(), 1u);
}

TEST(ArtifactCache, SerializeRoundTripsBothTiers)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.put(2, {12});
    cache.putLayout(3, {13, 14, 15});
    std::vector<uint8_t> image = cache.serialize();

    ArtifactCache copy;
    ASSERT_TRUE(copy.deserialize(image));
    const auto *a = copy.lookup(1);
    const auto *b = copy.lookup(2);
    const auto *c = copy.lookupLayout(3);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(*a, (std::vector<uint8_t>{10, 11}));
    EXPECT_EQ(*b, (std::vector<uint8_t>{12}));
    EXPECT_EQ(*c, (std::vector<uint8_t>{13, 14, 15}));
    // A second serialize of the restored cache is a fixpoint.
    EXPECT_EQ(copy.serialize(), image);
}

TEST(ArtifactCache, SerializeLeavesRoomForJournalFraming)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.putLayout(2, {20}, /*digest=*/9);

    // The image lands after the journal header's reserved bytes in a
    // buffer sized for the footer too: sealing it in place never
    // reallocates, and the sealed journal's payload is the plain image.
    std::vector<uint8_t> framed =
        cache.serialize(kJournalHeaderBytes, kJournalFooterBytes);
    const uint8_t *buffer = framed.data();
    encodeJournal(4, framed);
    EXPECT_EQ(framed.data(), buffer);

    uint64_t gen = 0;
    std::span<const uint8_t> payload;
    ASSERT_TRUE(decodeJournal(framed, &gen, &payload));
    EXPECT_EQ(gen, 4u);
    const std::vector<uint8_t> image = cache.serialize();
    EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()), image);
}

TEST(ArtifactCache, DeserializeRejectsDamagedImages)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.putLayout(2, {20});
    std::vector<uint8_t> image = cache.serialize();

    // Bad magic, truncation, and a payload bit flip (checksum) must all
    // be rejected, leaving the target cache empty rather than poisoned.
    for (int damage = 0; damage < 3; ++damage) {
        std::vector<uint8_t> bad = image;
        if (damage == 0)
            bad[0] ^= 0xff;
        else if (damage == 1)
            bad.resize(bad.size() / 2);
        else
            bad[bad.size() / 2] ^= 0x01;
        ArtifactCache copy;
        copy.put(42, {1});
        EXPECT_FALSE(copy.deserialize(bad)) << "damage " << damage;
        EXPECT_EQ(copy.lookup(42), nullptr) << "damage " << damage;
        EXPECT_EQ(copy.keys().size(), 0u) << "damage " << damage;
    }
}

TEST(ArtifactCache, DeserializeRejectsRepeatedKey)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.put(2, {12});
    std::vector<uint8_t> image = cache.serialize();

    // Rewrite the second entry's key to the first's and re-seal the
    // footer: the checksum passes, so only the structural check that
    // each key appears once can refuse the image.
    const size_t secondKey = 4 + 8 * 2 + 8 * 4 + 2;
    ASSERT_EQ(image[secondKey], 2);
    image[secondKey] = 1;
    const size_t tail = image.size() - 8;
    const uint64_t footer = xxh64(image.data(), tail);
    for (int i = 0; i < 8; ++i)
        image[tail + i] = static_cast<uint8_t>(footer >> (8 * i));

    ArtifactCache copy;
    EXPECT_FALSE(copy.deserialize(image));
    EXPECT_EQ(copy.stats().entries, 0u);
    EXPECT_EQ(copy.stats().storedBytes, 0u);
}

TEST(ArtifactCache, CorruptLayoutIsEvictedNotServed)
{
    ArtifactCache cache;
    cache.putLayout(5, {1, 2, 3, 4});
    ASSERT_TRUE(cache.corruptStoredLayout(
        5, [](std::vector<uint8_t> &bytes) { bytes[0] ^= 0xff; }));
    // The tier's hash check catches the rot on lookup; the engine then
    // evicts and recomputes.
    EXPECT_EQ(cache.lookupLayout(5), nullptr);
    cache.evictCorruptLayout(5);
    EXPECT_EQ(cache.layoutKeys().size(), 0u);
    EXPECT_GE(cache.layoutStats().corruptions, 1u);
}

TEST(CostModel, MakespanCombinesParallelismAndCriticalPath)
{
    CostModel cost;
    cost.actionOverheadSec = 0.0;
    std::vector<double> costs = {10, 10, 10, 10};
    // 4 actions on 2 workers: 40/2 + max(10) = 30.
    EXPECT_DOUBLE_EQ(cost.makespan(costs, 2), 30.0);
    // Unlimited workers: dominated by the longest action.
    EXPECT_NEAR(cost.makespan(costs, 4000), 10.0, 0.1);
}

class WorkflowTest : public ::testing::Test
{
  protected:
    static Workflow &
    wf()
    {
        static Workflow instance(test::smallConfig(55));
        return instance;
    }
};

TEST_F(WorkflowTest, PhaseReportsExist)
{
    wf().baseline();
    wf().propellerBinary();
    for (const char *name :
         {"phase1", "phase2.codegen", "phase2.link", "phase3.collect",
          "phase3.wpa", "phase4.codegen", "phase4.link",
          "baseline.link"}) {
        EXPECT_TRUE(wf().hasReport(name)) << name;
        if (wf().hasReport(name)) {
            const PhaseReport &report = wf().report(name);
            EXPECT_GE(report.makespanSec, 0.0) << name;
        }
    }
}

TEST_F(WorkflowTest, Phase4HitRateMatchesColdObjects)
{
    wf().propellerBinary();
    const PhaseReport &codegen = wf().report("phase4.codegen");
    size_t modules = wf().program().modules.size();
    EXPECT_EQ(codegen.actions + codegen.cacheHits, modules);
    EXPECT_EQ(wf().coldObjects().size(), codegen.cacheHits);
    // Most objects are cold (the paper's ~10-33% hot objects).
    EXPECT_GT(codegen.cacheHits, modules / 3);
}

TEST_F(WorkflowTest, RelinkCheaperThanBaselineLink)
{
    wf().baseline();
    wf().propellerBinary();
    // Cached cold inputs stream cheaper than fresh distributed outputs.
    EXPECT_LT(wf().report("phase4.link").makespanSec,
              wf().report("baseline.link").makespanSec);
}

TEST_F(WorkflowTest, WpaWithinActionMemoryLimit)
{
    wf().propellerBinary();
    EXPECT_FALSE(wf().report("phase3.wpa").memoryLimitExceeded);
    EXPECT_FALSE(wf().report("phase4.link").memoryLimitExceeded);
}

TEST_F(WorkflowTest, InstrumentedBuildModelled)
{
    PhaseReport report = wf().instrumentedBuildReport();
    EXPECT_GT(report.makespanSec, 0.0);
    EXPECT_GT(report.actions, 0u);
}

TEST_F(WorkflowTest, CacheHitRateHighAfterFullPipeline)
{
    wf().propellerBinary();
    // Re-request everything: all lookups now hit.
    const auto &stats_before = wf().cacheStats();
    EXPECT_GT(stats_before.hits, 0u);
}

TEST(WorkflowDeterminism, IdenticalBinariesAcrossInstances)
{
    Workflow a(test::smallConfig(77));
    Workflow b(test::smallConfig(77));
    EXPECT_EQ(a.baseline().text, b.baseline().text);
    EXPECT_EQ(a.propellerBinary().text, b.propellerBinary().text);
    EXPECT_EQ(a.propellerBinary().entryAddress,
              b.propellerBinary().entryAddress);
}

TEST(WorkflowBinaries, MetadataLargerThanBaseline)
{
    Workflow wf(test::smallConfig(88));
    uint64_t base = wf.baseline().fileSize();
    uint64_t pm = wf.metadataBinary().fileSize();
    uint64_t bm = wf.boltInputBinary().fileSize();
    EXPECT_GT(pm, base) << "PM carries .bb_addr_map";
    EXPECT_GT(bm, base) << "BM carries .rela";
    // Metadata binaries share the same text image.
    EXPECT_EQ(wf.metadataBinary().text, wf.baseline().text);
    EXPECT_EQ(wf.boltInputBinary().text, wf.baseline().text);
}

TEST(WorkflowBinaries, PropellerBinaryNearBaselineSize)
{
    Workflow wf(test::smallConfig(99));
    uint64_t base = wf.baseline().sizes.text;
    uint64_t po = wf.propellerBinary().sizes.text;
    EXPECT_LT(po, base * 115 / 100)
        << "PO text must stay within a few percent of baseline";
}

// ---------------------------------------------------------------------
// Crash-safe journal persistence (the fleet cache image's container)

/** A decoded payload view as bytes. */
std::vector<uint8_t>
bytesOf(std::span<const uint8_t> view)
{
    return {view.begin(), view.end()};
}

TEST(Journal, EncodeDecodeRoundTripsGenerationAndPayload)
{
    const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                          0x01, 0x7f};
    std::vector<uint8_t> image = test::journaled(41, payload);
    EXPECT_EQ(image.size(), kJournalHeaderBytes + payload.size() +
                                kJournalFooterBytes);

    uint64_t gen = 0;
    std::span<const uint8_t> out;
    ASSERT_TRUE(decodeJournal(image, &gen, &out));
    EXPECT_EQ(gen, 41u);
    EXPECT_EQ(bytesOf(out), payload);
    // The payload is a view into the file buffer, not a copy.
    EXPECT_EQ(out.data(), image.data() + kJournalHeaderBytes);

    // An empty payload is a valid (if pointless) image.
    image = test::journaled(7, {});
    ASSERT_TRUE(decodeJournal(image, &gen, &out));
    EXPECT_EQ(gen, 7u);
    EXPECT_TRUE(out.empty());
}

TEST(Journal, DecodeRejectsEveryTruncationPoint)
{
    std::vector<uint8_t> payload(64);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 1);
    const std::vector<uint8_t> image = test::journaled(3, payload);

    // Every proper prefix — torn inside the header, the payload, or the
    // footer — must read as "no image", never as a short payload.
    const uint8_t sentinel[1] = {0xaa};
    for (size_t len = 0; len < image.size(); ++len) {
        std::vector<uint8_t> torn(image.begin(), image.begin() + len);
        uint64_t gen = 99;
        std::span<const uint8_t> out(sentinel);
        EXPECT_FALSE(decodeJournal(torn, &gen, &out)) << "len " << len;
        EXPECT_EQ(gen, 99u) << "outputs touched at len " << len;
        EXPECT_EQ(out.data(), sentinel) << "outputs touched at len " << len;
        EXPECT_EQ(out.size(), 1u) << "outputs touched at len " << len;
    }
}

TEST(Journal, DecodeRejectsBitDamageInEveryRegion)
{
    std::vector<uint8_t> payload(32, 0x5a);
    const std::vector<uint8_t> image = test::journaled(12, payload);

    // One representative byte per region: magic, generation, length,
    // payload, footer checksum.
    const size_t probes[] = {0, 5, 14, kJournalHeaderBytes + 3,
                             image.size() - 2};
    for (size_t pos : probes) {
        std::vector<uint8_t> damaged = image;
        damaged[pos] ^= 0x10;
        EXPECT_FALSE(decodeJournal(damaged, nullptr, nullptr))
            << "byte " << pos;
    }
}

TEST(Journal, AtomicWriteCrashSweepNeverCorruptsExistingImage)
{
    const std::string path = "test_journal_crash.img";
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());

    std::vector<uint8_t> oldPayload(48, 0x11);
    std::vector<uint8_t> newPayload(96, 0x22);
    const std::vector<uint8_t> oldImage = test::journaled(1, oldPayload);
    const std::vector<uint8_t> newImage = test::journaled(2, newPayload);
    ASSERT_TRUE(atomicWriteFile(path, oldImage));

    // Kill the save at every byte boundary class of the new image:
    // inside the header, at the header/payload and payload/footer
    // boundaries, strided through the payload, inside the footer, and
    // after the last byte (written in full but never renamed).
    std::vector<long> crashes;
    for (size_t b = 0; b <= kJournalHeaderBytes; ++b)
        crashes.push_back(static_cast<long>(b));
    for (size_t b = kJournalHeaderBytes; b < newImage.size(); b += 7)
        crashes.push_back(static_cast<long>(b));
    for (size_t b = newImage.size() - kJournalFooterBytes;
         b <= newImage.size(); ++b)
        crashes.push_back(static_cast<long>(b));

    for (long crash : crashes) {
        EXPECT_FALSE(atomicWriteFile(path, newImage, crash))
            << "crash at " << crash;
        std::vector<uint8_t> file;
        ASSERT_TRUE(readFile(path, file)) << "crash at " << crash;
        uint64_t gen = 0;
        std::span<const uint8_t> out;
        ASSERT_TRUE(decodeJournal(file, &gen, &out))
            << "crash at " << crash;
        EXPECT_EQ(gen, 1u) << "crash at " << crash;
        EXPECT_EQ(bytesOf(out), oldPayload) << "crash at " << crash;
    }

    // The next clean save goes through and replaces the image whole.
    ASSERT_TRUE(atomicWriteFile(path, newImage));
    std::vector<uint8_t> file;
    ASSERT_TRUE(readFile(path, file));
    uint64_t gen = 0;
    std::span<const uint8_t> out;
    ASSERT_TRUE(decodeJournal(file, &gen, &out));
    EXPECT_EQ(gen, 2u);
    EXPECT_EQ(bytesOf(out), newPayload);

    std::remove(path.c_str());
    std::remove(tmp.c_str());
}

TEST(WorkflowCache, JournaledImageRoundTripsGeneration)
{
    const char *path = "test_wf_journal.cache";
    std::remove(path);
    workload::WorkloadConfig cfg = test::smallConfig();

    buildsys::Workflow writer(cfg);
    writer.propellerBinary();
    ASSERT_TRUE(writer.saveCacheFile(path, /*generation=*/17));

    buildsys::Workflow reader(cfg);
    uint64_t gen = 0;
    ASSERT_TRUE(reader.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 17u);
    std::remove(path);
}

TEST(WorkflowCache, TornImageColdStartsCleanly)
{
    const char *path = "test_wf_torn.cache";
    workload::WorkloadConfig cfg = test::smallConfig();

    buildsys::Workflow writer(cfg);
    writer.propellerBinary();
    ASSERT_TRUE(writer.saveCacheFile(path, 5));

    // Tear the image mid-payload: the load must report "no image" (a
    // cold start), never abort or half-load.
    std::vector<uint8_t> image;
    ASSERT_TRUE(readFile(path, image));
    image.resize(image.size() / 2);
    ASSERT_TRUE(atomicWriteFile(path, image));

    buildsys::Workflow reader(cfg);
    uint64_t gen = 99;
    EXPECT_FALSE(reader.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 99u);

    // The cold workflow still relinks and can re-persist over the torn
    // image.
    reader.propellerBinary();
    ASSERT_TRUE(reader.saveCacheFile(path, 6));
    buildsys::Workflow again(cfg);
    uint64_t gen2 = 0;
    EXPECT_TRUE(again.loadCacheFile(path, &gen2));
    EXPECT_EQ(gen2, 6u);
    std::remove(path);
    std::remove((std::string(path) + ".tmp").c_str());
}

TEST(WorkflowCache, PreviousFormatImageColdStarts)
{
    // A well-formed image two formats back: a "PAC2" payload and a
    // "PFJ1" container, both sealed with FNV-1a footers.  It must read
    // as "no image", so the relink cold-starts.
    auto putU64 = [](std::vector<uint8_t> &out, uint64_t v) {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    };
    std::vector<uint8_t> payload = {'P', 'A', 'C', '2'};
    putU64(payload, 0);
    putU64(payload, 0);
    putU64(payload, fnv1a(payload));
    EXPECT_FALSE(ArtifactCache().deserialize(payload));
    std::vector<uint8_t> file = {'P', 'F', 'J', '1'};
    putU64(file, 4);
    putU64(file, payload.size());
    file.insert(file.end(), payload.begin(), payload.end());
    putU64(file, fnv1a(file));

    const char *path = "test_wf_previous.cache";
    ASSERT_TRUE(atomicWriteFile(path, file));
    Workflow reader(test::smallConfig());
    uint64_t gen = 99;
    EXPECT_FALSE(reader.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 99u);

    // One format back: a well-formed "PAC3" image of real entries, with
    // its XXH64 footer, in a current journal.  Its objects carried a
    // second copy of their address maps, so it too is "no image": no
    // entry is loaded, and none counts as a corruption.
    ArtifactCache old;
    old.put(1, {1, 2, 3});
    old.putLayout(2, {4, 5}, 7);
    std::vector<uint8_t> pac3 = old.serialize();
    pac3[3] = '3';
    pac3.resize(pac3.size() - 8);
    putU64(pac3, xxh64(pac3.data(), pac3.size()));
    EXPECT_FALSE(ArtifactCache().deserialize(pac3));
    ASSERT_TRUE(atomicWriteFile(path, test::journaled(5, pac3)));
    Workflow reader3(test::smallConfig());
    EXPECT_FALSE(reader3.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 99u);
    for (const CacheStats *stats :
         {&reader3.cacheStats(), &reader3.layoutCacheStats()}) {
        EXPECT_EQ(stats->entries, 0u);
        EXPECT_EQ(stats->corruptions, 0u);
    }
    std::remove(path);
}

// ---------------------------------------------------------------------
// Format pins: one digest per persisted or wire format, over the bytes
// each encoder writes for the two LinkGolden apps (tests/test_linker.cc).
// A codec change that claims byte-identical formats must leave these
// passing.

/** The digests of one app's formats. */
struct FormatDigests
{
    uint64_t objects = 0;    ///< Serialized Phase 2 objects.
    uint64_t addrMapsV1 = 0; ///< Their maps re-encoded as v1...
    uint64_t addrMapsV2 = 0; ///< ...and as v2.
    uint64_t profile = 0;    ///< The workflow profile (LBR1).
    uint64_t shards = 0;     ///< The same profile in 128-sample shards.
    uint64_t layouts = 0;    ///< Every WPA function's encoded layout.
    uint64_t image = 0;      ///< The cache image after the relink (PAC4).
    uint64_t journal = 0;    ///< That image framed as saved (PFJ2).
};

void
addBytes(test::Digest &d, const std::vector<uint8_t> &bytes)
{
    d.add(std::string(bytes.begin(), bytes.end()));
}

FormatDigests
computeFormatDigests(const workload::WorkloadConfig &cfg, bool debug_info)
{
    FormatDigests out;
    Workflow wf(cfg);
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    copts.emitDebugInfo = debug_info;
    test::Digest objects, v1, v2;
    size_t with_maps = 0;
    for (const elf::ObjectFile &obj :
         codegen::compileProgram(wf.program(), copts)) {
        addBytes(objects, obj.serialize());
        const int sect = obj.findSection(".bb_addr_map");
        if (sect < 0)
            continue;
        auto maps = elf::decodeAddrMapsChecked(obj.sections[sect].bytes);
        EXPECT_TRUE(maps.ok()) << obj.name;
        if (!maps.ok())
            continue;
        ++with_maps;
        addBytes(v1, elf::encodeAddrMaps(*maps, elf::AddrMapVersion::V1));
        addBytes(v2, elf::encodeAddrMaps(*maps, elf::AddrMapVersion::V2));
    }
    EXPECT_GT(with_maps, 0u);
    out.objects = objects.value();
    out.addrMapsV1 = v1.value();
    out.addrMapsV2 = v2.value();

    const profile::Profile &prof = wf.profile();
    test::Digest p, shards, layouts;
    addBytes(p, prof.serialize());
    for (const auto &shard : profile::serializeShards(prof, 128))
        addBytes(shards, shard);
    out.profile = p.value();
    out.shards = shards.value();

    core::WpaPipeline pipe(wf.metadataBinary(), prof, core::LayoutOptions{},
                           1);
    pipe.build();
    for (size_t f = 0; f < pipe.functionCount(); ++f)
        addBytes(layouts, core::encodeFunctionLayout(pipe.layoutFunction(f)));
    out.layouts = layouts.value();

    wf.propellerBinary();
    // ctest runs each test in its own process, in parallel.
    const std::string path =
        std::string("test_format_golden_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        std::to_string(cfg.seed) + ".cache";
    EXPECT_TRUE(wf.saveCacheFile(path, /*generation=*/9));
    std::vector<uint8_t> file;
    EXPECT_TRUE(readFile(path, file));
    std::remove(path.c_str());
    std::span<const uint8_t> payload;
    EXPECT_TRUE(decodeJournal(file, nullptr, &payload));
    test::Digest image, journal;
    addBytes(image, bytesOf(payload));
    addBytes(journal, file);
    out.image = image.value();
    out.journal = journal.value();
    return out;
}

/** The LinkGolden apps' digests, computed once per test binary. */
const FormatDigests &
formatDigests(int app)
{
    static const FormatDigests small = [] {
        workload::WorkloadConfig cfg = test::smallConfig(47);
        cfg.integrityCheckedFunctions = 2;
        return computeFormatDigests(cfg, false);
    }();
    static const FormatDigests handAsm = [] {
        workload::WorkloadConfig cfg = test::smallConfig(73);
        cfg.integrityCheckedFunctions = 1;
        cfg.handAsmFunctions = 3;
        return computeFormatDigests(cfg, true);
    }();
    return app == 0 ? small : handAsm;
}

/** Check one pinned field of both apps. */
void
expectPinned(uint64_t FormatDigests::*field, uint64_t small,
             uint64_t hand_asm)
{
    EXPECT_EQ(formatDigests(0).*field, small)
        << "small app 0x" << std::hex << formatDigests(0).*field;
    EXPECT_EQ(formatDigests(1).*field, hand_asm)
        << "hand-asm app 0x" << std::hex << formatDigests(1).*field;
}

TEST(FormatGolden, ObjectFiles)
{
    expectPinned(&FormatDigests::objects, 0x71fd0eeda340a974ull,
                 0x24a1a708f1723859ull);
}

TEST(FormatGolden, AddrMapsV1AndV2)
{
    expectPinned(&FormatDigests::addrMapsV1, 0x7bd0cdf952619316ull,
                 0x91b46d5132c278f8ull);
    expectPinned(&FormatDigests::addrMapsV2, 0x369ee22dd73c7752ull,
                 0x418e3255adfc0945ull);
}

TEST(FormatGolden, ProfileAndShards)
{
    expectPinned(&FormatDigests::profile, 0x8a7419e80f24b975ull,
                 0xe729e59331fe96b7ull);
    expectPinned(&FormatDigests::shards, 0xc80408ab08411df6ull,
                 0x56c6dfcf1979fb7dull);
}

TEST(FormatGolden, FunctionLayouts)
{
    expectPinned(&FormatDigests::layouts, 0x11eea5bc69ecc8f5ull,
                 0x7a2453ab37a3f542ull);
}

TEST(FormatGolden, CacheImage)
{
    expectPinned(&FormatDigests::image, 0xb8b9dcee8868db44ull,
                 0x007d933ff20d269bull);
}

TEST(FormatGolden, Journal)
{
    expectPinned(&FormatDigests::journal, 0x2e98f5a68a86e55full,
                 0x1fc48ae6be196da0ull);
}

TEST(WorkflowReports, BoltReportsPopulated)
{
    Workflow wf(test::smallConfig(66));
    wf.propellerBinary(); // Runs the WPA for the comparison below.
    bolt::BoltStats stats;
    wf.boltBinary({}, &stats);
    EXPECT_TRUE(wf.hasReport("bolt.convert"));
    EXPECT_TRUE(wf.hasReport("bolt.opt"));
    EXPECT_GT(wf.report("bolt.opt").peakActionMemory,
              wf.report("phase3.wpa").peakActionMemory)
        << "monolithic BOLT must out-consume Propeller's WPA";
}

} // namespace
} // namespace propeller::buildsys
