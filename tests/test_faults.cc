/**
 * @file
 * Fault-tolerance tests: the fuzz property that corrupt inputs are
 * rejected with typed errors (never a crash, never silent acceptance),
 * artifact-cache integrity verification, shard salvage, fault-spec
 * parsing, deterministic injection, and the workflow-level degradation
 * paths (retry, poisoned-cache rebuild, zero-fault byte identity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "build/cache.h"
#include "build/journal.h"
#include "build/workflow.h"
#include "codegen/codegen.h"
#include "elf/bb_addr_map.h"
#include "elf/object.h"
#include "faultinject/faultinject.h"
#include "linker/linker.h"
#include "profile/profile.h"
#include "propeller/propeller.h"
#include "support/bytes.h"
#include "support/hash.h"
#include "support/rng.h"
#include "test_util.h"

// The decoder fuzz checks that no reservation outgrows what its input
// could hold: these replacements of the scalar allocation functions
// record the largest request made while a decode runs.  The whole
// scalar family is replaced, so no block is freed by an allocator other
// than the one that made it (a sanitizer runtime keeps the array
// family, which std::allocator does not use).
namespace {
thread_local bool g_trackAllocations = false;
thread_local std::size_t g_largestAllocation = 0;

void *
trackedMalloc(std::size_t size) noexcept
{
    if (g_trackAllocations)
        g_largestAllocation = std::max(g_largestAllocation, size);
    return std::malloc(size == 0 ? 1 : size);
}
} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = trackedMalloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return trackedMalloc(size);
}

// Out of line, so no caller sees free() paired with a new expression.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace propeller {
namespace {

using faultinject::FaultInjector;
using faultinject::FaultSpec;
using faultinject::mutateBytes;
using faultinject::parseFaultSpec;

/** A real .bb_addr_map payload as codegen emits it (v2, checksummed). */
std::vector<uint8_t>
validAddrMapBlob()
{
    ir::Program program = test::tinyProgram();
    codegen::Options opts;
    opts.emitAddrMapSection = true;
    auto objects = codegen::compileProgram(program, opts);
    int sect = objects[0].findSection(".bb_addr_map");
    EXPECT_GE(sect, 0);
    return objects[0].sections[sect].bytes;
}

/** Serialized objects of an app with hand assembly, debug info,
 *  integrity checks and address maps (LinkGolden's second app). */
std::vector<std::vector<uint8_t>>
validObjectBlobs()
{
    workload::WorkloadConfig cfg = test::smallConfig(73);
    cfg.integrityCheckedFunctions = 1;
    cfg.handAsmFunctions = 3;
    buildsys::Workflow wf(cfg);
    codegen::Options opts;
    opts.emitAddrMapSection = true;
    opts.emitDebugInfo = true;
    std::vector<std::vector<uint8_t>> blobs;
    for (const elf::ObjectFile &obj :
         codegen::compileProgram(wf.program(), opts))
        blobs.push_back(obj.serialize());
    return blobs;
}

/** Every WPA function's encoded layout for a small app. */
std::vector<std::vector<uint8_t>>
validLayoutBlobs()
{
    buildsys::Workflow wf(test::smallConfig());
    core::WpaPipeline pipe(wf.metadataBinary(), wf.profile(),
                           core::LayoutOptions{}, 1);
    pipe.build();
    std::vector<std::vector<uint8_t>> blobs;
    for (size_t f = 0; f < pipe.functionCount(); ++f)
        blobs.push_back(core::encodeFunctionLayout(pipe.layoutFunction(f)));
    return blobs;
}

/** The largest single allocation @p decode makes. */
template <typename Fn>
std::size_t
largestAllocation(Fn &&decode)
{
    g_largestAllocation = 0;
    g_trackAllocations = true;
    decode();
    g_trackAllocations = false;
    return g_largestAllocation;
}

/** A deterministic profile with enough samples to shard. */
profile::Profile
validProfile()
{
    profile::Profile p;
    p.binaryHash = 0xabcdef12345678ull;
    p.totalRetired = 987654;
    for (uint32_t i = 0; i < 40; ++i) {
        profile::LbrSample sample;
        sample.count = 4;
        for (uint32_t j = 0; j < sample.count; ++j) {
            sample.records[j].from = 0x400000 + i * 64 + j * 8;
            sample.records[j].to = 0x401000 + i * 32 + j * 4;
        }
        p.samples.push_back(sample);
    }
    return p;
}

/**
 * Scratch path for this test's cache files: ctest runs tests in
 * parallel processes, so each test writes under its own name.
 */
std::string
scratchPath(const char *what)
{
    return std::string("test_faults_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           what;
}

/** A real journaled cache image, as a small-config Workflow saves it. */
std::vector<uint8_t>
savedCacheFile()
{
    const std::string path = scratchPath(".saved.cache");
    buildsys::Workflow wf(test::smallConfig());
    wf.propellerBinary();
    EXPECT_TRUE(wf.saveCacheFile(path, /*generation=*/3));
    std::vector<uint8_t> file;
    EXPECT_TRUE(buildsys::readFile(path, file));
    std::remove(path.c_str());
    return file;
}

/** The cache image inside a journal container. */
std::vector<uint8_t>
imageOf(const std::vector<uint8_t> &file)
{
    std::span<const uint8_t> payload;
    EXPECT_TRUE(buildsys::decodeJournal(file, nullptr, &payload));
    return {payload.begin(), payload.end()};
}

/** loadCacheFile over @p file: whether it loaded, and what it holds. */
struct LoadOutcome
{
    bool loaded = false;
    uint64_t generation = 0;
    uint64_t entries = 0;
    uint64_t storedBytes = 0;
};

LoadOutcome
loadFile(const std::vector<uint8_t> &file)
{
    const std::string path = scratchPath(".mutant.cache");
    EXPECT_TRUE(buildsys::atomicWriteFile(path, file));
    buildsys::Workflow wf(test::smallConfig());
    LoadOutcome out;
    out.generation = 77;
    out.loaded = wf.loadCacheFile(path, &out.generation);
    out.entries = wf.cacheStats().entries + wf.layoutCacheStats().entries;
    out.storedBytes =
        wf.cacheStats().storedBytes + wf.layoutCacheStats().storedBytes;
    std::remove(path.c_str());
    return out;
}

size_t
countFailures(const buildsys::PhaseReport &report, const std::string &prefix)
{
    size_t n = 0;
    for (const auto &line : report.failures)
        if (line.rfind(prefix, 0) == 0)
            ++n;
    return n;
}

// ---- The ISSUE fuzz property: 200 random mutations of a valid blob ----
// must each produce a clean typed error — never a crash (the test binary
// would die) and never silent acceptance (ok() would be true).

TEST(FuzzRejection, AddrMapMutationsNeverAcceptedSilently)
{
    const std::vector<uint8_t> blob = validAddrMapBlob();
    ASSERT_FALSE(blob.empty());
    ASSERT_TRUE(elf::decodeAddrMapsChecked(blob).ok());

    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0xbbaddbeef, seed));
        std::vector<uint8_t> mutated = blob;
        mutateBytes(mutated, rng);
        ASSERT_NE(mutated, blob) << "seed " << seed;
        auto decoded = elf::decodeAddrMapsChecked(mutated);
        EXPECT_FALSE(decoded.ok())
            << "seed " << seed << ": corrupt blob accepted silently";
        if (!decoded.ok()) {
            EXPECT_FALSE(decoded.status().message().empty())
                << "seed " << seed;
        }
    }
}

TEST(FuzzRejection, ProfileMutationsNeverAcceptedSilently)
{
    const std::vector<uint8_t> blob = validProfile().serialize();
    ASSERT_TRUE(profile::Profile::deserializeChecked(blob).ok());

    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0x9e0f11e5, seed));
        std::vector<uint8_t> mutated = blob;
        mutateBytes(mutated, rng);
        ASSERT_NE(mutated, blob) << "seed " << seed;
        auto decoded = profile::Profile::deserializeChecked(mutated);
        EXPECT_FALSE(decoded.ok())
            << "seed " << seed << ": corrupt profile accepted silently";
    }
}

// Object files and encoded layouts carry no checksum of their own (the
// cache's entry hashes guard them), so a mutant may decode.  Each must
// decode or be refused with a typed error, never crash, and never
// allocate more than one decoded element per input byte (per 8-byte
// word for layouts).  What an accepted mutant decodes to re-encodes
// canonically: the re-encoding decodes again and re-encodes to itself.

TEST(FuzzRejection, ObjectMutationsDecodeOrFailTyped)
{
    const std::vector<std::vector<uint8_t>> blobs = validObjectBlobs();
    ASSERT_FALSE(blobs.empty());
    for (const auto &blob : blobs)
        ASSERT_TRUE(elf::ObjectFile::deserializeChecked(blob).ok());
    constexpr std::size_t kElement =
        std::max({sizeof(elf::Section), sizeof(elf::TextPiece),
                  sizeof(elf::Symbol), sizeof(elf::FrameDescriptor),
                  sizeof(std::string)});

    size_t rejected = 0;
    for (uint64_t seed = 0; seed < 400; ++seed) {
        Rng rng(mix64(0x0b1ec7f2, seed));
        std::vector<uint8_t> mutated = blobs[seed % blobs.size()];
        mutateBytes(mutated, rng);
        // An exact-size buffer, so any overread leaves the allocation.
        mutated.shrink_to_fit();
        std::optional<support::StatusOr<elf::ObjectFile>> decoded;
        const std::size_t largest = largestAllocation([&] {
            decoded.emplace(elf::ObjectFile::deserializeChecked(mutated));
        });
        EXPECT_LE(largest, mutated.size() * kElement) << "seed " << seed;
        if (!decoded->ok()) {
            ++rejected;
            EXPECT_NE(decoded->status().code(), support::ErrorCode::kOk)
                << "seed " << seed;
            EXPECT_FALSE(decoded->status().message().empty())
                << "seed " << seed;
            continue;
        }
        const std::vector<uint8_t> canon = (*decoded)->serialize();
        auto again = elf::ObjectFile::deserializeChecked(canon);
        ASSERT_TRUE(again.ok()) << "seed " << seed;
        EXPECT_EQ(again->serialize(), canon) << "seed " << seed;
    }
    EXPECT_GT(rejected, 0u);
}

TEST(FuzzRejection, LayoutMutationsDecodeOrFailTyped)
{
    const std::vector<std::vector<uint8_t>> blobs = validLayoutBlobs();
    ASSERT_FALSE(blobs.empty());
    size_t rejected = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0x1a7011, seed));
        std::vector<uint8_t> mutated = blobs[seed % blobs.size()];
        mutateBytes(mutated, rng);
        mutated.shrink_to_fit();
        core::FunctionLayout layout;
        bool ok = false;
        const std::size_t largest = largestAllocation(
            [&] { ok = core::decodeFunctionLayout(mutated, layout); });
        EXPECT_LE(largest, mutated.size() / 8 * sizeof(std::vector<uint32_t>))
            << "seed " << seed;
        if (!ok) {
            ++rejected;
            continue;
        }
        const std::vector<uint8_t> canon = core::encodeFunctionLayout(layout);
        core::FunctionLayout again;
        ASSERT_TRUE(core::decodeFunctionLayout(canon, again))
            << "seed " << seed;
        EXPECT_EQ(core::encodeFunctionLayout(again), canon)
            << "seed " << seed;
    }
    EXPECT_GT(rejected, 0u);
}

// The persisted cache image: the journal container (its footer covers
// the whole file) and, inside it, the cache image (its own footer and
// the per-entry framing).  The journal fuzz damages the file as stored,
// with both decoders behind it; the image fuzz damages the image and
// re-frames it in a valid journal, so only the image's checks stand
// between a mutant and the cache.

TEST(FuzzRejection, JournalMutationsNeverAcceptedSilently)
{
    const std::vector<uint8_t> file = savedCacheFile();
    const LoadOutcome clean = loadFile(file);
    ASSERT_TRUE(clean.loaded);
    ASSERT_EQ(clean.generation, 3u);
    ASSERT_GT(clean.entries, 0u);

    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0x10a7a1, seed));
        std::vector<uint8_t> mutated = file;
        mutateBytes(mutated, rng);
        ASSERT_NE(mutated, file) << "seed " << seed;
        const LoadOutcome out = loadFile(mutated);
        EXPECT_FALSE(out.loaded)
            << "seed " << seed << ": damaged journal accepted silently";
        EXPECT_EQ(out.generation, 77u) << "seed " << seed;
        EXPECT_EQ(out.entries, 0u) << "seed " << seed;
        EXPECT_EQ(out.storedBytes, 0u) << "seed " << seed;
    }
}

TEST(FuzzRejection, CacheImageMutationsNeverAcceptedSilently)
{
    const std::vector<uint8_t> image = imageOf(savedCacheFile());
    ASSERT_TRUE(loadFile(test::journaled(3, image)).loaded);

    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0xcac4e1, seed));
        std::vector<uint8_t> mutated = image;
        mutateBytes(mutated, rng);
        ASSERT_NE(mutated, image) << "seed " << seed;
        const LoadOutcome out = loadFile(test::journaled(3, mutated));
        EXPECT_FALSE(out.loaded)
            << "seed " << seed << ": damaged image accepted silently";
        EXPECT_EQ(out.entries, 0u) << "seed " << seed;
        EXPECT_EQ(out.storedBytes, 0u) << "seed " << seed;
    }

    // Re-sealed: damage the image body and recompute its footer, so
    // only the structural checks and the per-entry checksums remain.
    // deserialize must reject the image or load entries that lookup
    // either serves verified or refuses as corrupt; it never reads
    // past the buffer (the sanitizer build runs this).
    const std::vector<uint8_t> body(image.begin(), image.end() - 8);
    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(mix64(0x5ea1ed, seed));
        std::vector<uint8_t> mutated = body;
        mutateBytes(mutated, rng);
        putLe64(xxh64(mutated.data(), mutated.size()), mutated);
        // An exact-size buffer, so any overread leaves the allocation.
        mutated.shrink_to_fit();

        buildsys::ArtifactCache cache;
        if (!cache.deserialize(mutated)) {
            EXPECT_EQ(cache.stats().entries, 0u) << "seed " << seed;
            EXPECT_EQ(cache.layoutStats().entries, 0u) << "seed " << seed;
            continue;
        }
        const std::vector<uint64_t> keys = cache.keys();
        const std::vector<uint64_t> layoutKeys = cache.layoutKeys();
        uint64_t served = 0;
        for (uint64_t key : keys)
            served += cache.lookup(key) != nullptr;
        for (uint64_t key : layoutKeys)
            served += cache.lookupLayout(key) != nullptr;
        const buildsys::CacheStats &o = cache.stats();
        const buildsys::CacheStats &l = cache.layoutStats();
        // Every entry was either served (its checksum verified) or
        // refused and evicted as a corruption — nothing else.
        EXPECT_EQ(o.hits + o.corruptions, keys.size()) << "seed " << seed;
        EXPECT_EQ(l.hits + l.corruptions, layoutKeys.size())
            << "seed " << seed;
        EXPECT_EQ(o.hits + l.hits, served) << "seed " << seed;
        EXPECT_EQ(o.entries + l.entries, served) << "seed " << seed;
    }
}

// ---- Artifact cache integrity -----------------------------------------

TEST(ArtifactCacheIntegrity, SilentRotEvictedOnLookup)
{
    buildsys::ArtifactCache cache;
    cache.put(7, {1, 2, 3, 4});
    ASSERT_TRUE(cache.corruptStored(
        7, [](std::vector<uint8_t> &bytes) { bytes[0] ^= 0x80; }));
    EXPECT_EQ(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.stats().corruptions, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_FALSE(cache.contains(7));
}

TEST(ArtifactCacheIntegrity, ScrubSweepsCorruptEntries)
{
    buildsys::ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.put(2, {20, 21});
    cache.put(3, {30, 31});
    ASSERT_TRUE(cache.corruptStored(
        2, [](std::vector<uint8_t> &bytes) { bytes[1] ^= 1; }));
    EXPECT_EQ(cache.scrub(), 1u);
    EXPECT_EQ(cache.stats().corruptions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    // A second sweep over the now-clean store finds nothing.
    EXPECT_EQ(cache.scrub(), 0u);
    EXPECT_EQ(cache.keys(), (std::vector<uint64_t>{1, 3}));
}

TEST(ArtifactCacheIntegrity, PoisonedEntryPassesHashNeedsEvictCorrupt)
{
    buildsys::ArtifactCache cache;
    cache.put(5, {1, 2, 3});
    // rehash=true models an artifact poisoned *before* it reached the
    // store: the hash describes the poisoned bytes, so byte verification
    // passes and only structural validation can catch it.
    ASSERT_TRUE(cache.corruptStored(
        5, [](std::vector<uint8_t> &bytes) { bytes = {0xde, 0xad}; },
        /*rehash=*/true));
    EXPECT_NE(cache.lookup(5), nullptr);
    EXPECT_EQ(cache.stats().corruptions, 0u);
    cache.evictCorrupt(5);
    EXPECT_EQ(cache.stats().corruptions, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    // Evicting an absent key is a no-op, not a double count.
    cache.evictCorrupt(5);
    EXPECT_EQ(cache.stats().corruptions, 1u);
}

TEST(ArtifactCacheIntegrity, CorruptStoredTracksSizeDelta)
{
    buildsys::ArtifactCache cache;
    cache.put(4, std::vector<uint8_t>(10, 0x55));
    EXPECT_EQ(cache.stats().storedBytes, 10u);
    ASSERT_TRUE(cache.corruptStored(
        4, [](std::vector<uint8_t> &bytes) { bytes.resize(4); }));
    EXPECT_EQ(cache.stats().storedBytes, 4u);
    EXPECT_FALSE(cache.corruptStored(
        99, [](std::vector<uint8_t> &bytes) { bytes.clear(); }));
}

// ---- Fault spec parsing -----------------------------------------------

TEST(FaultSpecParse, ParsesFullSpec)
{
    auto spec = parseFaultSpec("seed=7,profile=0.25,cache=0.5,addrmap=1,"
                               "exec=0");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_DOUBLE_EQ(spec->profileRate, 0.25);
    EXPECT_DOUBLE_EQ(spec->cacheRate, 0.5);
    EXPECT_DOUBLE_EQ(spec->addrMapRate, 1.0);
    EXPECT_DOUBLE_EQ(spec->execFailRate, 0.0);
    EXPECT_TRUE(spec->any());

    auto empty = parseFaultSpec("");
    ASSERT_TRUE(empty.ok());
    EXPECT_FALSE(empty->any());
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseFaultSpec("profile").ok());
    EXPECT_FALSE(parseFaultSpec("profile=2").ok());
    EXPECT_FALSE(parseFaultSpec("profile=-0.1").ok());
    EXPECT_FALSE(parseFaultSpec("profile=abc").ok());
    EXPECT_FALSE(parseFaultSpec("bogus=0.5").ok());
    EXPECT_FALSE(parseFaultSpec("seed=1.5").ok());
}

// ---- Sharded profile salvage ------------------------------------------

TEST(ShardSalvage, RoundTripIsLossless)
{
    profile::Profile p = validProfile();
    auto shards = profile::serializeShards(p, 16);
    ASSERT_EQ(shards.size(), 3u); // 16 + 16 + 8 samples.
    profile::ShardLoadStats stats;
    profile::Profile loaded = profile::loadShards(shards, &stats);
    EXPECT_EQ(stats.shardsTotal, 3u);
    EXPECT_EQ(stats.shardsRejected, 0u);
    EXPECT_EQ(loaded.serialize(), p.serialize());
}

TEST(ShardSalvage, CorruptShardCostsItsSamplesNotTheRun)
{
    profile::Profile p = validProfile();
    auto shards = profile::serializeShards(p, 16);
    ASSERT_EQ(shards.size(), 3u);
    Rng rng(mix64(0x5a17a6e, 1));
    mutateBytes(shards[1], rng);

    profile::ShardLoadStats stats;
    profile::Profile loaded = profile::loadShards(shards, &stats);
    EXPECT_EQ(stats.shardsRejected, 1u);
    EXPECT_FALSE(stats.firstError.empty());
    EXPECT_EQ(loaded.samples.size(), p.samples.size() - 16);
    // Session identity survives losing a middle shard.
    EXPECT_EQ(loaded.binaryHash, p.binaryHash);
    EXPECT_EQ(loaded.totalRetired, p.totalRetired);
}

// ---- Deterministic injection ------------------------------------------

TEST(FaultInjection, SameSpecSameDecisionsSameBytes)
{
    profile::Profile p = validProfile();
    FaultSpec spec;
    spec.seed = 41;
    spec.profileRate = 0.5;

    auto run = [&](std::vector<std::vector<uint8_t>> &shards) {
        FaultInjector injector(spec);
        injector.onProfileShards(shards);
        return injector.stats();
    };
    auto shards_a = profile::serializeShards(p, 8);
    auto shards_b = profile::serializeShards(p, 8);
    auto stats_a = run(shards_a);
    auto stats_b = run(shards_b);

    EXPECT_GT(stats_a.profileShardsCorrupted, 0u);
    EXPECT_EQ(stats_a.profileShardsCorrupted, stats_b.profileShardsCorrupted);
    EXPECT_EQ(stats_a.corruptedShardIndices, stats_b.corruptedShardIndices);
    EXPECT_EQ(shards_a, shards_b);
}

// ---- Cluster directive sanitizing -------------------------------------

TEST(SanitizeClusterMap, DropsInvalidSpecsKeepsValid)
{
    ir::Program program = test::tinyProgram();

    codegen::ClusterMap clusters;
    codegen::ClusterSpec good;
    good.clusters = {{0, 1}, {2, 3}};
    good.coldIndex = 1;
    clusters.emplace("work", good);

    codegen::ClusterSpec ghost;
    ghost.clusters = {{0}};
    clusters.emplace("ghost", ghost); // Unknown function.

    codegen::ClusterSpec partial;
    partial.clusters = {{0, 1}}; // Blocks 2 and 3 of "main" unlisted.
    clusters.emplace("main", partial);

    auto dropped = codegen::sanitizeClusterMap(program, clusters);
    EXPECT_EQ(dropped, (std::vector<std::string>{"ghost", "main"}));
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_TRUE(clusters.count("work"));

    // Entry block not first in the primary cluster.
    codegen::ClusterMap bad_head;
    codegen::ClusterSpec head;
    head.clusters = {{1, 0, 2, 3}};
    bad_head.emplace("work", head);
    EXPECT_EQ(codegen::sanitizeClusterMap(program, bad_head).size(), 1u);
    EXPECT_TRUE(bad_head.empty());

    // Cold index out of range.
    codegen::ClusterMap bad_cold;
    codegen::ClusterSpec cold = good;
    cold.coldIndex = 9;
    bad_cold.emplace("work", cold);
    EXPECT_EQ(codegen::sanitizeClusterMap(program, bad_cold).size(), 1u);

    // A sanitized-valid map is untouched.
    codegen::ClusterMap valid;
    valid.emplace("work", good);
    EXPECT_TRUE(codegen::sanitizeClusterMap(program, valid).empty());
    EXPECT_EQ(valid.size(), 1u);
}

// ---- Linker typed errors + overflow quarantine ------------------------

TEST(LinkerTypedErrors, UnresolvedSymbolIsError)
{
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    for (auto &sec : objects[0].sections)
        for (auto &piece : sec.pieces)
            if (piece.site && piece.site->op == isa::Opcode::Call)
                piece.site->targetSymbol = "ghost";
    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_EQ(exe.status().code(), support::ErrorCode::kUnresolved);
    EXPECT_NE(exe.status().message().find("unresolved symbol"),
              std::string::npos);
}

TEST(LinkerTypedErrors, DuplicateSectionSymbolIsError)
{
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    auto duplicate = objects[0];
    duplicate.name = "copy.o";
    objects.push_back(duplicate);
    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_EQ(exe.status().code(), support::ErrorCode::kMalformed);
}

TEST(LinkerTypedErrors, MissingEntrySymbolIsError)
{
    ir::Program program = test::tinyProgram();
    auto objects = codegen::compileProgram(program, {});
    linker::Options opts;
    opts.entrySymbol = "nonexistent";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_NE(exe.status().message().find("entry symbol"),
              std::string::npos);
}

/** Index of the text section whose defining symbol is @p name. */
size_t
textSectionOf(const elf::ObjectFile &obj, const std::string &name)
{
    for (const auto &sym : obj.symbols) {
        if (sym.name == name)
            return sym.sectionIndex;
    }
    ADD_FAILURE() << "no symbol " << name;
    return 0;
}

/** Drop the symbol that defines @p name's section. */
void
eraseSymbol(elf::ObjectFile &obj, const std::string &name)
{
    std::erase_if(obj.symbols,
                  [&](const elf::Symbol &sym) { return sym.name == name; });
}

/** Rename symbol @p from to @p to (a duplicate if @p to exists). */
void
renameSymbol(elf::ObjectFile &obj, const std::string &from,
             const std::string &to)
{
    for (auto &sym : obj.symbols) {
        if (sym.name == from)
            sym.name = to;
    }
}

/** tinyProgram with one text section per block (work, work.b1, ...). */
std::vector<elf::ObjectFile>
blockSectionObjects(bool addr_maps = false)
{
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    copts.emitAddrMapSection = addr_maps;
    return codegen::compileProgram(test::tinyProgram(), copts);
}

TEST(LinkerTypedErrors, TextSectionWithoutSymbolIsError)
{
    auto objects = codegen::compileProgram(test::tinyProgram(), {});
    eraseSymbol(objects[0], "work");
    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_EQ(exe.status().code(), support::ErrorCode::kMalformed);
    EXPECT_NE(exe.status().message().find("has no defining symbol"),
              std::string::npos)
        << exe.status().toString();
}

TEST(LinkerTypedErrors, BranchToUnmappedBlockIsError)
{
    auto objects = blockSectionObjects();
    bool corrupted = false;
    for (auto &sec : objects[0].sections) {
        for (auto &piece : sec.pieces) {
            if (!corrupted && piece.site &&
                piece.site->targetBb != elf::kSectionStart) {
                piece.site->targetBb = 999;
                corrupted = true;
            }
        }
    }
    ASSERT_TRUE(corrupted);
    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_EQ(exe.status().code(), support::ErrorCode::kUnresolved);
    EXPECT_NE(exe.status().message().find("branch to unmapped block #999"),
              std::string::npos)
        << exe.status().toString();
}

TEST(LinkerTypedErrors, IntegrityCheckWithoutSectionSymbolIsError)
{
    auto objects = codegen::compileProgram(test::tinyProgram(), {});
    objects[0].integrityCheckedFunctions.push_back("ghost");
    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_FALSE(exe.ok());
    EXPECT_EQ(exe.status().code(), support::ErrorCode::kUnresolved);
    EXPECT_NE(exe.status().message().find(
                  "integrity-checked function ghost has no section symbol"),
              std::string::npos)
        << exe.status().toString();
}

TEST(LinkerTypedErrors, FirstErrorInSectionOrderWins)
{
    // One object carries both a text section without a defining symbol
    // and a duplicate section symbol; whichever section comes first in
    // the object reports.
    linker::Options opts;
    opts.entrySymbol = "main";
    {
        auto objects = blockSectionObjects();
        ASSERT_LT(textSectionOf(objects[0], "work.b1"),
                  textSectionOf(objects[0], "work.b2"));
        renameSymbol(objects[0], "work.b1", "work");
        eraseSymbol(objects[0], "work.b2");
        auto exe = linker::linkChecked(objects, opts);
        ASSERT_FALSE(exe.ok());
        EXPECT_EQ(exe.status().code(), support::ErrorCode::kMalformed);
        EXPECT_NE(exe.status().message().find("duplicate section symbol"),
                  std::string::npos)
            << exe.status().toString();
    }
    {
        auto objects = blockSectionObjects();
        eraseSymbol(objects[0], "work.b1");
        renameSymbol(objects[0], "work.b2", "work");
        auto exe = linker::linkChecked(objects, opts);
        ASSERT_FALSE(exe.ok());
        EXPECT_EQ(exe.status().code(), support::ErrorCode::kMalformed);
        EXPECT_NE(exe.status().message().find("has no defining symbol"),
                  std::string::npos)
            << exe.status().toString();
    }
}

TEST(LinkerTypedErrors, RepeatedBlockIdResolvesToFirstSlot)
{
    // Append a second block marked with the id of a Jcc target's block:
    // the branch must still land on the first block with that id.
    auto objects = blockSectionObjects(true);
    elf::ObjectFile &obj = objects[0];
    const elf::BranchSite *jcc = nullptr;
    for (const auto &sec : obj.sections) {
        for (const auto &piece : sec.pieces) {
            if (!jcc && piece.site && piece.site->op == isa::Opcode::JccNear)
                jcc = &*piece.site;
        }
    }
    ASSERT_NE(jcc, nullptr);
    const std::string target_symbol = jcc->targetSymbol;
    const uint32_t target_bb = jcc->targetBb;
    elf::Section &target =
        obj.sections[textSectionOf(obj, target_symbol)];
    elf::TextPiece extra;
    extra.block = elf::BlockMark{target_bb, 0};
    extra.bytes.assign(4, static_cast<uint8_t>(isa::Opcode::Nop));
    target.pieces.push_back(std::move(extra));

    linker::Options opts;
    opts.entrySymbol = "main";
    auto exe = linker::linkChecked(objects, opts);
    ASSERT_TRUE(exe.ok()) << exe.status().toString();
    const linker::FuncRange *range = exe->findSymbol(target_symbol);
    ASSERT_NE(range, nullptr);

    std::vector<uint64_t> slots;
    for (const auto &map : exe->bbAddrMap) {
        for (const auto &block : map.blocks) {
            if (block.bbId == target_bb && block.address >= range->start &&
                block.address < range->end)
                slots.push_back(block.address);
        }
    }
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], range->start);

    // Every decoded branch into the section lands on the first slot.
    uint32_t into_first = 0, into_second = 0;
    for (const auto &sym : exe->symbols) {
        uint64_t pc = sym.start;
        while (pc < sym.end) {
            auto inst = isa::decode(exe->text.data() + (pc - exe->textBase),
                                    sym.end - pc);
            ASSERT_TRUE(inst.has_value());
            if (inst->isCondBranch() || inst->isUncondBranch()) {
                uint64_t dest = pc + inst->size() + inst->rel;
                into_first += dest == slots[0];
                into_second += dest == slots[1];
            }
            pc += inst->size();
        }
    }
    EXPECT_GT(into_first, 0u);
    EXPECT_EQ(into_second, 0u);
}

TEST(LinkerTypedErrors, HugeBlockIdInValidMapLinksAndAnnotates)
{
    // A checksum-valid map may carry any 32-bit block id.  The linker
    // must index it without sizing anything by the id.
    constexpr uint32_t kHugeId = 0xFFFFFFF0u;
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    auto objects = codegen::compileProgram(test::tinyProgram(), copts);
    elf::ObjectFile &obj = objects[0];
    const uint32_t old_id = 3; // work's return block.

    const size_t work = textSectionOf(obj, "work");
    uint32_t retargeted = 0;
    for (auto &sec : obj.sections) {
        for (auto &piece : sec.pieces) {
            if (piece.site && piece.site->targetSymbol == "work" &&
                piece.site->targetBb == old_id) {
                piece.site->targetBb = kHugeId;
                ++retargeted;
            }
        }
    }
    for (auto &piece : obj.sections[work].pieces) {
        if (piece.block && piece.block->bbId == old_id)
            piece.block->bbId = kHugeId;
    }
    ASSERT_GT(retargeted, 0u);
    std::vector<uint8_t> &map_bytes =
        obj.sections[obj.findSection(".bb_addr_map")].bytes;
    auto maps = elf::decodeAddrMapsChecked(map_bytes);
    ASSERT_TRUE(maps.ok());
    uint64_t want_hash = 0;
    for (auto &map : *maps) {
        if (map.functionName != "work")
            continue;
        for (auto &range : map.ranges) {
            for (auto &bb : range.blocks) {
                if (bb.bbId == old_id) {
                    bb.bbId = kHugeId;
                    want_hash = bb.hash;
                }
            }
        }
        std::replace(map.succIds.begin(), map.succIds.end(), old_id,
                     kHugeId);
    }
    ASSERT_NE(want_hash, 0u);
    map_bytes = elf::encodeAddrMaps(*maps);

    linker::Options opts;
    opts.entrySymbol = "main";
    const linker::Executable before = linker::link(
        codegen::compileProgram(test::tinyProgram(), copts), opts);
    linker::LinkStats stats;
    auto exe = linker::linkChecked(objects, opts, &stats);
    ASSERT_TRUE(exe.ok()) << exe.status().toString();
    EXPECT_EQ(stats.addrMapsRejected, 0u);

    const linker::ExecBlock *huge = nullptr;
    uint32_t preds = 0;
    for (const auto &map : exe->bbAddrMap) {
        for (const auto &block : map.blocks) {
            if (block.bbId == kHugeId) {
                EXPECT_EQ(map.function, "work");
                huge = &block;
            }
            for (uint32_t succ : map.successors(block))
                preds += succ == kHugeId;
        }
    }
    ASSERT_NE(huge, nullptr);
    EXPECT_EQ(huge->hash, want_hash);
    EXPECT_GT(preds, 0u);

    // Renaming a block moves no byte.
    EXPECT_EQ(exe->text, before.text);
    ASSERT_EQ(exe->bbAddrMap.size(), before.bbAddrMap.size());
    for (size_t f = 0; f < before.bbAddrMap.size(); ++f) {
        const auto &a = exe->bbAddrMap[f].blocks;
        const auto &b = before.bbAddrMap[f].blocks;
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].address, b[i].address);
            EXPECT_EQ(a[i].hash, b[i].hash);
        }
    }
}

TEST(LinkerQuarantine, OverflowRevertsFunctionNotBuild)
{
    // tinyProgram plus a large pad function: an adversarial symbol order
    // places the pad between "work" and its out-of-line blocks, pushing
    // the conditional branch past the (narrowed) displacement limit.
    ir::Program program = test::tinyProgram();
    auto pad = test::makeFunction("pad", 1);
    for (int i = 0; i < 400; ++i)
        pad->blocks[0]->insts.push_back(ir::makeWork(6, 60 + i));
    pad->blocks[0]->insts.push_back(ir::makeRet());
    program.modules[0]->functions.push_back(std::move(pad));

    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    auto objects = codegen::compileProgram(program, copts);

    linker::Options opts;
    opts.entrySymbol = "main";
    opts.symbolOrder = {"work", "pad", "work.b1", "work.b2", "work.b3"};
    opts.maxBranchDisplacement = 256;

    linker::LinkStats stats;
    auto exe = linker::linkChecked(objects, opts, &stats);
    ASSERT_TRUE(exe.ok()) << exe.status().toString();
    EXPECT_GE(stats.quarantinedFunctions, 1u);
    EXPECT_EQ(stats.quarantinedFunctions, stats.quarantined.size());
    EXPECT_NE(std::find(stats.quarantined.begin(), stats.quarantined.end(),
                        "work"),
              stats.quarantined.end());

    // Without the quarantine the same inputs are a typed error, still
    // not a crash.
    opts.quarantineOnOverflow = false;
    auto failed = linker::linkChecked(objects, opts);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), support::ErrorCode::kOutOfRange);
}

// ---- Workflow-level degradation ---------------------------------------

TEST(WorkflowFaults, ZeroRateHooksKeepBinaryByteIdentical)
{
    buildsys::Workflow clean(test::smallConfig(71));
    buildsys::Workflow hooked(test::smallConfig(71));
    FaultInjector injector(FaultSpec{});
    hooked.setFaultHooks(&injector);

    // Hooks attached but inert: the profile still round-trips the shard
    // wire path, yet every product stays byte-identical.
    const auto &a = clean.propellerBinary();
    const auto &b = hooked.propellerBinary();
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.identityHash, b.identityHash);
    EXPECT_EQ(injector.stats().corruptions(), 0u);
    EXPECT_EQ(hooked.cacheStats().corruptions, 0u);
}

TEST(WorkflowFaults, InjectedFaultsDetectedExactly)
{
    buildsys::Workflow wf(test::smallConfig(71));
    FaultSpec spec;
    spec.seed = 11;
    spec.profileRate = 0.5;
    spec.cacheRate = 0.3;
    spec.addrMapRate = 0.3;
    spec.execFailRate = 0.15;
    FaultInjector injector(spec);
    wf.setFaultHooks(&injector);

    // The core property: the pipeline never aborts under injection.
    const auto &po = wf.propellerBinary();
    EXPECT_FALSE(po.text.empty());
    wf.scrubCache(); // End-of-build sweep catches never-served entries.

    const auto &stats = injector.stats();
    ASSERT_GT(stats.corruptions(), 0u);

    // Every injected fault is detected and attributed, class by class.
    EXPECT_EQ(wf.report("phase3.collect").quarantined,
              stats.profileShardsCorrupted);
    EXPECT_EQ(wf.cacheStats().corruptions, stats.cacheEntriesCorrupted);
    EXPECT_EQ(countFailures(wf.report("phase2.link"),
                            ".bb_addr_map rejected: "),
              stats.addrMapsCorrupted);
    uint32_t retries = wf.report("phase2.codegen").retries +
                       wf.report("phase4.codegen").retries;
    EXPECT_EQ(retries, stats.actionFailures);
}

/**
 * Phase 2 links once and the baseline is the metadata binary's stripped
 * copy.  Under .bb_addr_map damage it must still equal an independent
 * stripped link of the same objects, "baseline.link" must report what
 * that link reports, and the rejections stay in "phase2.link".
 */
TEST(WorkflowFaults, BaselineIsTheStrippedPhase2Link)
{
    // Keeps the Phase 2 objects as the links see them, damage included.
    struct Capture : FaultInjector
    {
        using FaultInjector::FaultInjector;

        void
        onPhase2Objects(std::vector<elf::ObjectFile> &objects) override
        {
            FaultInjector::onPhase2Objects(objects);
            phase2 = objects;
        }

        std::vector<elf::ObjectFile> phase2;
    };

    for (unsigned jobs : {1u, 8u}) {
        const std::string what = "jobs=" + std::to_string(jobs);
        workload::WorkloadConfig cfg = test::smallConfig(71);
        cfg.jobs = jobs;
        buildsys::Workflow wf(cfg);
        FaultSpec spec;
        spec.seed = 11;
        spec.addrMapRate = 0.3;
        Capture capture(spec);
        wf.setFaultHooks(&capture);
        // Either product may be the one that pulls the link.
        if (jobs == 1)
            wf.baseline();
        else
            wf.metadataBinary();
        ASSERT_GT(capture.stats().addrMapsCorrupted, 0u) << what;

        linker::Options opts;
        opts.entrySymbol = wf.program().entryFunction;
        opts.hugePagesText = cfg.hugePages;
        opts.outputName = cfg.name + ".base";
        opts.stripAddrMaps = true;
        linker::LinkStats base_stats;
        test::expectSameImage(linker::link(capture.phase2, opts, &base_stats),
                              wf.baseline(), what + " baseline");
        opts.outputName = cfg.name + ".pm";
        opts.stripAddrMaps = false;
        linker::LinkStats pm_stats;
        test::expectSameImage(linker::link(capture.phase2, opts, &pm_stats),
                              wf.metadataBinary(), what + " PM");

        std::vector<std::string> want;
        for (const std::string &name : base_stats.quarantined)
            want.push_back("function quarantined: " + name);
        const buildsys::PhaseReport &base = wf.report("baseline.link");
        EXPECT_EQ(base.failures, want) << what;
        EXPECT_EQ(base.quarantined, base_stats.quarantinedFunctions) << what;
        EXPECT_EQ(base.peakActionMemory, base_stats.peakMemory) << what;

        EXPECT_EQ(pm_stats.addrMapsRejected,
                  capture.stats().addrMapsCorrupted)
            << what;
        for (const std::string &name : pm_stats.rejectedAddrMapObjects)
            want.push_back(".bb_addr_map rejected: " + name);
        const buildsys::PhaseReport &pm = wf.report("phase2.link");
        EXPECT_EQ(pm.failures, want) << what;
        EXPECT_EQ(pm.quarantined,
                  pm_stats.quarantinedFunctions + pm_stats.addrMapsRejected)
            << what;
        EXPECT_EQ(pm.peakActionMemory, pm_stats.peakMemory) << what;
        EXPECT_EQ(pm.makespanSec, base.makespanSec) << what;
    }
}

TEST(WorkflowFaults, TransientActionFailureRetriedWithBackoff)
{
    struct FailOnce : buildsys::FaultHooks
    {
        bool
        failAction(const std::string &module_name, uint32_t attempt) override
        {
            return module_name == "mod_0000" && attempt == 1;
        }
    };

    buildsys::Workflow clean(test::smallConfig(71));
    buildsys::Workflow flaky(test::smallConfig(71));
    FailOnce hooks;
    flaky.setFaultHooks(&hooks);

    const auto &a = clean.metadataBinary();
    const auto &b = flaky.metadataBinary();
    EXPECT_EQ(a.text, b.text); // Degrades in makespan, never in output.
    EXPECT_EQ(flaky.report("phase2.codegen").retries, 1u);
    EXPECT_GT(flaky.report("phase2.codegen").makespanSec,
              clean.report("phase2.codegen").makespanSec);
}

TEST(WorkflowFaults, PoisonedCacheArtifactRebuiltStructurally)
{
    // Poison every artifact *after* rehash: byte verification passes, so
    // only the structural deserializeChecked on the hit path catches it.
    struct Poison : buildsys::FaultHooks
    {
        bool done = false;
        void
        onCachePopulated(buildsys::ArtifactCache &cache) override
        {
            if (done)
                return;
            done = true;
            for (uint64_t key : cache.keys())
                cache.corruptStored(
                    key,
                    [](std::vector<uint8_t> &bytes) {
                        bytes = {0xde, 0xad, 0xbe};
                    },
                    /*rehash=*/true);
        }
    };

    buildsys::Workflow clean(test::smallConfig(71));
    buildsys::Workflow poisoned(test::smallConfig(71));
    Poison hooks;
    poisoned.setFaultHooks(&hooks);

    const auto &a = clean.propellerBinary();
    const auto &b = poisoned.propellerBinary();
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.identityHash, b.identityHash);

    // Every cold-module hit was rejected structurally and rebuilt.
    const auto &report = poisoned.report("phase4.codegen");
    EXPECT_GT(report.cacheCorruptions, 0u);
    EXPECT_EQ(report.cacheHits, 0u);
    EXPECT_EQ(countFailures(report, "cache artifact rejected ("),
              report.cacheCorruptions);
}

} // namespace
} // namespace propeller
