/**
 * @file
 * Tests for the post-link static verifier (src/analysis): the
 * diagnostics engine, zero false positives on clean end-to-end builds at
 * multiple thread counts, 100% detection of seeded defect classes, the
 * pre-link directive and flow lints, and the workflow phase-5 wiring.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/mutate.h"
#include "analysis/verifier.h"
#include "build/workflow.h"
#include "faultinject/faultinject.h"
#include "linker/linker.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"
#include "support/rng.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller::analysis {
namespace {

/** smallConfig plus integrity checks, so every defect class has sites. */
workload::WorkloadConfig
verifyConfig(unsigned jobs = 1)
{
    workload::WorkloadConfig cfg = test::smallConfig();
    cfg.integrityCheckedFunctions = 2;
    cfg.jobs = jobs;
    return cfg;
}

TEST(DiagnosticEngine, CountsRendersAndSuppresses)
{
    DiagnosticEngine engine;
    EXPECT_TRUE(engine.clean());
    engine.report(CheckId::PV004, Severity::Error, "fn_a", 0x4010,
                  "invalid opcode");
    engine.report(CheckId::PV016, Severity::Warning, "fn_b", 0,
                  "flow imbalance");
    engine.report(CheckId::PV001, Severity::Note, "", 0, "fyi");
    EXPECT_EQ(engine.errorCount(), 1u);
    EXPECT_EQ(engine.warningCount(), 1u);
    EXPECT_EQ(engine.noteCount(), 1u);
    EXPECT_FALSE(engine.clean());

    std::string text = engine.renderText();
    EXPECT_NE(text.find("error[PV004] fn_a@0x4010: invalid opcode"),
              std::string::npos);
    EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos);

    std::string json = engine.renderJson();
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"PV004\""), std::string::npos);

    std::vector<std::string> affected = engine.affectedFunctions();
    ASSERT_EQ(affected.size(), 2u);
    EXPECT_EQ(affected[0], "fn_a");
    EXPECT_EQ(affected[1], "fn_b");
}

TEST(DiagnosticEngine, SuppressedFindingsAreCountedNotStored)
{
    DiagnosticEngine engine;
    ASSERT_TRUE(engine.parseSuppressions("PV004,PV011"));
    engine.report(CheckId::PV004, Severity::Error, "fn", 0, "muted");
    engine.report(CheckId::PV005, Severity::Error, "fn", 0, "kept");
    EXPECT_EQ(engine.suppressedCount(), 1u);
    EXPECT_EQ(engine.errorCount(), 1u);
    ASSERT_EQ(engine.diagnostics().size(), 1u);
    EXPECT_EQ(engine.diagnostics()[0].id, CheckId::PV005);

    DiagnosticEngine bad;
    EXPECT_FALSE(bad.parseSuppressions("PV004,PV999"));
    EXPECT_FALSE(bad.parseSuppressions("bogus"));
    EXPECT_TRUE(bad.parseSuppressions(""));
}

TEST(DiagnosticEngine, CheckIdsRoundTrip)
{
    for (uint16_t i = 1; i <= 16; ++i) {
        CheckId id = static_cast<CheckId>(i);
        CheckId parsed;
        ASSERT_TRUE(parseCheckId(checkName(id), parsed)) << checkName(id);
        EXPECT_EQ(parsed, id);
        EXPECT_NE(std::string(checkTitle(id)), "");
    }
}

/** The core no-false-positives gate: clean builds verify clean. */
TEST(Verifier, CleanWorkflowHasZeroDiagnostics)
{
    for (unsigned jobs : {1u, 8u}) {
        buildsys::Workflow wf(verifyConfig(jobs));
        const VerifyReport &rep = wf.verifyReport();
        EXPECT_TRUE(rep.clean())
            << "jobs=" << jobs << "\n"
            << rep.engine.renderText();
        EXPECT_EQ(rep.engine.noteCount(), 0u);
        EXPECT_GT(rep.functionsChecked, 0u);
        EXPECT_GT(rep.instructionsDecoded, 0u);

        // The image the verifier ran over is byte-identical to PO.
        EXPECT_EQ(wf.verifiedBinary().text, wf.propellerBinary().text);
        EXPECT_FALSE(wf.verifiedBinary().bbAddrMap.empty());

        // Phase 5 is recorded like any other phase.
        ASSERT_TRUE(wf.hasReport("phase5.verify"));
        const buildsys::PhaseReport &pr = wf.report("phase5.verify");
        EXPECT_EQ(pr.quarantined, 0u);
        EXPECT_TRUE(pr.failures.empty());
        EXPECT_GT(pr.makespanSec, 0.0);
    }
}

TEST(Verifier, MetadataBinaryAlsoVerifiesClean)
{
    buildsys::Workflow wf(verifyConfig());
    VerifyOptions opts;
    VerifyReport rep = verifyExecutable(wf.metadataBinary(), opts);
    EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
}

/** Every defect class must be caught by exactly the paired check. */
TEST(Verifier, DetectsEverySeededDefectClass)
{
    buildsys::Workflow wf(verifyConfig());
    ASSERT_TRUE(wf.verifyReport().clean());
    const linker::Executable &twin = wf.verifiedBinary();
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());

    for (size_t c = 0; c < kDefectClassCount; ++c) {
        DefectClass cls = allDefectClasses()[c];
        CheckId want = expectedCheck(cls);
        for (uint64_t seed = 1; seed <= 2; ++seed) {
            linker::Executable exe = twin;
            core::CcProfile cc = wf.wpa().ccProf;
            core::LdProfile ld = wf.wpa().ldProf;
            core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);
            MutationTarget target{&exe, &cc, &ld, &dcfg};
            std::string desc = injectDefect(cls, seed, target);
            ASSERT_NE(desc, "") << defectName(cls) << " seed " << seed
                                << ": no eligible site";

            VerifyOptions opts;
            opts.expectedOrder = &ld;
            VerifyReport rep = verifyExecutable(exe, opts);
            rep.merge(
                lintDirectives(cc, ld, wf.metadataBinary(), opts));
            rep.merge(lintProfileFlow(dcfg, opts));

            bool hit = false;
            for (const auto &d : rep.engine.diagnostics())
                hit = hit || d.id == want;
            EXPECT_TRUE(hit)
                << defectName(cls) << " seed " << seed << " [" << desc
                << "] expected " << checkName(want) << ", got:\n"
                << rep.engine.renderText();
        }
    }
}

/** Run @p jobs in a seeded shuffle, pulled by 8 threads. */
void
runShuffled(std::vector<std::function<void()>> &jobs, uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (size_t i = next++; i < jobs.size(); i = next++)
                jobs[i]();
        });
    }
    for (auto &thread : threads)
        thread.join();
}

/**
 * Drive ExecutableVerifier's stages over @p exe in reverse order, then
 * in a seeded shuffle from 8 threads; both must render exactly the
 * report verifyExecutable renders.
 */
void
expectStageOrderFree(const linker::Executable &exe,
                     const VerifyOptions &opts, uint64_t seed,
                     const std::string &what)
{
    const VerifyReport want = verifyExecutable(exe, opts);
    auto expectSame = [&](const VerifyReport &got, const char *order) {
        EXPECT_EQ(got.engine.renderText(), want.engine.renderText())
            << what << " (" << order << ")";
        EXPECT_EQ(got.engine.suppressedCount(),
                  want.engine.suppressedCount());
        EXPECT_EQ(got.functionsChecked, want.functionsChecked);
        EXPECT_EQ(got.rangesDecoded, want.rangesDecoded);
        EXPECT_EQ(got.handAsmSkipped, want.handAsmSkipped);
        EXPECT_EQ(got.instructionsDecoded, want.instructionsDecoded);
        EXPECT_EQ(got.bytesVerified, want.bytesVerified);
    };

    {
        ExecutableVerifier v(exe, opts);
        for (size_t r = v.rangeCount(); r-- > 0;)
            v.decodeRange(r);
        for (size_t m = v.addrMapCount(); m-- > 0;)
            v.checkAddrMap(m);
        for (size_t r = v.rangeCount(); r-- > 0;)
            v.checkRange(r);
        expectSame(v.finish(), "reverse");
    }
    {
        ExecutableVerifier v(exe, opts);
        std::vector<std::function<void()>> decodes;
        std::vector<std::function<void()>> checks;
        for (size_t r = 0; r < v.rangeCount(); ++r) {
            decodes.push_back([&v, r] { v.decodeRange(r); });
            checks.push_back([&v, r] { v.checkRange(r); });
        }
        for (size_t m = 0; m < v.addrMapCount(); ++m)
            checks.push_back([&v, m] { v.checkAddrMap(m); });
        runShuffled(decodes, seed);
        runShuffled(checks, seed + 1);
        expectSame(v.finish(), "shuffled, 8 threads");
    }
}

/**
 * The staged verifier is the relink engine's Phase 5: every mutant of
 * the defect matrix, the clean image, and one image carrying every
 * mutant at once (findings in many functions and checks, so a stage
 * that reported out of its slot would reorder them) must report
 * identically to the serial pass whatever order and threads drive the
 * stages.
 */
TEST(Verifier, StagedReportIsOrderAndThreadFree)
{
    buildsys::Workflow wf(verifyConfig());
    const linker::Executable &twin = wf.verifiedBinary();
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());

    VerifyOptions clean_opts;
    clean_opts.expectedOrder = &wf.wpa().ldProf;
    expectStageOrderFree(twin, clean_opts, 11, "clean image");

    linker::Executable all = twin;
    core::LdProfile all_ld = wf.wpa().ldProf;
    for (size_t c = 0; c < kDefectClassCount; ++c) {
        DefectClass cls = allDefectClasses()[c];
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            linker::Executable exe = twin;
            core::CcProfile cc = wf.wpa().ccProf;
            core::LdProfile ld = wf.wpa().ldProf;
            core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);
            MutationTarget target{&exe, &cc, &ld, &dcfg};
            std::string desc = injectDefect(cls, seed, target);
            ASSERT_NE(desc, "") << defectName(cls) << " seed " << seed;

            VerifyOptions opts;
            opts.expectedOrder = &ld;
            expectStageOrderFree(exe, opts, c * 16 + seed,
                                 std::string(defectName(cls)) +
                                     " seed " + std::to_string(seed));

            MutationTarget all_target{&all, nullptr, &all_ld, nullptr};
            injectDefect(cls, seed, all_target);
        }
    }
    VerifyOptions all_opts;
    all_opts.expectedOrder = &all_ld;
    ASSERT_GT(verifyExecutable(all, all_opts).engine.errorCount(), 10u);
    expectStageOrderFree(all, all_opts, 7, "every mutant at once");
}

/**
 * Damages the .bb_addr_map bytes of every object in the cache while
 * keeping each entry's integrity hash valid, so Phase 4's cold cache
 * hits reach the relink with metadata a map-keeping link rejects.
 */
struct PoisonCachedAddrMaps : buildsys::FaultHooks
{
    bool done = false;

    void
    onCachePopulated(buildsys::ArtifactCache &cache) override
    {
        if (done)
            return;
        done = true;
        for (uint64_t key : cache.keys()) {
            cache.corruptStored(
                key,
                [](std::vector<uint8_t> &bytes) {
                    auto obj = elf::ObjectFile::deserializeChecked(bytes);
                    if (!obj.ok())
                        return;
                    elf::ObjectFile damaged = std::move(obj).value();
                    int sect = damaged.findSection(".bb_addr_map");
                    if (sect < 0 || damaged.sections[sect].bytes.empty())
                        return;
                    damaged.sections[sect].bytes.back() ^= 0xff;
                    bytes = damaged.serialize();
                },
                /*rehash=*/true);
        }
    }
};

/**
 * The verification twin as a test oracle: relinking the relink's own
 * Phase 4 objects independently — stripped, then keeping the maps —
 * must reproduce the shipped PO and the verified image field for field,
 * and "phase4.link" must report exactly what the stripped link saw,
 * even when the kept maps fail to decode.
 */
TEST(Verifier, IndependentRelinksMatchShippedAndVerifiedImages)
{
    enum class Faults { None, AddrMap, PoisonedCache };
    for (unsigned jobs : {1u, 8u}) {
        for (Faults faults :
             {Faults::None, Faults::AddrMap, Faults::PoisonedCache}) {
            std::string what = "jobs=" + std::to_string(jobs) +
                               " faults=" +
                               std::to_string(static_cast<int>(faults));
            workload::WorkloadConfig cfg = verifyConfig(jobs);
            buildsys::Workflow wf(cfg);
            faultinject::FaultInjector injector(
                faultinject::parseFaultSpec("addrmap=0.25").value());
            PoisonCachedAddrMaps poison;
            if (faults == Faults::AddrMap)
                wf.setFaultHooks(&injector);
            if (faults == Faults::PoisonedCache)
                wf.setFaultHooks(&poison);
            EXPECT_TRUE(wf.verifyReport().clean())
                << what << "\n"
                << wf.verifyReport().engine.renderText();

            linker::Options opts;
            opts.outputName = cfg.name + ".po";
            opts.entrySymbol = wf.program().entryFunction;
            opts.hugePagesText = cfg.hugePages;
            opts.symbolOrder = wf.wpa().ldProf.symbolOrder;
            opts.stripAddrMaps = true;
            linker::LinkStats po_stats;
            linker::Executable po =
                linker::link(wf.phase4Objects(), opts, &po_stats);
            opts.outputName = cfg.name + ".po-verify";
            opts.stripAddrMaps = false;
            linker::LinkStats twin_stats;
            linker::Executable twin =
                linker::link(wf.phase4Objects(), opts, &twin_stats);

            test::expectSameImage(po, wf.propellerBinary(), what + " PO");
            test::expectSameImage(twin, wf.verifiedBinary(),
                                  what + " verified image");

            std::vector<std::string> want;
            for (const std::string &name : po_stats.quarantined)
                want.push_back("function quarantined: " + name);
            const buildsys::PhaseReport &link = wf.report("phase4.link");
            EXPECT_EQ(link.failures, want) << what;
            EXPECT_EQ(link.quarantined, po_stats.quarantinedFunctions)
                << what;
            EXPECT_EQ(link.peakActionMemory, po_stats.peakMemory) << what;
            if (faults == Faults::PoisonedCache) {
                EXPECT_GT(twin_stats.addrMapsRejected, 0u)
                    << what << ": no kept map was rejected";
            }
        }
    }
}

TEST(Verifier, InjectionIsDeterministicPerSeed)
{
    buildsys::Workflow wf(verifyConfig());
    const linker::Executable &twin = wf.verifiedBinary();
    for (DefectClass cls :
         {DefectClass::BranchDisplacement, DefectClass::EmbeddedData}) {
        linker::Executable a = twin;
        linker::Executable b = twin;
        MutationTarget ta{&a, nullptr, nullptr, nullptr};
        MutationTarget tb{&b, nullptr, nullptr, nullptr};
        EXPECT_EQ(injectDefect(cls, 9, ta), injectDefect(cls, 9, tb));
        EXPECT_EQ(a.text, b.text);
    }
}

TEST(Verifier, SuppressionMutesButCounts)
{
    buildsys::Workflow wf(verifyConfig());
    linker::Executable exe = wf.verifiedBinary();
    MutationTarget target{&exe, nullptr, nullptr, nullptr};
    ASSERT_NE(injectDefect(DefectClass::EmbeddedData, 1, target), "");

    VerifyOptions opts;
    opts.suppress = "PV004";
    VerifyReport rep = verifyExecutable(exe, opts);
    EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
    EXPECT_GT(rep.engine.suppressedCount(), 0u);
}

TEST(LintDirectives, RejectsWhatCodegenWouldQuarantine)
{
    buildsys::Workflow wf(verifyConfig());
    const linker::Executable &pm = wf.metadataBinary();
    const core::WpaResult &wpa = wf.wpa();
    ASSERT_FALSE(wpa.ccProf.clusters.empty());

    // The canonical artifacts lint clean.
    {
        VerifyReport rep =
            lintDirectives(wpa.ccProf, wpa.ldProf, pm, {});
        EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
    }

    auto expectLint = [&](const core::CcProfile &cc,
                          const core::LdProfile &ld, CheckId want,
                          const char *what) {
        VerifyReport rep = lintDirectives(cc, ld, pm, {});
        bool hit = false;
        for (const auto &d : rep.engine.diagnostics())
            hit = hit || d.id == want;
        EXPECT_TRUE(hit) << what << ": expected " << checkName(want)
                         << ", got:\n"
                         << rep.engine.renderText();
    };

    // PV013 variants.
    {
        core::CcProfile cc = wpa.ccProf;
        cc.clusters.begin()->second.clusters[0].push_back(0xDEAD);
        expectLint(cc, wpa.ldProf, CheckId::PV013, "unknown block id");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        auto &fc = cc.clusters.begin()->second;
        fc.clusters[0].push_back(fc.clusters[0][0]);
        expectLint(cc, wpa.ldProf, CheckId::PV013, "duplicate block id");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        codegen::ClusterSpec orphan;
        orphan.clusters = {{0}};
        cc.clusters["no_such_function"] = orphan;
        expectLint(cc, wpa.ldProf, CheckId::PV013, "unknown function");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        cc.clusters.begin()->second.clusters.clear();
        expectLint(cc, wpa.ldProf, CheckId::PV013, "no clusters");
    }

    // PV014 variants.
    {
        core::LdProfile ld = wpa.ldProf;
        ASSERT_FALSE(ld.symbolOrder.empty());
        ld.symbolOrder.push_back(ld.symbolOrder.front());
        expectLint(wpa.ccProf, ld, CheckId::PV014, "duplicate entry");
    }
    {
        core::LdProfile ld = wpa.ldProf;
        ld.symbolOrder.push_back("no_such_function");
        expectLint(wpa.ccProf, ld, CheckId::PV014, "phantom symbol");
    }
}

TEST(LintProfileFlow, CleanDcfgThenInjectedAnomaly)
{
    buildsys::Workflow wf(verifyConfig());
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());
    core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);

    VerifyReport clean = lintProfileFlow(dcfg, {});
    EXPECT_TRUE(clean.clean()) << clean.engine.renderText();

    MutationTarget target{nullptr, nullptr, nullptr, &dcfg};
    std::string desc = injectDefect(DefectClass::FlowAnomaly, 1, target);
    ASSERT_NE(desc, "");
    VerifyReport dirty = lintProfileFlow(dcfg, {});
    EXPECT_GT(dirty.engine.warningCount(), 0u) << desc;
}

/** The rendered PV016 lines of @p rep, in report order. */
std::vector<std::string>
pv016Lines(const VerifyReport &rep)
{
    std::vector<std::string> lines;
    for (const auto &d : rep.engine.diagnostics())
        if (d.id == CheckId::PV016)
            lines.push_back(d.render());
    return lines;
}

/**
 * Phase 5's flow lint reads the DCFG WPA's mapper built: on a profile
 * dense enough to trip PV016 (two aggregation shards at this period)
 * the workflow reports exactly the PV016 lines of a lint over an
 * independently rebuilt DCFG.
 */
TEST(VerifierFlowLint, MatchesLintOfTheProfileMapping)
{
    for (unsigned jobs : {1u, 8u}) {
        workload::WorkloadConfig cfg = verifyConfig(jobs);
        cfg.sampleLbrPeriod = 100;
        buildsys::Workflow wf(cfg);
        const std::vector<std::string> got = pv016Lines(wf.verifyReport());

        core::AddrMapIndex index(wf.metadataBinary());
        const std::vector<std::string> want = pv016Lines(lintProfileFlow(
            core::buildDcfg(profile::aggregate(wf.profile()), index), {}));
        ASSERT_FALSE(want.empty()) << "jobs=" << jobs;
        EXPECT_EQ(got, want) << "jobs=" << jobs;
    }
}

/**
 * Under overrideDcfg the lint still judges the profile's own mapping:
 * a clean profile relinked over an injected DCFG that carries a flow
 * anomaly reports no PV016, and the mapper stats stay zero.
 */
TEST(VerifierFlowLint, IgnoresInjectedDcfg)
{
    for (unsigned jobs : {1u, 8u}) {
        buildsys::Workflow wf(verifyConfig(jobs));
        core::AddrMapIndex index(wf.metadataBinary());
        core::WholeProgramDcfg dcfg =
            core::buildDcfg(profile::aggregate(wf.profile()), index);
        MutationTarget target{nullptr, nullptr, nullptr, &dcfg};
        ASSERT_NE(injectDefect(DefectClass::FlowAnomaly, 1, target), "");
        ASSERT_FALSE(pv016Lines(lintProfileFlow(dcfg, {})).empty());

        wf.overrideDcfg(std::move(dcfg));
        const VerifyReport &rep = wf.verifyReport();
        EXPECT_TRUE(pv016Lines(rep).empty())
            << "jobs=" << jobs << "\n"
            << rep.engine.renderText();
        const core::MapperStats &ms = wf.wpa().stats.mapper;
        EXPECT_EQ(ms.branchEdges + ms.fallThroughEdges + ms.callEdges +
                      ms.returnRecords + ms.unmappedRecords +
                      ms.rangeWalkTruncated,
                  0u);
    }
}

/** Reports merge additively — counters and diagnostics both. */
TEST(VerifyReport, MergeAccumulates)
{
    VerifyReport a;
    a.functionsChecked = 2;
    a.engine.report(CheckId::PV001, Severity::Error, "x", 0, "one");
    VerifyReport b;
    b.functionsChecked = 3;
    b.engine.report(CheckId::PV002, Severity::Warning, "y", 0, "two");
    a.merge(b);
    EXPECT_EQ(a.functionsChecked, 5u);
    EXPECT_EQ(a.engine.errorCount(), 1u);
    EXPECT_EQ(a.engine.warningCount(), 1u);
    EXPECT_EQ(a.engine.diagnostics().size(), 2u);
}

/** Phase-5 failures surface per function, like every other phase. */
TEST(Workflow, VerifyFailureAttributionInPhaseReport)
{
    buildsys::Workflow wf(verifyConfig());
    linker::Executable exe = wf.verifiedBinary();
    MutationTarget target{&exe, nullptr, nullptr, nullptr};
    std::string desc = injectDefect(DefectClass::EmbeddedData, 3, target);
    ASSERT_NE(desc, "");

    VerifyReport rep = verifyExecutable(exe, {});
    ASSERT_FALSE(rep.clean());
    std::vector<std::string> affected = rep.engine.affectedFunctions();
    ASSERT_FALSE(affected.empty());
    // Every diagnostic names a function that the attribution list has.
    std::set<std::string> names(affected.begin(), affected.end());
    for (const auto &d : rep.engine.diagnostics())
        EXPECT_TRUE(d.function.empty() || names.count(d.function))
            << d.render();
}

} // namespace
} // namespace propeller::analysis
