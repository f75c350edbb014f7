/**
 * @file
 * propeller-cli — command-line driver for the whole framework.
 *
 * Subcommands:
 *
 *   list                         list the named workloads
 *   run <workload>               full pipeline: baseline vs Propeller vs
 *                                BOLT with counters and phase reports;
 *                                with --fault-inject <spec> the pipeline
 *                                runs under seeded corruption of profile
 *                                shards, cached objects and .bb_addr_map
 *                                payloads (src/faultinject) and reports
 *                                what was injected, detected and
 *                                quarantined; with --stale-profile N the
 *                                whole drift sweep replays end-to-end
 *                                (profile last week's build, optimize a
 *                                build drifted N%, compare against the
 *                                fresh-profile ground truth)
 *   wpa <workload>               print the Phase 3 artifacts
 *                                (cc_prof.txt / ld_prof.txt); with
 *                                --stale-profile N the profile is applied
 *                                to a build drifted N% from the profiled
 *                                one — rejected on identity mismatch
 *                                unless --allow-stale routes it through
 *                                the stale matcher (src/stale)
 *   verify <workload>            statically verify the Propeller-
 *                                optimized binary: IR invariants, then
 *                                the post-link disassembly cross-check
 *                                (src/analysis) over the Phase 4 link
 *                                image with its address maps (PO is
 *                                that image stripped) plus lints of the
 *                                applied Phase 3 artifacts; --json emits
 *                                the CI artifact form, --suppress
 *                                PV004,... mutes specific checks
 *   disasm <workload> <symbol>   disassemble one function of the
 *                                Propeller-optimized binary
 *   heatmap <workload>           instruction-access heat maps
 *                                (baseline vs optimized)
 *
 * Examples:
 *   ./build/tools/propeller-cli run 541.leela
 *   ./build/tools/propeller-cli disasm clang main
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "build/workflow.h"
#include "faultinject/chaos.h"
#include "faultinject/faultinject.h"
#include "ir/verifier.h"
#include "service/fleet.h"
#include "sim/machine.h"
#include "stale/stale.h"
#include "support/table.h"
#include "support/units.h"

using namespace propeller;

namespace {

/**
 * --jobs N: worker threads for every parallel pipeline stage — the
 * scheduler owns the one concurrency setting (0 = all hardware threads).
 */
unsigned g_jobs = 0;

/** --backend bolt: route the verify subcommand at the BOLT output. */
std::string g_backend = "propeller";

/** --stale-profile N: drift the WPA target binary N% from the profiled one. */
double g_stale_pct = 0.0;
bool g_stale_requested = false;

/** --allow-stale: route mismatched profiles through the stale matcher. */
bool g_allow_stale = false;

/** --fault-inject <spec>: run the pipeline under seeded corruption. */
std::string g_fault_spec;
bool g_fault_requested = false;

/** --suppress LIST: check ids the verify subcommand mutes. */
std::string g_suppress;

/** --json: render the verify report as the CI artifact JSON. */
bool g_json = false;

/** --trace-out FILE: dump the relink schedule as a Chrome trace. */
std::string g_trace_out;

/** serve: fleet-service knobs (see fleet::FleetOptions). */
unsigned g_machines = 8;
unsigned g_epochs = 8;
unsigned g_versions = 3;
double g_drift_threshold = 0.15;
double g_drift_pct = 10.0;
double g_decay = 0.5;
std::string g_statusz_out;
std::string g_cache_path;

/** serve: chaos schedule spec (faultinject::parseChaosSpec). */
std::string g_chaos_spec;
bool g_chaos_requested = false;

/** serve: canary rollout/rollback epochs (~0u = disabled). */
unsigned g_canary_at = ~0u;
unsigned g_rollback_at = ~0u;

/** Look up a workload and apply the global --jobs override. */
workload::WorkloadConfig
namedConfig(const std::string &name)
{
    workload::WorkloadConfig cfg = workload::configByName(name);
    cfg.jobs = g_jobs;
    return cfg;
}

int
cmdList()
{
    std::printf("warehouse-scale / open-source workloads:\n");
    for (const auto &cfg : workload::appConfigs())
        std::printf("  %-12s %zu funcs, %s%s\n", cfg.name.c_str(),
                    static_cast<size_t>(cfg.functions),
                    cfg.distributedBuild ? "distributed build"
                                         : "workstation build",
                    cfg.hugePages ? ", huge pages" : "");
    std::printf("SPEC2017-like:\n");
    for (const auto &cfg : workload::specConfigs())
        std::printf("  %s\n", cfg.name.c_str());
    return 0;
}

void
printCounters(const char *label, const sim::RunResult &r,
              const sim::RunResult &base)
{
    double delta = static_cast<double>(base.counters.cycles()) /
                       static_cast<double>(r.counters.cycles()) -
                   1.0;
    std::printf("  %-10s %10llu cycles (%s)  l1i=%llu itlb=%llu "
                "taken=%llu dsb=%llu\n",
                label,
                static_cast<unsigned long long>(r.counters.cycles()),
                formatPercentDelta(delta).c_str(),
                static_cast<unsigned long long>(r.counters.l1iMisses),
                static_cast<unsigned long long>(r.counters.itlbMisses),
                static_cast<unsigned long long>(r.counters.takenBranches),
                static_cast<unsigned long long>(r.counters.dsbMisses));
}

int usage();

/**
 * Per-shard version census of a profile's wire form.  Every wire shard
 * carries its own binary identity stamp, so a mismatch can be pinned to
 * the shards that actually came from another build — the single
 * whole-profile binaryHash gate can only say "something differs".
 */
void
printShardVersionCensus(const profile::Profile &prof, uint64_t targetHash)
{
    profile::ShardLoadStats stats;
    profile::loadShards(profile::serializeShards(prof, 4096), &stats);
    std::map<uint64_t, uint32_t> census;
    for (uint64_t v : stats.shardVersions) {
        if (v != 0)
            ++census[v];
    }
    std::fprintf(stderr, "per-shard version census (%u shard(s), %u "
                         "distinct version(s)):\n",
                 stats.shardsTotal, stats.distinctVersions);
    for (const auto &[version, shards] : census)
        std::fprintf(stderr, "  %u shard(s) stamped %016llx%s\n", shards,
                     static_cast<unsigned long long>(version),
                     version == targetHash ? "  [matches target]" : "");
}

/**
 * `run --stale-profile N`: the end-to-end drift replay.  Last week's
 * build is profiled; this week's build (drifted N%) is optimized with
 * that stale profile, and both are compared against the fresh-profile
 * ground truth on the drifted binary.
 */
int
cmdRunStale(const workload::WorkloadConfig &cfg)
{
    // Last week: the pristine build and its profile.
    buildsys::Workflow wf(cfg);
    const linker::Executable &profiled = wf.metadataBinary();
    const profile::Profile &prof = wf.profile();

    // This week: the same program, drifted.
    ir::Program drifted = workload::generate(cfg);
    workload::DriftSpec dspec;
    dspec.seed = cfg.seed + 1;
    dspec.rate = g_stale_pct / 100.0;
    workload::DriftStats drift = workload::applyDrift(drifted, dspec);

    codegen::Options copts;
    copts.emitAddrMapSection = true;
    std::vector<elf::ObjectFile> objects =
        codegen::compileProgram(drifted, copts);
    linker::Options mopts;
    mopts.entrySymbol = drifted.entryFunction;
    mopts.outputName = cfg.name + ".pm-drift";
    linker::Executable target = linker::link(objects, mopts);

    bool mismatch =
        prof.binaryHash != 0 && prof.binaryHash != target.identityHash;
    if (mismatch && !g_allow_stale) {
        std::fprintf(stderr,
                     "propeller-cli: profile identity mismatch after %u "
                     "drift mutations; rerun with --allow-stale to match "
                     "by CFG fingerprint.\n",
                     drift.total());
        printShardVersionCensus(prof, target.identityHash);
        return 1;
    }

    // Ground truth: a fresh profile of the drifted build.
    profile::Profile fresh_prof =
        sim::collectProfile(target, workload::profileOptions(cfg));
    core::WpaResult fresh =
        core::runWholeProgramAnalysis(target, fresh_prof, {}, g_jobs);

    core::WpaResult stale_wpa;
    stale::StaleMatchStats match;
    bool via_matcher = false;
    if (!mismatch) {
        stale_wpa = core::runWholeProgramAnalysis(target, prof, {}, g_jobs);
    } else {
        stale::StaleWpaResult swr = stale::runStaleWholeProgramAnalysis(
            target, profiled, prof, {}, g_jobs);
        stale_wpa = std::move(swr.wpa);
        match = swr.match;
        via_matcher = true;
    }

    // Relink the drifted build three ways: baseline order, fresh-profile
    // layout, stale-profile layout.
    auto optimized = [&](const core::WpaResult &wpa, const char *suffix) {
        codegen::Options oc;
        oc.emitAddrMapSection = true;
        oc.bbSections = codegen::BbSectionsMode::Clusters;
        codegen::ClusterMap clusters = wpa.ccProf.clusters;
        codegen::sanitizeClusterMap(drifted, clusters);
        oc.clusters = &clusters;
        linker::Options lo;
        lo.entrySymbol = drifted.entryFunction;
        lo.symbolOrder = wpa.ldProf.symbolOrder;
        lo.stripAddrMaps = true;
        lo.outputName = cfg.name + suffix;
        return linker::link(codegen::compileProgram(drifted, oc), lo);
    };
    linker::Options bopts;
    bopts.entrySymbol = drifted.entryFunction;
    bopts.stripAddrMaps = true;
    bopts.outputName = cfg.name + ".base-drift";
    linker::Executable base_exe = linker::link(objects, bopts);
    linker::Executable fresh_exe = optimized(fresh, ".po-fresh");
    linker::Executable stale_exe = optimized(stale_wpa, ".po-stale");

    std::printf("drifted build: %u mutations at %.0f%% drift, text %s\n",
                drift.total(), g_stale_pct,
                formatBytes(base_exe.sizes.text).c_str());
    if (via_matcher)
        std::printf("stale match: %.1f%% of blocks (%.1f%% of weight), "
                    "%u identical + %u matched + %u dropped functions\n",
                    match.blockMatchRate() * 100.0,
                    match.weightMatchRate() * 100.0,
                    match.functionsIdentical, match.functionsMatched,
                    match.functionsDropped);
    else
        std::printf("profile identity matches (no drift in layout-"
                    "relevant code); fresh pipeline used\n");

    sim::MachineOptions eopts = workload::evalOptions(cfg);
    sim::RunResult rbase = sim::run(base_exe, eopts);
    sim::RunResult rfresh = sim::run(fresh_exe, eopts);
    sim::RunResult rstale = sim::run(stale_exe, eopts);
    std::printf("\nperformance on the drifted build:\n");
    printCounters("baseline", rbase, rbase);
    printCounters("fresh", rfresh, rbase);
    printCounters("stale", rstale, rbase);

    double fresh_win = static_cast<double>(rbase.counters.cycles()) -
                       static_cast<double>(rfresh.counters.cycles());
    double stale_win = static_cast<double>(rbase.counters.cycles()) -
                       static_cast<double>(rstale.counters.cycles());
    if (fresh_win > 0.0)
        std::printf("\nstale profile retains %.1f%% of the fresh-profile "
                    "cycle win\n",
                    100.0 * stale_win / fresh_win);
    return 0;
}

int
cmdRun(const std::string &name)
{
    workload::WorkloadConfig cfg = namedConfig(name);
    if (g_stale_requested)
        return cmdRunStale(cfg);

    faultinject::FaultSpec fault_spec;
    if (g_fault_requested) {
        auto parsed = faultinject::parseFaultSpec(g_fault_spec);
        if (!parsed.ok()) {
            std::fprintf(stderr, "propeller-cli: bad --fault-inject: %s\n",
                         parsed.status().toString().c_str());
            return usage();
        }
        fault_spec = *parsed;
    }
    faultinject::FaultInjector injector(fault_spec);

    buildsys::Workflow wf(cfg);
    if (g_fault_requested)
        wf.setFaultHooks(&injector);
    std::printf("workload %s: %zu modules, %zu functions, %zu blocks, "
                "text %s\n\n",
                name.c_str(), wf.program().modules.size(),
                wf.program().functionCount(), wf.program().blockCount(),
                formatBytes(wf.baseline().sizes.text).c_str());

    sim::MachineOptions opts = workload::evalOptions(cfg);
    sim::RunResult base = sim::run(wf.baseline(), opts);
    sim::RunResult prop = sim::run(wf.propellerBinary(), opts);
    linker::Executable bo = wf.boltBinary();
    sim::RunResult bolt = sim::run(bo, opts);

    std::printf("performance (identical logical work):\n");
    printCounters("baseline", base, base);
    printCounters("propeller", prop, base);
    if (bolt.startupOk) {
        printCounters("bolt", bolt, base);
    } else {
        std::printf("  %-10s CRASH at startup (integrity checks)\n",
                    "bolt");
    }

    std::printf("\nbuild phases (modelled):\n");
    for (const char *phase :
         {"phase1", "phase2.codegen", "phase2.link", "phase3.collect",
          "phase3.wpa", "phase4.codegen", "phase4.link"}) {
        if (!wf.hasReport(phase))
            continue;
        const buildsys::PhaseReport &r = wf.report(phase);
        std::printf("  %-16s %7.1f min  peak %-9s  %u actions, %u cached\n",
                    phase, r.makespanMinutes(),
                    formatBytes(r.peakActionMemory).c_str(), r.actions,
                    r.cacheHits);
    }
    if (wf.hasRelinkSchedule()) {
        const sched::ScheduleReport &s = wf.relinkSchedule();
        std::printf("\nrelink task graph (%u tasks, %u modelled "
                    "workers):\n"
                    "  makespan %.1fs = %.2fx the critical-path lower "
                    "bound (%.1fs), %.0f%% parallel efficiency, %llu "
                    "steals\n",
                    s.tasksExecuted, s.modelWorkers, s.makespanSec,
                    s.criticalPathRatio(), s.lowerBoundSec,
                    s.parallelEfficiency * 100.0,
                    static_cast<unsigned long long>(s.steals));
        std::printf("  steal hit rate %.2f (%llu probes)\n",
                    s.stealHitRate(),
                    static_cast<unsigned long long>(s.stealAttempts));
        if (!g_trace_out.empty()) {
            if (sched::writeChromeTrace(s, g_trace_out))
                std::printf("  wrote schedule trace to %s\n",
                            g_trace_out.c_str());
            else
                std::printf("  FAILED writing schedule trace to %s\n",
                            g_trace_out.c_str());
        }
    }

    if (g_fault_requested) {
        wf.scrubCache();
        const faultinject::FaultStats &fs = injector.stats();
        std::printf("\nfault injection (%s):\n", g_fault_spec.c_str());
        std::printf("  injected: %u profile shards, %u cache entries, "
                    "%u addr maps, %u exec faults (%u flips, %u "
                    "truncations, %u zero runs)\n",
                    fs.profileShardsCorrupted, fs.cacheEntriesCorrupted,
                    fs.addrMapsCorrupted, fs.actionFailures, fs.bitFlips,
                    fs.truncations, fs.zeroRuns);
        uint32_t retries = 0;
        for (const char *phase : {"phase2.codegen", "phase4.codegen"})
            retries += wf.hasReport(phase) ? wf.report(phase).retries : 0;
        std::printf("  detected: %u shards rejected, %llu cache "
                    "corruptions evicted, %u quarantined in WPA, %u "
                    "action retries\n",
                    wf.report("phase3.collect").quarantined,
                    static_cast<unsigned long long>(
                        wf.cacheStats().corruptions),
                    wf.wpa().stats.quarantined, retries);
        for (const char *phase :
             {"phase2.codegen", "phase2.link", "phase3.collect",
              "phase3.wpa", "phase4.codegen", "phase4.link"}) {
            if (!wf.hasReport(phase))
                continue;
            for (const auto &line : wf.report(phase).failures)
                std::printf("    [%s] %s\n", phase, line.c_str());
        }
    }
    return 0;
}

void
printArtifacts(const core::WpaResult &wpa)
{
    std::printf("# cc_prof.txt — %u hot functions\n%s\n",
                wpa.stats.hotFunctions, wpa.ccProf.serialize().c_str());
    std::printf("# ld_prof.txt\n%s", wpa.ldProf.serialize().c_str());
}

int
cmdWpa(const std::string &name)
{
    workload::WorkloadConfig cfg = namedConfig(name);
    buildsys::Workflow wf(cfg);

    if (!g_stale_requested) {
        const core::WpaResult &wpa = wf.wpa();
        printArtifacts(wpa);
        std::printf("\n# stats: peak memory %s, dcfg %s, %llu branch + "
                    "%llu fall-through events\n",
                    formatBytes(wpa.stats.peakMemory).c_str(),
                    formatBytes(wpa.stats.dcfgFootprint).c_str(),
                    static_cast<unsigned long long>(
                        wpa.stats.mapper.branchEdges),
                    static_cast<unsigned long long>(
                        wpa.stats.mapper.fallThroughEdges));
        return 0;
    }

    // The stale scenario: the profile comes from this workload's pristine
    // metadata binary, but the binary being optimized has drifted.
    ir::Program drifted = workload::generate(cfg);
    workload::DriftSpec spec;
    spec.seed = cfg.seed + 1;
    spec.rate = g_stale_pct / 100.0;
    workload::DriftStats drift = workload::applyDrift(drifted, spec);

    codegen::Options copts;
    copts.emitAddrMapSection = true;
    linker::Options lopts;
    lopts.entrySymbol = drifted.entryFunction;
    linker::Executable target =
        linker::link(codegen::compileProgram(drifted, copts), lopts);

    const linker::Executable &profiled = wf.metadataBinary();
    const profile::Profile &prof = wf.profile();

    bool mismatch =
        prof.binaryHash != 0 && prof.binaryHash != target.identityHash;
    if (mismatch && !g_allow_stale) {
        std::fprintf(stderr,
                     "propeller-cli: profile identity mismatch: the "
                     "profile was collected on binary %016llx but the "
                     "target binary is %016llx (%u drift mutations).\n"
                     "Applying it by address would mis-attribute counts; "
                     "rerun with --allow-stale to match it by CFG "
                     "fingerprint instead.\n",
                     static_cast<unsigned long long>(prof.binaryHash),
                     static_cast<unsigned long long>(target.identityHash),
                     drift.total());
        printShardVersionCensus(prof, target.identityHash);
        return 1;
    }

    if (!mismatch) {
        // Same build after all (e.g. --stale-profile 0): fresh pipeline.
        core::WpaResult wpa =
            core::runWholeProgramAnalysis(target, prof, {}, g_jobs);
        printArtifacts(wpa);
        return 0;
    }

    stale::StaleWpaResult swr = stale::runStaleWholeProgramAnalysis(
        target, profiled, prof, {}, g_jobs);
    printArtifacts(swr.wpa);
    std::printf("\n# stale match: %.1f%% of blocks (%.1f%% of weight), "
                "%u identical + %u matched + %u dropped functions\n",
                swr.match.blockMatchRate() * 100.0,
                swr.match.weightMatchRate() * 100.0,
                swr.match.functionsIdentical, swr.match.functionsMatched,
                swr.match.functionsDropped);
    std::printf("# inference: %u functions, %llu blocks given counts, "
                "%llu edges rerouted, %llu edges added\n",
                swr.inference.functionsInferred,
                static_cast<unsigned long long>(swr.inference.nodesAdded),
                static_cast<unsigned long long>(
                    swr.inference.edgesRerouted),
                static_cast<unsigned long long>(swr.inference.edgesAdded));
    return 0;
}

int
cmdVerify(const std::string &name)
{
    workload::WorkloadConfig cfg = namedConfig(name);
    buildsys::Workflow wf(cfg);

    // IR invariants first — findings are typed support::Status now, so
    // a violation names both its category and the offending construct.
    std::vector<support::Status> ir_errors = ir::verifyAll(wf.program());
    if (!ir_errors.empty()) {
        for (const auto &status : ir_errors)
            std::fprintf(stderr, "ir: %s\n", status.toString().c_str());
        std::fprintf(stderr, "propeller-cli: IR verification failed "
                             "(%zu violations)\n",
                     ir_errors.size());
        return 1;
    }

    // The canonical phase-5 pass (all machine checks on the kept-map
    // Phase 4 image) — or the same machine checks aimed at the BOLT
    // rewrite — refiltered through the user's suppression list.
    if (g_backend != "propeller" && g_backend != "bolt") {
        std::fprintf(stderr, "propeller-cli: unknown --backend '%s'\n",
                     g_backend.c_str());
        return usage();
    }
    analysis::VerifyReport bolt_full;
    if (g_backend == "bolt")
        bolt_full = wf.verifyBoltBinary();
    const analysis::VerifyReport &full =
        g_backend == "bolt" ? bolt_full : wf.verifyReport();
    analysis::VerifyReport rep;
    if (!rep.engine.parseSuppressions(g_suppress)) {
        std::fprintf(stderr,
                     "propeller-cli: bad --suppress list '%s'\n",
                     g_suppress.c_str());
        return usage();
    }
    for (const auto &d : full.engine.diagnostics())
        rep.engine.report(d.id, d.severity, d.function, d.address,
                          d.message);
    rep.functionsChecked = full.functionsChecked;
    rep.rangesDecoded = full.rangesDecoded;
    rep.handAsmSkipped = full.handAsmSkipped;
    rep.instructionsDecoded = full.instructionsDecoded;
    rep.bytesVerified = full.bytesVerified;

    if (g_json) {
        std::printf("%s\n", rep.engine.renderJson().c_str());
    } else {
        std::string target_name = g_backend == "bolt"
                                      ? cfg.name + ".bolt"
                                      : wf.propellerBinary().name;
        std::printf("verified %s: %u functions, %u ranges, %llu "
                    "instructions, %s of text\n",
                    target_name.c_str(),
                    rep.functionsChecked, rep.rangesDecoded,
                    static_cast<unsigned long long>(
                        rep.instructionsDecoded),
                    formatBytes(rep.bytesVerified).c_str());
        std::printf("%s", rep.engine.renderText().c_str());
    }
    return rep.engine.errorCount() > 0 ? 1 : 0;
}

int
cmdDisasm(const std::string &name, const std::string &symbol)
{
    buildsys::Workflow wf(namedConfig(name));
    const linker::Executable &exe = wf.propellerBinary();
    bool found = false;
    for (const auto &sym : exe.symbols) {
        if (sym.name != symbol && sym.parentFunction != symbol)
            continue;
        found = true;
        std::printf("%s  [0x%llx, 0x%llx):\n", sym.name.c_str(),
                    static_cast<unsigned long long>(sym.start),
                    static_cast<unsigned long long>(sym.end));
        uint64_t pc = sym.start;
        while (pc < sym.end) {
            auto inst = isa::decode(exe.text.data() + (pc - exe.textBase),
                                    sym.end - pc);
            if (!inst) {
                std::printf("  %llx:  <data>\n",
                            static_cast<unsigned long long>(pc));
                break;
            }
            std::printf("  %llx:  %s\n",
                        static_cast<unsigned long long>(pc),
                        inst->toString().c_str());
            pc += inst->size();
        }
    }
    if (!found) {
        std::printf("no symbol '%s' in %s\n", symbol.c_str(),
                    name.c_str());
        return 1;
    }
    return 0;
}

int
cmdHeatmap(const std::string &name)
{
    workload::WorkloadConfig cfg = namedConfig(name);
    buildsys::Workflow wf(cfg);
    sim::MachineOptions opts = workload::evalOptions(cfg);
    opts.recordHeatMap = true;
    opts.heatAddrBuckets = 24;
    opts.heatTimeBuckets = 64;
    sim::RunResult base = sim::run(wf.baseline(), opts);
    sim::RunResult prop = sim::run(wf.propellerBinary(), opts);
    std::printf("baseline:\n%s\npropeller:\n%s",
                renderHeatMap(base.heatMap, "addr", "time").c_str(),
                renderHeatMap(prop.heatMap, "addr", "time").c_str());
    return 0;
}

/**
 * `serve <workload>`: the continuous-profiling fleet loop — stream
 * shards from a mixed-version fleet, fold the recency-weighted
 * aggregate, relink on drift-threshold crossings, print statusz.
 * With --chaos the transport and relinks run under a seeded chaos
 * schedule; --canary-at/--rollback-at model a mid-run canary rollout
 * that gets rolled back through the runtime fleet-config API.
 */
int
cmdServe(const std::string &name)
{
    fleet::FleetOptions fo;
    fo.base = namedConfig(name);
    fo.machines = g_machines;
    fo.versions = g_versions;
    fo.interVersionDrift = g_drift_pct / 100.0;
    fo.driftThreshold = g_drift_threshold;
    fo.decay = g_decay;
    fo.cachePath = g_cache_path;

    std::unique_ptr<faultinject::ChaosSchedule> chaos;
    if (g_chaos_requested) {
        support::StatusOr<faultinject::ChaosSpec> spec =
            faultinject::parseChaosSpec(g_chaos_spec);
        if (!spec.ok()) {
            std::printf("propeller-cli: bad --chaos spec: %s\n",
                        spec.status().toString().c_str());
            return 2;
        }
        // Delays past the decay window would double-attribute (expired
        // *and* lost); clamp so injected == detected holds.
        faultinject::ChaosSpec cs = *spec;
        cs.maxDelayEpochs =
            std::min(cs.maxDelayEpochs, fo.decayWindow);
        chaos = std::make_unique<faultinject::ChaosSchedule>(cs);
    }

    std::printf("fleet service: %u machine(s) on %u version(s) of %s, "
                "drift threshold %.3f%s\n",
                fo.machines, fo.versions, name.c_str(), fo.driftThreshold,
                chaos ? ", chaos on" : "");

    fleet::FleetService service(std::move(fo));
    if (chaos)
        service.setChaosHooks(chaos.get());

    unsigned canaryVersion = ~0u;
    for (unsigned e = 0; e < g_epochs; ++e) {
        if (e == g_canary_at) {
            canaryVersion = service.addVersion();
            service.setTargetVersion(canaryVersion);
            std::printf("epoch %2u: canary v%u added and targeted\n", e,
                        canaryVersion);
        }
        if (e == g_rollback_at && canaryVersion != ~0u &&
            !service.versionRetired(canaryVersion)) {
            service.retireVersion(canaryVersion);
            std::printf("epoch %2u: canary v%u rolled back (target back "
                        "to v%u)\n",
                        e, canaryVersion, service.targetVersion());
        }
        service.stepEpoch();
        const fleet::EpochStats &es = service.history().back();
        std::printf("epoch %2u: %3u shard(s) in, %u rejected, %u dup, "
                    "%u late, %u lost, lag peak %u, drift %.4f%s%s%s\n",
                    es.epoch, es.shardsIngested, es.shardsRejected,
                    es.shardsDuplicated, es.shardsLate, es.shardsLost,
                    es.shardLagPeak, es.driftMetric,
                    es.relinked ? "  -> relink" : "",
                    es.relinkRetried ? "  -> relink retry" : "",
                    service.degraded() ? "  [degraded]" : "");
    }

    std::string page = fleet::renderStatuszText(service);
    std::printf("\n%s", page.c_str());

    if (chaos) {
        const faultinject::ChaosStats &cs = chaos->stats();
        std::printf("\nchaos injected: %llu dropped, %llu duplicated, "
                    "%llu delayed (max %u epoch(s)), %llu corrupted, "
                    "%llu relink fault(s)\n",
                    static_cast<unsigned long long>(cs.shardsDropped),
                    static_cast<unsigned long long>(cs.shardsDuplicated),
                    static_cast<unsigned long long>(cs.shardsDelayed),
                    cs.maxDelayInjected,
                    static_cast<unsigned long long>(cs.shardsCorrupted),
                    static_cast<unsigned long long>(cs.relinkFaults));
    }

    if (!g_statusz_out.empty()) {
        support::Status st =
            fleet::writeStatuszFile(service, g_statusz_out);
        if (!st.ok()) {
            std::printf("propeller-cli: %s\n", st.toString().c_str());
            return 2;
        }
        std::printf("statusz JSON written to %s\n", g_statusz_out.c_str());
    }
    return 0;
}

int
usage()
{
    std::printf("usage: propeller-cli [--jobs N] <command> [args]\n"
                "  list\n"
                "  run <workload>\n"
                "  wpa <workload>\n"
                "  verify <workload>\n"
                "  disasm <workload> <symbol>\n"
                "  heatmap <workload>\n"
                "  serve <workload>\n"
                "options:\n"
                "  --jobs N            worker threads for every parallel\n"
                "                      stage: layout, codegen, link\n"
                "                      assembly, verification\n"
                "                      (default: all hardware threads)\n"
                "  --backend B         verify: propeller (default) or\n"
                "                      bolt — aim the static verifier at\n"
                "                      the chosen optimizer's output\n"
                "  --stale-profile N   run/wpa: apply the profile to a\n"
                "                      binary drifted N%% from the\n"
                "                      profiled one\n"
                "  --allow-stale       accept a mismatched profile and\n"
                "                      match it by CFG fingerprint\n"
                "  --fault-inject S    run: seeded corruption spec, e.g.\n"
                "                      seed=7,profile=0.25,cache=0.25,\n"
                "                      addrmap=0.25,exec=0.1\n"
                "  --suppress LIST     verify: mute check ids, e.g.\n"
                "                      PV004,PV011\n"
                "  --json              verify: emit the JSON report\n"
                "  --trace-out FILE    run: write the modelled relink\n"
                "                      schedule as Chrome trace_event\n"
                "                      JSON (open in chrome://tracing\n"
                "                      or https://ui.perfetto.dev)\n"
                "  --machines N        serve: fleet machines (default 8)\n"
                "  --epochs N          serve: profiling epochs to run\n"
                "                      (default 8)\n"
                "  --versions N        serve: binary versions in the\n"
                "                      drift chain (default 3)\n"
                "  --drift N           serve: inter-version drift %%\n"
                "                      (default 10)\n"
                "  --drift-threshold X serve: relink when the drift\n"
                "                      metric exceeds X (default 0.15)\n"
                "  --decay D           serve: per-epoch sample decay in\n"
                "                      (0, 1] (default 0.5)\n"
                "  --cache FILE        serve: artifact-cache image path\n"
                "                      (persists across restarts;\n"
                "                      journaled + generation-stamped —\n"
                "                      a torn image cold-starts cleanly)\n"
                "  --statusz-out FILE  serve: write the statusz page as\n"
                "                      JSON\n"
                "  --chaos S           serve: seeded shard-stream chaos\n"
                "                      spec, e.g. seed=7,drop=0.1,\n"
                "                      dup=0.1,delay=0.2,maxdelay=2,\n"
                "                      corrupt=0.1,reorder=0.25,\n"
                "                      blackout=4:5\n"
                "  --canary-at E       serve: add a new version at epoch\n"
                "                      E and target it (canary rollout)\n"
                "  --rollback-at R     serve: retire the canary at epoch\n"
                "                      R (rollback to last-good chain)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Consume global options before the subcommand.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            char *end = nullptr;
            unsigned long n = std::strtoul(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0') {
                std::printf("propeller-cli: --jobs expects a number, got "
                            "'%s'\n",
                            argv[i]);
                return usage();
            }
            g_jobs = static_cast<unsigned>(n);
            continue;
        }
        if (arg == "--backend" && i + 1 < argc) {
            g_backend = argv[++i];
            continue;
        }
        if (arg == "--stale-profile" && i + 1 < argc) {
            char *end = nullptr;
            double pct = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || pct < 0.0 ||
                pct > 100.0) {
                std::printf("propeller-cli: --stale-profile expects a "
                            "percentage in [0, 100], got '%s'\n",
                            argv[i]);
                return usage();
            }
            g_stale_pct = pct;
            g_stale_requested = true;
            continue;
        }
        if (arg == "--allow-stale") {
            g_allow_stale = true;
            continue;
        }
        if (arg == "--fault-inject" && i + 1 < argc) {
            g_fault_spec = argv[++i];
            g_fault_requested = true;
            continue;
        }
        if (arg == "--suppress" && i + 1 < argc) {
            g_suppress = argv[++i];
            continue;
        }
        if (arg == "--json") {
            g_json = true;
            continue;
        }
        if (arg == "--trace-out" && i + 1 < argc) {
            g_trace_out = argv[++i];
            continue;
        }
        auto parseCount = [&](const char *flag, unsigned &out) {
            char *end = nullptr;
            unsigned long n = std::strtoul(argv[i], &end, 10);
            if (end == argv[i] || *end != '\0' || n == 0) {
                std::printf("propeller-cli: %s expects a positive "
                            "number, got '%s'\n",
                            flag, argv[i]);
                return false;
            }
            out = static_cast<unsigned>(n);
            return true;
        };
        auto parseReal = [&](const char *flag, double lo, double hi,
                             double &out) {
            char *end = nullptr;
            double x = std::strtod(argv[i], &end);
            if (end == argv[i] || *end != '\0' || x < lo || x > hi) {
                std::printf("propeller-cli: %s expects a number in "
                            "[%g, %g], got '%s'\n",
                            flag, lo, hi, argv[i]);
                return false;
            }
            out = x;
            return true;
        };
        if (arg == "--machines" && i + 1 < argc) {
            ++i;
            if (!parseCount("--machines", g_machines))
                return usage();
            continue;
        }
        if (arg == "--epochs" && i + 1 < argc) {
            ++i;
            if (!parseCount("--epochs", g_epochs))
                return usage();
            continue;
        }
        if (arg == "--versions" && i + 1 < argc) {
            ++i;
            if (!parseCount("--versions", g_versions))
                return usage();
            continue;
        }
        if (arg == "--drift" && i + 1 < argc) {
            ++i;
            if (!parseReal("--drift", 0.0, 100.0, g_drift_pct))
                return usage();
            continue;
        }
        if (arg == "--drift-threshold" && i + 1 < argc) {
            ++i;
            if (!parseReal("--drift-threshold", 0.0, 1.0,
                           g_drift_threshold))
                return usage();
            continue;
        }
        if (arg == "--decay" && i + 1 < argc) {
            ++i;
            if (!parseReal("--decay", 0.0, 1.0, g_decay) || g_decay == 0.0) {
                if (g_decay == 0.0)
                    std::printf("propeller-cli: --decay expects a number in "
                                "(0, 1], got '%s'\n",
                                argv[i]);
                return usage();
            }
            continue;
        }
        if (arg == "--cache" && i + 1 < argc) {
            g_cache_path = argv[++i];
            continue;
        }
        if (arg == "--statusz-out" && i + 1 < argc) {
            g_statusz_out = argv[++i];
            continue;
        }
        if (arg == "--chaos" && i + 1 < argc) {
            g_chaos_spec = argv[++i];
            g_chaos_requested = true;
            continue;
        }
        if (arg == "--canary-at" && i + 1 < argc) {
            ++i;
            unsigned at = 0;
            if (!parseCount("--canary-at", at))
                return usage();
            g_canary_at = at;
            continue;
        }
        if (arg == "--rollback-at" && i + 1 < argc) {
            ++i;
            unsigned at = 0;
            if (!parseCount("--rollback-at", at))
                return usage();
            g_rollback_at = at;
            continue;
        }
        args.push_back(std::move(arg));
    }
    if (args.empty())
        return usage();
    const std::string &cmd = args[0];
    if (cmd == "list")
        return cmdList();
    if (cmd == "run" && args.size() == 2)
        return cmdRun(args[1]);
    if (cmd == "wpa" && args.size() == 2)
        return cmdWpa(args[1]);
    if (cmd == "verify" && args.size() == 2)
        return cmdVerify(args[1]);
    if (cmd == "disasm" && args.size() == 3)
        return cmdDisasm(args[1], args[2]);
    if (cmd == "heatmap" && args.size() == 2)
        return cmdHeatmap(args[1]);
    if (cmd == "serve" && args.size() == 2)
        return cmdServe(args[1]);
    return usage();
}
