/**
 * @file
 * Continuous-profiling fleet-service gate: run a mixed-version fleet to
 * steady state and check that the incremental, cache-backed relink loop
 * converges to the one-shot ground truth.
 *
 * The scenario is the paper's deployment story end to end: 8 machines
 * start spread over versions v0/v1 of a binary (10% drift between
 * versions), v2 releases at epoch 2, machines migrate two per epoch, and
 * the service ingests streaming LBR shards, folds the recency-weighted
 * aggregate, and relinks whenever the drift metric crosses the
 * threshold.  After the fleet converges on v2 the harness forces two
 * back-to-back relinks and compares against a cold one-shot relink of
 * the converged aggregate.
 *
 * Emits BENCH_fleet.json and exits nonzero if a gate fails:
 *  - steady_state_retention >= 0.98: the converged layout keeps at
 *    least 98% of the fresh-profile Ext-TSP win on the final version;
 *  - relinks_triggered == drift_crossings exactly (every threshold
 *    crossing relinked, nothing else did);
 *  - the second forced relink is 100% layout-warm (0 misses) and its
 *    binary is byte-identical to the first — steady state really is a
 *    fixed point;
 *  - a cold one-shot relink driven by the same converged DCFG is
 *    byte-identical to the service's shipped binary (the incremental
 *    path changes cost, never artifacts);
 *  - primed_hits >= 1 in the dedicated drifted-function scenario (a
 *    layout-neutral code edit is served from the digest-alias tier).
 *
 * Usage: bench_fleet [output.json]
 */

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "build/workflow.h"
#include "common.h"
#include "ir/ir.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/ext_tsp.h"
#include "propeller/profile_mapper.h"
#include "propeller/propeller.h"
#include "service/fleet.h"
#include "sim/machine.h"
#include "workload/workload.h"

using namespace propeller;
using namespace propeller::core;

namespace {

constexpr double kRetentionFloor = 0.98;

workload::WorkloadConfig
fleetAppConfig()
{
    workload::WorkloadConfig cfg;
    cfg.name = "fleetapp";
    cfg.seed = 1009;
    cfg.modules = 12;
    cfg.functions = 80;
    cfg.hotFunctions = 26;
    cfg.coldObjectFraction = 0.6;
    cfg.minBlocks = 3;
    cfg.maxBlocks = 26;
    cfg.coldPathDensity = 0.35;
    cfg.pgoStaleness = 0.4;
    cfg.handAsmFunctions = 1;
    cfg.multiModalFunctions = 2;
    cfg.evalInstructions = 600'000;
    cfg.profileInstructions = 600'000;
    cfg.sampleLbrPeriod = 2'000;
    return cfg;
}

/** Ext-TSP score of @p clusters over @p dcfg (nullptr = address order). */
double
scoreLayout(const WholeProgramDcfg &dcfg, const AddrMapIndex &index,
            const codegen::ClusterMap *clusters)
{
    double total = 0.0;
    for (const auto &fn : dcfg.functions) {
        std::vector<LayoutNode> nodes(fn.nodes.size());
        std::unordered_map<uint32_t, uint32_t> node_of;
        for (size_t i = 0; i < fn.nodes.size(); ++i) {
            nodes[i] = {std::max<uint64_t>(fn.nodes[i].size, 1),
                        fn.nodes[i].freq};
            node_of.emplace(fn.nodes[i].bbId, static_cast<uint32_t>(i));
        }
        std::vector<LayoutEdge> edges;
        edges.reserve(fn.edges.size());
        for (const auto &e : fn.edges)
            edges.push_back({e.fromNode, e.toNode, e.weight});

        std::vector<uint32_t> bb_order;
        const codegen::ClusterSpec *spec = nullptr;
        if (clusters) {
            auto it = clusters->find(fn.function);
            if (it != clusters->end())
                spec = &it->second;
        }
        if (spec) {
            for (const auto &cluster : spec->clusters)
                bb_order.insert(bb_order.end(), cluster.begin(),
                                cluster.end());
        } else {
            int f = index.findFunction(fn.function);
            if (f >= 0) {
                for (const auto &block :
                     index.blocksOf(static_cast<uint32_t>(f)))
                    bb_order.push_back(block.bbId);
            }
        }

        std::vector<uint32_t> order;
        std::vector<char> placed(nodes.size(), 0);
        for (uint32_t bb : bb_order) {
            auto it = node_of.find(bb);
            if (it == node_of.end() || placed[it->second])
                continue;
            placed[it->second] = 1;
            order.push_back(it->second);
        }
        for (uint32_t i = 0; i < nodes.size(); ++i) {
            if (!placed[i])
                order.push_back(i);
        }
        total += extTspScore(nodes, edges, order);
    }
    return total;
}

/**
 * The dedicated priming scenario: a Work immediate edited in a sampled
 * function changes its hash (exact memo key) but none of the inputs
 * layout reads, so the primed digest-alias tier must serve it warm.
 */
uint64_t
primedHitScenario(const workload::WorkloadConfig &cfg)
{
    const char *cache = "BENCH_fleet_prime.cache";
    std::remove(cache);

    buildsys::Workflow cold_wf(cfg);
    cold_wf.propellerBinary();
    if (!cold_wf.saveCacheFile(cache))
        return 0;

    ir::Program edited = workload::generate(cfg);
    std::string victim;
    for (const std::string &hot : cold_wf.wpa().hotFunctions) {
        for (auto &module : edited.modules) {
            for (auto &fn : module->functions) {
                if (fn->name != hot || fn->isHandAsm || !victim.empty())
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
    if (victim.empty())
        return 0;

    buildsys::Workflow warm_wf(cfg);
    warm_wf.overrideProgram(std::move(edited));
    if (!warm_wf.loadCacheFile(cache))
        return 0;
    warm_wf.setLayoutPrimeFunctions({victim});
    warm_wf.propellerBinary();
    return warm_wf.layoutCacheStats().primedHits;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
    bench::printHeader(
        "BENCH fleet", "continuous-profiling fleet service",
        "streaming mixed-version shard ingestion with drift-triggered "
        "incremental relinks converges to the one-shot fresh-profile "
        "layout, and the persisted cache keeps steady state fully warm");

    fleet::FleetOptions fo;
    fo.base = fleetAppConfig();
    fo.machines = 8;
    fo.versions = 3;
    fo.interVersionDrift = 0.10;
    fo.driftThreshold = 0.10;
    fo.cachePath = "BENCH_fleet.cache";
    std::remove(fo.cachePath.c_str());
    const fleet::FleetOptions fo_copy = fo;

    fleet::FleetService svc(std::move(fo));
    const uint32_t epochs = 14;
    svc.run(epochs);
    for (const fleet::EpochStats &es : svc.history())
        std::printf("epoch %2u: %3u shards, drift %.4f%s\n", es.epoch,
                    es.shardsIngested, es.driftMetric,
                    es.relinked ? "  -> relink" : "");

    // Gate: relinks fired exactly on the threshold crossings.
    uint32_t crossings = svc.driftCrossings();
    uint64_t triggered = 0;
    for (const fleet::RelinkRecord &r : svc.relinks()) {
        if (!r.forced)
            ++triggered;
    }
    bool trigger_gate = triggered == crossings && crossings >= 1;

    // Two forced relinks at steady state: the second must be served
    // entirely from the persisted layout tier and reproduce the first's
    // bytes exactly.
    svc.relinkNow();
    linker::Executable first = svc.shippedBinary();
    svc.relinkNow();
    const fleet::RelinkRecord &steady = svc.relinks().back();
    double warm_rate =
        steady.layoutHits + steady.layoutPrimedHits + steady.layoutMisses >
                0
            ? static_cast<double>(steady.layoutHits +
                                  steady.layoutPrimedHits) /
                  static_cast<double>(steady.layoutHits +
                                      steady.layoutPrimedHits +
                                      steady.layoutMisses)
            : 0.0;
    bool steady_gate = steady.layoutMisses == 0 &&
                       svc.shippedBinary().text == first.text &&
                       svc.shippedBinary().identityHash ==
                           first.identityHash;

    // Cold one-shot relink on the converged aggregate: same DCFG, no
    // cache — must reproduce the service's bytes (the incremental path
    // changes cost, never artifacts).
    buildsys::Workflow oneshot(fo_copy.base);
    oneshot.overrideProgram(
        fleet::makeVersionProgram(fo_copy, svc.targetVersion()));
    profile::Profile stamp;
    stamp.binaryHash =
        svc.versionBinary(svc.targetVersion()).identityHash;
    stamp.totalRetired = 1;
    oneshot.overrideProfile(std::move(stamp));
    oneshot.overrideDcfg(WholeProgramDcfg(svc.lastRelinkDcfg()));
    const linker::Executable &oneshot_exe = oneshot.propellerBinary();
    bool oneshot_gate =
        oneshot_exe.text == svc.shippedBinary().text &&
        oneshot_exe.identityHash == svc.shippedBinary().identityHash;

    // Retention: fresh-profile ground truth on the final version.
    const linker::Executable &target_exe =
        svc.versionBinary(svc.targetVersion());
    AddrMapIndex index(target_exe);
    profile::Profile fresh_prof = sim::collectProfile(
        target_exe, workload::profileOptions(fo_copy.base));
    WholeProgramDcfg fresh_dcfg =
        buildDcfg(profile::aggregate(fresh_prof), index);
    WpaResult fresh = runWholeProgramAnalysis(target_exe, fresh_prof, {});

    double base_score = scoreLayout(fresh_dcfg, index, nullptr);
    double fresh_score =
        scoreLayout(fresh_dcfg, index, &fresh.ccProf.clusters);
    double steady_score = scoreLayout(
        fresh_dcfg, index, &svc.lastRelinkWpa().ccProf.clusters);
    double retention = fresh_score > base_score
                           ? (steady_score - base_score) /
                                 (fresh_score - base_score)
                           : 0.0;
    bool retention_gate = retention >= kRetentionFloor;

    // The dedicated primed-hit scenario.
    uint64_t primed = primedHitScenario(fo_copy.base);
    bool primed_gate = primed >= 1;

    std::printf("\nsteady state after %u epochs on %u machines:\n",
                epochs, fo_copy.machines);
    std::printf("  relinks triggered %llu, drift crossings %u -> %s\n",
                static_cast<unsigned long long>(triggered), crossings,
                trigger_gate ? "PASS" : "FAIL");
    std::printf("  second forced relink: %llu hit(s) + %llu primed, "
                "%llu miss(es), warm rate %.3f, byte-identical %s\n",
                static_cast<unsigned long long>(steady.layoutHits),
                static_cast<unsigned long long>(steady.layoutPrimedHits),
                static_cast<unsigned long long>(steady.layoutMisses),
                warm_rate, steady_gate ? "PASS" : "FAIL");
    std::printf("  one-shot relink byte-identical: %s\n",
                oneshot_gate ? "PASS" : "FAIL");
    std::printf("  layout retention %.4f (need >= %.2f) %s\n", retention,
                kRetentionFloor, retention_gate ? "PASS" : "FAIL");
    std::printf("  primed digest-alias hits %llu (need >= 1) %s\n",
                static_cast<unsigned long long>(primed),
                primed_gate ? "PASS" : "FAIL");

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"workload\": \"%s\",\n",
                 fo_copy.base.name.c_str());
    std::fprintf(out, "  \"machines\": %u,\n", fo_copy.machines);
    std::fprintf(out, "  \"versions\": %u,\n", fo_copy.versions);
    std::fprintf(out, "  \"epochs\": %u,\n", epochs);
    std::fprintf(out, "  \"drift_history\": [");
    for (size_t i = 0; i < svc.history().size(); ++i)
        std::fprintf(out, "%s%.6f", i ? ", " : "",
                     svc.history()[i].driftMetric);
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"relinks_triggered\": %llu,\n",
                 static_cast<unsigned long long>(triggered));
    std::fprintf(out, "  \"drift_crossings\": %u,\n", crossings);
    std::fprintf(out, "  \"steady_state_retention\": %.6f,\n", retention);
    std::fprintf(out, "  \"warm_hit_rate_steady\": %.6f,\n", warm_rate);
    std::fprintf(out, "  \"primed_hits\": %llu,\n",
                 static_cast<unsigned long long>(primed));
    std::fprintf(out, "  \"score_baseline\": %.3f,\n", base_score);
    std::fprintf(out, "  \"score_fresh\": %.3f,\n", fresh_score);
    std::fprintf(out, "  \"score_steady\": %.3f,\n", steady_score);
    std::fprintf(out, "  \"gate_trigger_exact\": %s,\n",
                 trigger_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_steady_warm_identical\": %s,\n",
                 steady_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_oneshot_identical\": %s,\n",
                 oneshot_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_retention_floor\": %s,\n",
                 retention_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_primed_hits\": %s\n",
                 primed_gate ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    return (trigger_gate && steady_gate && oneshot_gate &&
            retention_gate && primed_gate)
               ? 0
               : 1;
}
