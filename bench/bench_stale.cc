/**
 * @file
 * Stale-profile tolerance gate: profile last week's binary A, optimize
 * this week's drifted binary B through src/stale, and measure how much of
 * the fresh-profile layout quality survives.
 *
 * For each drift rate the harness generates the same program twice,
 * mutates one copy with workload::applyDrift, profiles the pristine build
 * and runs both pipelines:
 *
 *   fresh:  profile(B) -> WPA -> layout        (ground truth)
 *   stale:  profile(A) -> match onto B -> infer -> layout
 *
 * Layout quality is the Ext-TSP score of each layout evaluated on the
 * *fresh* DCFG of B; retention is the stale layout's share of the fresh
 * layout's score improvement over the original (address-order) layout.
 *
 * Emits BENCH_stale.json and exits nonzero if a gate fails:
 *  - at 0%% drift the match must be perfect (every function matched by
 *    function hash) and cc_prof/ld_prof byte-identical to the fresh path;
 *  - at 10%% drift retention must stay >= 0.90.
 *
 * Usage: bench_stale [output.json]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "codegen/codegen.h"
#include "common.h"
#include "linker/linker.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/ext_tsp.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "propeller/propeller.h"
#include "sim/machine.h"
#include "stale/stale.h"
#include "workload/workload.h"

using namespace propeller;
using namespace propeller::core;

namespace {

/** Retention floor at 10% drift (the gate the ISSUE fixes). */
constexpr double kRetentionFloor = 0.90;

workload::WorkloadConfig
staleConfig()
{
    workload::WorkloadConfig cfg;
    cfg.name = "staleapp";
    cfg.seed = 47;
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

linker::Executable
buildMetadata(const ir::Program &program)
{
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    linker::Options lopts;
    lopts.entrySymbol = program.entryFunction;
    return linker::link(codegen::compileProgram(program, copts), lopts);
}

/**
 * Ext-TSP score of @p clusters evaluated over @p dcfg (nullptr scores the
 * original address-order layout).  Blocks the directives do not mention
 * are appended after the directed ones.
 */
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

        // The bbId order this layout gives the function.
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

struct DriftPoint
{
    double rate = 0.0;
    workload::DriftStats drift;
    stale::StaleMatchStats match;
    stale::InferenceStats inference;
    double scoreBaseline = 0.0;
    double scoreFresh = 0.0;
    double scoreStale = 0.0;
    double retention = 0.0;
    bool zeroIdentical = false; ///< Only meaningful at rate 0.
};

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_stale.json";
    bench::printHeader(
        "BENCH stale", "stale-profile matching and count inference",
        "a week-old profile keeps most of Propeller's layout win when "
        "matched by CFG fingerprint instead of dropped on binary mismatch");

    workload::WorkloadConfig cfg = staleConfig();

    // Binary A: last week's build, and the profile collected on it.
    ir::Program program_a = workload::generate(cfg);
    linker::Executable exe_a = buildMetadata(program_a);
    profile::Profile prof_a =
        sim::collectProfile(exe_a, workload::profileOptions(cfg));

    static const double kRates[] = {0.0, 0.05, 0.10, 0.25, 0.50};
    std::vector<DriftPoint> points;
    LayoutOptions lo;

    std::printf("\n%6s %8s %8s %8s %10s %10s %10s %10s\n", "drift",
                "mutated", "blk%", "wt%", "baseline", "fresh", "stale",
                "retain");
    for (double rate : kRates) {
        DriftPoint pt;
        pt.rate = rate;

        // Binary B: this week's build — the same program, drifted.
        ir::Program program_b = workload::generate(cfg);
        pt.drift = workload::applyDrift(
            program_b,
            {cfg.seed + static_cast<uint64_t>(rate * 100.0), rate});
        linker::Executable exe_b = buildMetadata(program_b);

        // Ground truth: a fresh profile of B and its layout.
        profile::Profile prof_b =
            sim::collectProfile(exe_b, workload::profileOptions(cfg));
        AddrMapIndex index_b(exe_b);
        WholeProgramDcfg dcfg_b =
            buildDcfg(profile::aggregate(prof_b), index_b);
        LayoutResult fresh = computeLayout(dcfg_b, index_b, lo);

        // The stale pipeline: A's profile onto B.
        stale::StaleWpaResult swr =
            stale::runStaleWholeProgramAnalysis(exe_b, exe_a, prof_a, lo);
        pt.match = swr.match;
        pt.inference = swr.inference;

        pt.scoreBaseline = scoreLayout(dcfg_b, index_b, nullptr);
        pt.scoreFresh =
            scoreLayout(dcfg_b, index_b, &fresh.ccProf.clusters);
        pt.scoreStale =
            scoreLayout(dcfg_b, index_b, &swr.wpa.ccProf.clusters);
        double lift = pt.scoreFresh - pt.scoreBaseline;
        pt.retention =
            lift > 0.0 ? (pt.scoreStale - pt.scoreBaseline) / lift : 1.0;

        if (rate == 0.0) {
            // At zero drift A and B are the same build: the stale path
            // must collapse to the fresh pipeline, byte for byte.
            WpaResult fresh_from_a =
                runWholeProgramAnalysis(exe_b, prof_a, lo);
            pt.zeroIdentical =
                swr.wpa.ccProf.serialize() ==
                    fresh_from_a.ccProf.serialize() &&
                swr.wpa.ldProf.serialize() ==
                    fresh_from_a.ldProf.serialize();
        }

        std::printf("%5.0f%% %8u %7.1f%% %7.1f%% %10.0f %10.0f %10.0f "
                    "%9.3f\n",
                    rate * 100.0, pt.drift.total(),
                    pt.match.blockMatchRate() * 100.0,
                    pt.match.weightMatchRate() * 100.0, pt.scoreBaseline,
                    pt.scoreFresh, pt.scoreStale, pt.retention);
        points.push_back(pt);
    }

    const DriftPoint &zero = points[0];
    const DriftPoint &ten = points[2];
    bool zero_gate = zero.match.blockMatchRate() == 1.0 &&
                     zero.match.functionsIdentical ==
                         zero.match.functionsTotal &&
                     zero.match.functionsDropped == 0 && zero.zeroIdentical;
    bool retention_gate = ten.retention >= kRetentionFloor;

    std::printf("\ngates: zero-drift perfect match + byte-identical "
                "artifacts %s; retention at 10%% drift %.3f (need >= "
                "%.2f) %s\n",
                zero_gate ? "PASS" : "FAIL", ten.retention, kRetentionFloor,
                retention_gate ? "PASS" : "FAIL");

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n  \"workload\": \"%s\",\n  \"points\": [\n",
                 cfg.name.c_str());
    for (size_t i = 0; i < points.size(); ++i) {
        const DriftPoint &pt = points[i];
        std::fprintf(out, "    {\n      \"drift_pct\": %.0f,\n",
                     pt.rate * 100.0);
        std::fprintf(out,
                     "      \"mutations\": {\"split\": %u, \"inserted\": "
                     "%u, \"deleted\": %u, \"edited\": %u, "
                     "\"fn_added\": %u, \"fn_removed\": %u},\n",
                     pt.drift.blocksSplit, pt.drift.blocksInserted,
                     pt.drift.blocksDeleted, pt.drift.blocksEdited,
                     pt.drift.functionsAdded, pt.drift.functionsRemoved);
        std::fprintf(
            out,
            "      \"match\": {\"block_rate\": %.6f, \"weight_rate\": "
            "%.6f, \"functions_identical\": %u, \"functions_matched\": "
            "%u, \"functions_dropped\": %u, \"blocks_exact\": %llu, "
            "\"blocks_anchor\": %llu, \"blocks_dropped\": %llu},\n",
            pt.match.blockMatchRate(), pt.match.weightMatchRate(),
            pt.match.functionsIdentical, pt.match.functionsMatched,
            pt.match.functionsDropped,
            static_cast<unsigned long long>(pt.match.blocksExact),
            static_cast<unsigned long long>(pt.match.blocksAnchor),
            static_cast<unsigned long long>(pt.match.blocksDropped));
        std::fprintf(
            out,
            "      \"inference\": {\"functions\": %u, \"nodes_added\": "
            "%llu, \"edges_rerouted\": %llu, \"edges_added\": %llu},\n",
            pt.inference.functionsInferred,
            static_cast<unsigned long long>(pt.inference.nodesAdded),
            static_cast<unsigned long long>(pt.inference.edgesRerouted),
            static_cast<unsigned long long>(pt.inference.edgesAdded));
        std::fprintf(out,
                     "      \"score_baseline\": %.3f,\n      "
                     "\"score_fresh\": %.3f,\n      \"score_stale\": "
                     "%.3f,\n      \"retention\": %.6f\n    }%s\n",
                     pt.scoreBaseline, pt.scoreFresh, pt.scoreStale,
                     pt.retention, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"retention_at_10pct\": %.6f,\n", ten.retention);
    std::fprintf(out, "  \"gate_zero_drift_identical\": %s,\n",
                 zero_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_retention_floor\": %s\n",
                 retention_gate ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    return (zero_gate && retention_gate) ? 0 : 1;
}
