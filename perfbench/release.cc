/**
 * @file
 * The `release` workload: back-to-back ops, each a fresh
 * buildsys::Workflow over the bigtable-shaped app making a cold weekly
 * release: the relink looks for a cache image and finds none, so every
 * hot function is laid out and every hot module recompiled; the profile
 * has the default LBR period (~470 samples).  Each op deletes the image
 * it saved, so the next op is cold too.
 */

#include <filesystem>

#include "bench.h"
#include "build/workflow.h"
#include "propeller/addr_map_index.h"
#include "replay.h"

namespace perfbench {

namespace {

/** Samples per wire shard (buildsys::BuildLimits::profileShardSamples). */
constexpr uint32_t kShardSamples = 128;

} // namespace

int
runRelease(const Args &args, Report &rep, Trace &trace)
{
    const workload::WorkloadConfig cfg = appConfig(args.seed, args.jobs);
    rep.context["app"] = "bigtable shape, program seed " +
                         std::to_string(cfg.seed);
    rep.context["lbr_period"] = std::to_string(cfg.sampleLbrPeriod);

    const std::string saved = args.workdir + "/release.cache";
    std::filesystem::remove(saved);

    Trace off(false);
    std::vector<uint8_t> firstText;
    double layoutHitFrac = 0.0;
    double budget = 0.0;
    const uint32_t minOps = trace.enabled() ? 4 : 3;
    for (uint32_t op = 0; op < minOps || budget < args.seconds; ++op) {
        // Traced runs alternate untraced and traced ops; the pairs give
        // the tracing overhead.
        const bool traced = trace.enabled() && op % 2 == 1;
        Trace &t = traced ? trace : off;
        std::vector<std::string> failed;
        const uint32_t opSpan = t.open("op", op, 0);

        // A layer replay trims the heap, so the op after it faults its
        // pages back in; trimming before every op starts both alike.
        if (trace.enabled())
            trimHeap();
        resetPeakRss();
        buildsys::Workflow wf(cfg);
        SchedTotals sched;
        const uint32_t stepSpan = t.open("step", op, opSpan);
        Stopwatch setupClock;
        const double cpu0 = cpuNow();
        {
            Scope s(t, "setup", op, stepSpan);
            {
                Scope p(t, "build.program", op, s.id());
                wf.program();
            }
            {
                Scope p(t, "build.baseline", op, s.id());
                wf.baseline();
            }
            {
                Scope p(t, "build.metadata_binary", op, s.id());
                wf.metadataBinary();
            }
            {
                Scope p(t, "build.profile", op, s.id());
                wf.profile();
            }
        }
        const double setupS = setupClock.seconds();

        Stopwatch relinkClock;
        const double cpu1 = cpuNow();
        bool loaded = false;
        bool saveOk = false;
        {
            Scope s(t, "relink", op, stepSpan);
            {
                Scope p(t, "build.cache_load", op, s.id());
                loaded = wf.loadCacheFile(saved);
            }
            {
                Scope p(t, "build.wpa", op, s.id());
                wf.wpa();
            }
            if (traced)
                sched.add(wf);
            {
                Scope p(t, "build.propeller_binary", op, s.id());
                wf.propellerBinary();
            }
            if (traced)
                sched.add(wf);
            {
                Scope p(t, "build.verify", op, s.id());
                wf.verifyReport();
            }
            if (traced)
                sched.add(wf);
            {
                Scope p(t, "build.cache_save", op, s.id());
                saveOk = wf.saveCacheFile(saved);
            }
        }
        const double relinkS = relinkClock.seconds();
        const double relinkCpu = cpuNow() - cpu1;
        t.close(stepSpan);
        budget += setupS + relinkS;
        rep.samples["peak_rss_mb"].push_back(peakRssMb());

        rep.samples["setup_s"].push_back(setupS);
        rep.samples["relink_s"].push_back(relinkS);
        rep.samples["setup_cpu_s"].push_back(cpu1 - cpu0);
        rep.samples["relink_cpu_s"].push_back(relinkCpu);
        rep.samples["epoch_ms"].push_back((setupS + relinkS) * 1e3);
        rep.samples["op_traced"].push_back(traced ? 1.0 : 0.0);

        // ---- Output checks (outside the timed regions) ---------------
        if (loaded)
            failed.push_back("a cold release found a cache image");
        if (!saveOk)
            failed.push_back("saving the cache image failed");
        if (!wf.verifyReport().clean())
            failed.push_back(
                "the verifier reported: " +
                wf.verifyReport().engine.diagnostics().front().render());
        const std::vector<uint8_t> &text = wf.propellerBinary().text;
        if (op == 0)
            firstText = text;
        else if (text != firstText)
            failed.push_back("PO bytes differ from op 0's");
        const buildsys::CacheStats &ls = wf.layoutCacheStats();
        if (ls.hits != 0 || ls.primedHits != 0)
            failed.push_back("a cold release hit the layout cache");
        layoutHitFrac = ratio(ls.hits + ls.primedHits, ls.hits + ls.misses);
        if (op == 0) {
            // The PO is byte-identical across ops, so one simulation
            // checks (and prices) every op's output.
            rep.values["speedup_pct"] =
                simCheck(wf.baseline(), wf.propellerBinary(), cfg, failed);
        }

        if (traced) {
            Stopwatch replayClock;
            replayGenerate(t, op, opSpan, cfg);
            const std::vector<elf::ObjectFile> phase2 =
                replayCompile(t, op, opSpan, wf.program());
            replayProfileRun(t, op, opSpan, wf.metadataBinary(),
                             workload::profileOptions(cfg));
            const core::AddrMapIndex index(wf.metadataBinary());
            replayIngest(t, op, opSpan, wf.profile(), index, kShardSamples);

            RelinkCase c = relinkCase(wf, phase2);
            LayoutMemo memo;
            replayRelink(t, op, opSpan, c, memo, failed);
            countRelink(t, op, wf, sched, relinkS, relinkCpu, saved);
            budget += replayClock.seconds();
        }
        std::filesystem::remove(saved);
        t.close(opSpan);
        rep.finishOp(failed);
    }
    // Every op is one relink, as a service step that relinks would be.
    rep.values["relinks"] = static_cast<double>(rep.ops);
    rep.values["service.layout_hit_frac"] = layoutHitFrac;
    rep.values["measured_s"] = budget;
    return 0;
}

} // namespace perfbench
