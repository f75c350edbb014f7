/**
 * @file
 * Chaos-hardening gate for the continuous-profiling fleet service: run
 * the deployment loop under a seeded storm of transport and relink
 * faults and check that nothing silently degrades.
 *
 * Scenario A (transport storm): epochs 0-5 drop, duplicate, delay,
 * corrupt and reorder wire shards; the run then drains long enough for
 * every delayed shard to land and every batch gap to cross the lag
 * horizon.  Scenario B (relink blackout): every relink attempt in a
 * two-epoch window crashes, forcing retry exhaustion, quarantine and
 * last-good serving until the window passes.  Scenario C (torn cache):
 * the journaled cache save is crashed at every byte-boundary class and
 * the service restarted over the debris.
 *
 * Emits BENCH_chaos.json and exits nonzero if a gate fails:
 *  - gate_detection_exact: the service's detection counters equal the
 *    chaos schedule's injected ground truth per fault class — losses ==
 *    drops, dedupes == duplicates, rejects == corruptions, late +
 *    expired == delays, inversions == inversions;
 *  - gate_convergence_identical: after the decay window outlives the
 *    chaos epochs, a relink ships bytes identical to a chaos-free twin
 *    (the storm perturbs the transient mix, never the converged one);
 *  - gate_lastgood_stable: during quarantine the served artifact stays
 *    byte-identical to the last verifier-clean generation, the
 *    generation stamp does not advance, and the service reports
 *    degraded mode;
 *  - gate_recovery: once the blackout lifts, the per-epoch re-attempt
 *    ships a verifier-clean artifact, bumps the generation, and clears
 *    degraded mode;
 *  - gate_torn_cache: every crashed save leaves either the previous
 *    good image (which still loads, generation intact) or a detectable
 *    torn image (which cold-starts cleanly) — never a corrupt load;
 *  - zero aborts anywhere (the process exiting through main *is* the
 *    gate: every fault path above is a counted Status path, not a
 *    crash).
 *
 * Usage: bench_chaos [output.json]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "build/journal.h"
#include "build/workflow.h"
#include "common.h"
#include "faultinject/chaos.h"
#include "linker/executable.h"
#include "service/fleet.h"
#include "workload/workload.h"

using namespace propeller;

namespace {

workload::WorkloadConfig
chaosAppConfig()
{
    workload::WorkloadConfig cfg;
    cfg.name = "chaosapp";
    cfg.seed = 2027;
    cfg.modules = 8;
    cfg.functions = 48;
    cfg.hotFunctions = 14;
    cfg.profileInstructions = 200'000;
    cfg.evalInstructions = 200'000;
    cfg.sampleLbrPeriod = 2'000;
    return cfg;
}

fleet::FleetOptions
chaosFleetOptions(const std::string &cache)
{
    fleet::FleetOptions fo;
    fo.base = chaosAppConfig();
    fo.machines = 6;
    fo.versions = 3;
    fo.shardSamples = 8; // Multi-shard batches: drop-able streams.
    fo.cachePath = cache;
    std::remove(cache.c_str());
    return fo;
}

/** Fail every relink attempt while armed. */
class Blackout : public fleet::FleetChaosHooks
{
  public:
    bool armed = false;
    uint64_t failures = 0;

    bool
    failRelink(uint32_t, uint32_t) override
    {
        if (armed)
            ++failures;
        return armed;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_chaos.json";
    bench::printHeader(
        "BENCH chaos", "fleet-service chaos hardening",
        "a warehouse-scale profiling pipeline tolerates lossy, lagging, "
        "corrupting transport and relink crashes: every fault is "
        "detected and attributed, the served binary is always a "
        "verifier-clean generation, and the steady state converges to "
        "the fault-free artifact");

    // --- Scenario A: transport storm, then drain -----------------------
    faultinject::ChaosSpec spec;
    spec.seed = 424242;
    spec.dropRate = 0.12;
    spec.dupRate = 0.10;
    spec.delayRate = 0.15;
    spec.corruptRate = 0.08;
    spec.reorderRate = 0.30;
    spec.maxDelayEpochs = 2;
    spec.chaosStartEpoch = 0;
    spec.chaosEndEpoch = 5;
    faultinject::ChaosSchedule storm(spec);

    fleet::FleetOptions fo = chaosFleetOptions("BENCH_chaos_a.cache");
    const uint32_t drain = spec.maxDelayEpochs + fo.decayWindow;
    const uint32_t epochs = spec.chaosEndEpoch + 1 + drain;
    fleet::FleetService svc(std::move(fo));
    svc.setChaosHooks(&storm);
    svc.run(epochs);

    const faultinject::ChaosStats &inj = storm.stats();
    const fleet::FaultDetection &det = svc.detection();
    std::printf("\ntransport storm (%u chaos epochs + %u drain):\n",
                spec.chaosEndEpoch + 1, drain);
    std::printf("  %-12s %10s %10s\n", "fault class", "injected",
                "detected");
    auto row = [](const char *name, uint64_t injected,
                  uint64_t detected) {
        std::printf("  %-12s %10llu %10llu %s\n", name,
                    static_cast<unsigned long long>(injected),
                    static_cast<unsigned long long>(detected),
                    injected == detected ? "" : "  <-- MISMATCH");
    };
    row("dropped", inj.shardsDropped, det.losses);
    row("duplicated", inj.shardsDuplicated, det.duplicates);
    row("corrupted", inj.shardsCorrupted, det.corrupt);
    row("delayed", inj.shardsDelayed, det.late + det.expired);
    row("inversions", inj.arrivalInversions, det.inversions);
    bool detection_gate =
        inj.shardsSeen > 0 && inj.shardsDropped > 0 &&
        inj.shardsDuplicated > 0 && inj.shardsDelayed > 0 &&
        inj.shardsCorrupted > 0 && det.losses == inj.shardsDropped &&
        det.duplicates == inj.shardsDuplicated &&
        det.corrupt == inj.shardsCorrupted &&
        det.late + det.expired == inj.shardsDelayed &&
        det.inversions == inj.arrivalInversions;

    uint32_t lag_peak = 0;
    for (const fleet::EpochStats &es : svc.history())
        lag_peak = std::max(lag_peak, es.shardLagPeak);
    detection_gate = detection_gate && lag_peak == inj.maxDelayInjected;
    std::printf("  lag peak %u epoch(s), max delay injected %u\n",
                lag_peak, inj.maxDelayInjected);

    // Post-chaos convergence: the drained mix holds only clean epochs,
    // so a relink must ship the chaos-free twin's bytes.
    svc.relinkNow();
    fleet::FleetService twin(chaosFleetOptions("BENCH_chaos_b.cache"));
    twin.run(epochs);
    twin.relinkNow();
    bool convergence_gate =
        svc.shippedBinary().text == twin.shippedBinary().text &&
        svc.shippedBinary().identityHash ==
            twin.shippedBinary().identityHash;
    std::printf("  post-chaos relink byte-identical to chaos-free twin: "
                "%s\n",
                convergence_gate ? "PASS" : "FAIL");

    // --- Scenario B: relink blackout, quarantine, recovery -------------
    fleet::FleetOptions bo = chaosFleetOptions("BENCH_chaos_q.cache");
    bo.driftThreshold = 2.0; // Relinks fire only when forced/pending.
    const uint32_t retries = bo.maxRelinkRetries;
    Blackout blackout;
    fleet::FleetService qsvc(std::move(bo));
    qsvc.setChaosHooks(&blackout);

    qsvc.stepEpoch();
    qsvc.relinkNow(); // Generation 1: the last-good artifact.
    bool lastgood_gate = qsvc.generation() == 1 && !qsvc.degraded() &&
                         qsvc.relinks().back().verifierClean;
    const linker::Executable lastGood = qsvc.shippedBinary();

    blackout.armed = true;
    qsvc.stepEpoch();
    qsvc.relinkNow(); // Exhausts 1 + retries attempts, quarantines.
    const fleet::RelinkRecord &qrec = qsvc.relinks().back();
    lastgood_gate = lastgood_gate && qrec.quarantined &&
                    !qrec.verifierClean &&
                    qrec.attempts == 1 + retries &&
                    qsvc.degraded() && qsvc.generation() == 1 &&
                    qsvc.shippedBinary().text == lastGood.text &&
                    qsvc.shippedBinary().identityHash ==
                        lastGood.identityHash;
    std::printf("\nrelink blackout:\n");
    std::printf("  quarantined after %u failed attempt(s), backoff %.0fs, "
                "serving generation %llu degraded=%d: %s\n",
                qrec.failedAttempts, qrec.backoffSec,
                static_cast<unsigned long long>(qsvc.generation()),
                qsvc.degraded() ? 1 : 0,
                lastgood_gate ? "PASS" : "FAIL");

    // Blackout persists one more epoch: the re-attempt fails again and
    // the last-good keeps serving.
    qsvc.stepEpoch();
    lastgood_gate = lastgood_gate && qsvc.degraded() &&
                    qsvc.generation() == 1 &&
                    qsvc.relinks().back().quarantined &&
                    qsvc.shippedBinary().text == lastGood.text;
    uint32_t recovery_epochs = 1;

    // Lift it: the next epoch's pending re-attempt ships clean.
    blackout.armed = false;
    qsvc.stepEpoch();
    ++recovery_epochs;
    const fleet::RelinkRecord &rrec = qsvc.relinks().back();
    bool recovery_gate = !qsvc.degraded() && qsvc.generation() == 2 &&
                         !rrec.quarantined && rrec.verifierClean &&
                         qsvc.history().back().relinkRetried;
    std::printf("  recovery after blackout lift: generation %llu, "
                "verifier clean, %u epoch(s) degraded: %s\n",
                static_cast<unsigned long long>(qsvc.generation()),
                recovery_epochs, recovery_gate ? "PASS" : "FAIL");

    // --- Scenario C: torn-cache crash sweep -----------------------------
    const std::string cpath = "BENCH_chaos_torn.cache";
    std::remove(cpath.c_str());
    workload::WorkloadConfig ccfg = chaosAppConfig();
    buildsys::Workflow seedwf(ccfg);
    seedwf.propellerBinary();
    bool torn_gate = seedwf.saveCacheFile(cpath, /*generation=*/1);

    std::vector<uint8_t> good;
    torn_gate = torn_gate && buildsys::readFile(cpath, good);
    std::vector<uint8_t> next(buildsys::kJournalHeaderBytes + good.size());
    std::copy(good.begin(), good.end(),
              next.begin() + buildsys::kJournalHeaderBytes);
    buildsys::encodeJournal(2, next);
    uint32_t crash_points = 0;
    if (torn_gate) {
        // Crash the overwrite at every boundary class: mid-header,
        // strided through the payload, mid-footer, and written in full
        // but never renamed.
        std::vector<long> crashes;
        for (size_t b = 0; b <= buildsys::kJournalHeaderBytes; ++b)
            crashes.push_back(static_cast<long>(b));
        for (size_t b = buildsys::kJournalHeaderBytes; b < next.size();
             b += 97)
            crashes.push_back(static_cast<long>(b));
        for (size_t b = next.size() - buildsys::kJournalFooterBytes;
             b <= next.size(); ++b)
            crashes.push_back(static_cast<long>(b));
        for (long crash : crashes) {
            ++crash_points;
            if (buildsys::atomicWriteFile(cpath, next, crash)) {
                torn_gate = false; // A crashed write must report so.
                break;
            }
            buildsys::Workflow survivor(ccfg);
            uint64_t gen = 0;
            if (!survivor.loadCacheFile(cpath, &gen) || gen != 1) {
                torn_gate = false;
                break;
            }
        }
    }
    // A deliberately torn image at the destination cold-starts cleanly.
    if (torn_gate) {
        std::vector<uint8_t> torn(good.begin(),
                                  good.begin() + good.size() / 2);
        torn_gate = buildsys::atomicWriteFile(cpath, torn);
        buildsys::Workflow cold(ccfg);
        uint64_t gen = 77;
        torn_gate = torn_gate && !cold.loadCacheFile(cpath, &gen) &&
                    gen == 77;
        cold.propellerBinary();
        torn_gate = torn_gate && cold.saveCacheFile(cpath, 3);
        buildsys::Workflow reread(ccfg);
        uint64_t gen2 = 0;
        torn_gate = torn_gate && reread.loadCacheFile(cpath, &gen2) &&
                    gen2 == 3;
    }
    std::printf("\ntorn-cache sweep: %u crash point(s), cold-start over "
                "debris: %s\n",
                crash_points, torn_gate ? "PASS" : "FAIL");
    std::remove(cpath.c_str());
    std::remove((cpath + ".tmp").c_str());

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"workload\": \"%s\",\n",
                 chaosAppConfig().name.c_str());
    std::fprintf(out, "  \"chaos_epochs\": %u,\n",
                 spec.chaosEndEpoch + 1);
    std::fprintf(out, "  \"drain_epochs\": %u,\n", drain);
    std::fprintf(out, "  \"shards_seen\": %llu,\n",
                 static_cast<unsigned long long>(inj.shardsSeen));
    std::fprintf(out, "  \"injected_dropped\": %llu,\n",
                 static_cast<unsigned long long>(inj.shardsDropped));
    std::fprintf(out, "  \"detected_losses\": %llu,\n",
                 static_cast<unsigned long long>(det.losses));
    std::fprintf(out, "  \"injected_duplicated\": %llu,\n",
                 static_cast<unsigned long long>(inj.shardsDuplicated));
    std::fprintf(out, "  \"detected_duplicates\": %llu,\n",
                 static_cast<unsigned long long>(det.duplicates));
    std::fprintf(out, "  \"injected_corrupted\": %llu,\n",
                 static_cast<unsigned long long>(inj.shardsCorrupted));
    std::fprintf(out, "  \"detected_corrupt\": %llu,\n",
                 static_cast<unsigned long long>(det.corrupt));
    std::fprintf(out, "  \"injected_delayed\": %llu,\n",
                 static_cast<unsigned long long>(inj.shardsDelayed));
    std::fprintf(out, "  \"detected_late\": %llu,\n",
                 static_cast<unsigned long long>(det.late));
    std::fprintf(out, "  \"detected_expired\": %llu,\n",
                 static_cast<unsigned long long>(det.expired));
    std::fprintf(out, "  \"inversions\": %llu,\n",
                 static_cast<unsigned long long>(det.inversions));
    std::fprintf(out, "  \"lag_peak_epochs\": %u,\n", lag_peak);
    std::fprintf(out, "  \"relink_failures\": %llu,\n",
                 static_cast<unsigned long long>(blackout.failures));
    std::fprintf(out, "  \"degraded_epochs\": %u,\n", recovery_epochs);
    std::fprintf(out, "  \"torn_cache_crash_points\": %u,\n",
                 crash_points);
    std::fprintf(out, "  \"gate_detection_exact\": %s,\n",
                 detection_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_convergence_identical\": %s,\n",
                 convergence_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_lastgood_stable\": %s,\n",
                 lastgood_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_recovery\": %s,\n",
                 recovery_gate ? "true" : "false");
    std::fprintf(out, "  \"gate_torn_cache\": %s\n",
                 torn_gate ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    std::remove("BENCH_chaos_a.cache");
    std::remove("BENCH_chaos_b.cache");
    std::remove("BENCH_chaos_q.cache");

    return (detection_gate && convergence_gate && lastgood_gate &&
            recovery_gate && torn_gate)
               ? 0
               : 1;
}
