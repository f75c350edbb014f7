#include "service/fleet.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <string>

namespace propeller::fleet {

namespace {

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    vsnprintf(buf, sizeof(buf), format, args);
    va_end(args);
    return buf;
}

/** Indent every line of a multi-line block. */
std::string
indent(const std::string &block, const char *prefix)
{
    std::string out;
    size_t pos = 0;
    while (pos < block.size()) {
        size_t eol = block.find('\n', pos);
        if (eol == std::string::npos)
            eol = block.size();
        out += prefix;
        out.append(block, pos, eol - pos);
        out += '\n';
        pos = eol + 1;
    }
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::string
renderStatuszText(const FleetService &service)
{
    const FleetOptions &opts = service.options();
    std::ostringstream os;

    os << "=== fleet statusz: " << opts.base.name << " ===\n";
    os << fmt("machines %u  versions %u  target v%u  epochs run %u\n",
              opts.machines, service.versionCount(),
              service.targetVersion(), service.epochsRun());
    os << fmt("drift threshold %.4f  decay %.3f (window %u)  "
              "release epoch %u\n",
              opts.driftThreshold, opts.decay, opts.decayWindow,
              opts.releaseEpoch);
    os << "cache image: " << opts.cachePath << "\n";
    os << fmt("serving generation %" PRIu64 "%s\n", service.generation(),
              service.degraded() ? "  [DEGRADED: last-good artifact]"
                                 : "");

    const std::vector<EpochStats> &hist = service.history();
    if (!hist.empty()) {
        const EpochStats &last = hist.back();
        os << "\n--- current mix (epoch " << last.epoch << ") ---\n";
        for (const auto &[v, machines] : last.machinesByVersion) {
            uint64_t samples = 0;
            auto it = last.samplesByVersion.find(v);
            if (it != last.samplesByVersion.end())
                samples = it->second;
            os << fmt("  v%u: %u machine(s), %" PRIu64
                      " sample(s) this epoch%s%s\n",
                      v, machines, samples,
                      v == service.targetVersion() ? "  [target]" : "",
                      service.versionRetired(v) ? "  [retired]" : "");
        }
    }

    os << "\n--- drift history ---\n";
    os << "  epoch  shards  rejected  lag-peak   metric  relinked\n";
    for (const EpochStats &es : hist) {
        os << fmt("  %5u  %6u  %8u  %8u  %7.4f  %s%s\n", es.epoch,
                  es.shardsIngested, es.shardsRejected, es.shardLagPeak,
                  es.driftMetric, es.relinked ? "yes" : "no",
                  es.relinkRetried ? " (retry)" : "");
    }
    os << fmt("  threshold crossings: %u\n", service.driftCrossings());

    const FaultDetection &det = service.detection();
    os << "\n--- transport health ---\n";
    os << fmt("  detected: %" PRIu64 " corrupt, %" PRIu64
              " duplicate(s), %" PRIu64 " lost, %" PRIu64
              " late, %" PRIu64 " expired, %" PRIu64
              " inversion(s), %" PRIu64 " relink failure(s)\n",
              det.corrupt, det.duplicates, det.losses, det.late,
              det.expired, det.inversions, det.relinkFailures);
    for (const auto &[m, mh] : service.machineHealth()) {
        os << fmt("  machine %u: %" PRIu64 " ingested, %" PRIu64
                  " dup, %" PRIu64 " lost, %" PRIu64 " corrupt, %" PRIu64
                  " late, %" PRIu64 " expired, lag peak %u\n",
                  m, mh.shardsIngested, mh.duplicates, mh.losses,
                  mh.corrupt, mh.late, mh.expired, mh.lagPeakEpochs);
    }

    os << "\n--- relinks ---\n";
    const std::vector<RelinkRecord> &relinks = service.relinks();
    if (relinks.empty())
        os << "  (none yet)\n";
    for (const RelinkRecord &r : relinks) {
        os << fmt("  epoch %u  metric %.4f  gen %" PRIu64 "%s%s%s\n",
                  r.epoch, r.metric, r.generation,
                  r.forced ? "  [forced]" : "",
                  r.cacheLoaded ? "  [cache image loaded]" : "",
                  r.quarantined ? "  [QUARANTINED]" : "");
        if (r.attempts > 1 || r.failedAttempts > 0) {
            os << fmt("    attempts: %u (%u failed), backoff %.1f s\n",
                      r.attempts, r.failedAttempts, r.backoffSec);
        }
        if (r.quarantined)
            continue;
        os << fmt("    layout tier: %" PRIu64 " hit(s), %" PRIu64
                  " primed hit(s), %" PRIu64 " miss(es)"
                  "  (expected warm >= %" PRIu64 "+%" PRIu64 ")\n",
                  r.layoutHits, r.layoutPrimedHits, r.layoutMisses,
                  r.expectedHits, r.expectedPrimedHits);
        os << fmt("    object tier: %" PRIu64 " hit(s);  primed "
                  "functions: %" PRIu64 ";  verifier clean\n",
                  r.objectHits, r.primedFunctions);
        if (r.schedule.tasksExecuted > 0)
            os << indent(sched::summarizeSchedule(r.schedule), "    ");
    }
    return os.str();
}

std::string
renderStatuszJson(const FleetService &service)
{
    const FleetOptions &opts = service.options();
    std::ostringstream os;

    os << "{\n";
    os << "  \"workload\": \"" << jsonEscape(opts.base.name) << "\",\n";
    os << fmt("  \"machines\": %u,\n", opts.machines);
    os << fmt("  \"versions\": %u,\n", service.versionCount());
    os << fmt("  \"target_version\": %u,\n", service.targetVersion());
    os << fmt("  \"epochs_run\": %u,\n", service.epochsRun());
    os << fmt("  \"drift_threshold\": %.6f,\n", opts.driftThreshold);
    os << fmt("  \"drift_crossings\": %u,\n", service.driftCrossings());
    os << fmt("  \"generation\": %" PRIu64 ",\n", service.generation());
    os << fmt("  \"degraded\": %s,\n",
              service.degraded() ? "true" : "false");

    const FaultDetection &det = service.detection();
    os << fmt("  \"detection\": {\"corrupt\": %" PRIu64
              ", \"duplicates\": %" PRIu64 ", \"losses\": %" PRIu64
              ", \"late\": %" PRIu64 ", \"expired\": %" PRIu64
              ", \"inversions\": %" PRIu64
              ", \"relink_failures\": %" PRIu64 "},\n",
              det.corrupt, det.duplicates, det.losses, det.late,
              det.expired, det.inversions, det.relinkFailures);

    os << "  \"machine_health\": {";
    {
        bool first = true;
        for (const auto &[m, mh] : service.machineHealth()) {
            os << fmt("%s\"%u\": {\"ingested\": %" PRIu64
                      ", \"duplicates\": %" PRIu64 ", \"losses\": %" PRIu64
                      ", \"corrupt\": %" PRIu64 ", \"late\": %" PRIu64
                      ", \"expired\": %" PRIu64 ", \"lag_peak\": %u}",
                      first ? "" : ", ", m, mh.shardsIngested,
                      mh.duplicates, mh.losses, mh.corrupt, mh.late,
                      mh.expired, mh.lagPeakEpochs);
            first = false;
        }
    }
    os << "},\n";

    os << "  \"epochs\": [\n";
    const std::vector<EpochStats> &hist = service.history();
    for (size_t i = 0; i < hist.size(); ++i) {
        const EpochStats &es = hist[i];
        os << "    {";
        os << fmt("\"epoch\": %u, \"shards_ingested\": %u, "
                  "\"shards_rejected\": %u, \"shards_duplicated\": %u, "
                  "\"shards_late\": %u, \"shards_expired\": %u, "
                  "\"shards_lost\": %u, \"arrival_inversions\": %u, "
                  "\"shard_lag_peak\": %u, "
                  "\"drift_metric\": %.6f, "
                  "\"relinked\": %s, \"relink_retried\": %s, ",
                  es.epoch, es.shardsIngested, es.shardsRejected,
                  es.shardsDuplicated, es.shardsLate, es.shardsExpired,
                  es.shardsLost, es.arrivalInversions, es.shardLagPeak,
                  es.driftMetric, es.relinked ? "true" : "false",
                  es.relinkRetried ? "true" : "false");
        os << "\"samples_by_version\": {";
        bool first = true;
        for (const auto &[v, n] : es.samplesByVersion) {
            os << fmt("%s\"%u\": %" PRIu64, first ? "" : ", ", v, n);
            first = false;
        }
        os << "}, \"machines_by_version\": {";
        first = true;
        for (const auto &[v, n] : es.machinesByVersion) {
            os << fmt("%s\"%u\": %u", first ? "" : ", ", v, n);
            first = false;
        }
        os << "}}";
        os << (i + 1 < hist.size() ? ",\n" : "\n");
    }
    os << "  ],\n";

    os << "  \"relinks\": [\n";
    const std::vector<RelinkRecord> &relinks = service.relinks();
    for (size_t i = 0; i < relinks.size(); ++i) {
        const RelinkRecord &r = relinks[i];
        os << "    {";
        os << fmt("\"epoch\": %u, \"metric\": %.6f, \"forced\": %s, "
                  "\"cache_loaded\": %s, \"layout_hits\": %" PRIu64
                  ", \"layout_primed_hits\": %" PRIu64
                  ", \"layout_misses\": %" PRIu64
                  ", \"object_hits\": %" PRIu64
                  ", \"expected_hits\": %" PRIu64
                  ", \"expected_primed_hits\": %" PRIu64
                  ", \"primed_functions\": %" PRIu64
                  ", \"attempts\": %u, \"failed_attempts\": %u"
                  ", \"backoff_sec\": %.3f, \"quarantined\": %s"
                  ", \"verifier_clean\": %s, \"generation\": %" PRIu64
                  ", \"schedule_makespan_sec\": %.6f"
                  ", \"schedule_tasks\": %u}",
                  r.epoch, r.metric, r.forced ? "true" : "false",
                  r.cacheLoaded ? "true" : "false", r.layoutHits,
                  r.layoutPrimedHits, r.layoutMisses, r.objectHits,
                  r.expectedHits, r.expectedPrimedHits,
                  r.primedFunctions, r.attempts, r.failedAttempts,
                  r.backoffSec, r.quarantined ? "true" : "false",
                  r.verifierClean ? "true" : "false", r.generation,
                  r.schedule.makespanSec, r.schedule.tasksExecuted);
        os << (i + 1 < relinks.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

support::Status
writeStatuszFile(const FleetService &service, const std::string &path)
{
    if (path.empty()) {
        return support::makeError(support::ErrorCode::kMalformed,
                                  "statusz output path is empty");
    }
    FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return support::makeError(support::ErrorCode::kUnresolved,
                                  "cannot open statusz output path '" +
                                      path + "' for writing");
    }
    const std::string json = renderStatuszJson(service);
    const size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
    const bool closed = std::fclose(f) == 0;
    if (wrote != json.size() || !closed) {
        return support::makeError(support::ErrorCode::kTruncated,
                                  "short write to statusz output path '" +
                                      path + "'");
    }
    return support::okStatus();
}

} // namespace propeller::fleet
