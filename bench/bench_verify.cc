/**
 * @file
 * Static-verifier gate: the mutation-tested oracle for the relink
 * pipeline (paper section 2.4 — Propeller's safety argument over binary
 * rewriting, made checkable per binary).
 *
 * Two gates, both required:
 *
 *  - **No false positives.**  A clean end-to-end build must verify with
 *    zero diagnostics (errors, warnings *and* notes) at 1 and at 8
 *    codegen threads, and the verified image's text (the Phase 4 link
 *    with its address maps) must be byte-identical to the shipped PO.
 *
 *  - **No false negatives.**  Every seeded defect class (src/analysis
 *    mutate.h: corrupted branches, addr-map skews, dropped unwind
 *    coverage, bad directives, flow anomalies, ...) injected into the
 *    clean products at several seeds must be caught by exactly the
 *    check id paired with the class — 100% detection, every class
 *    exercised.
 *
 * Emits BENCH_verify.json (per-class detection matrix, for CI and
 * EXPERIMENTS.md) and exits nonzero if any gate fails.
 *
 * Usage: bench_verify [output.json]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/mutate.h"
#include "analysis/verifier.h"
#include "build/workflow.h"
#include "common.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"

using namespace propeller;

namespace {

/** bigtable: mid-size app workload *with* startup integrity checks, so
 *  every defect class (including IntegritySkew) has eligible sites. */
const char *kWorkload = "bigtable";

constexpr uint64_t kSeeds = 3;

struct ClassResult
{
    analysis::DefectClass cls;
    uint32_t injected = 0;
    uint32_t detected = 0;
    std::vector<std::string> sites;
};

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_verify.json";
    bench::printHeader(
        "VERIFY", "whole-binary static verification gate",
        "relinking from compiler metadata is safe; the verifier proves "
        "it per binary (section 2.4)");

    // ---- Gate 1: clean builds verify clean, at 1 and 8 threads ------
    bool clean_gate = true;
    std::printf("\nclean-build verification (must be zero diagnostics):\n");
    std::printf("%8s %6s %9s %9s %12s %7s %7s %6s\n", "workload", "jobs",
                "functions", "ranges", "instructions", "errors",
                "warnings", "notes");
    for (unsigned jobs : {1u, 8u}) {
        workload::WorkloadConfig cfg = workload::configByName(kWorkload);
        cfg.jobs = jobs;
        buildsys::Workflow wf(cfg);
        const analysis::VerifyReport &rep = wf.verifyReport();
        bool ok = rep.clean() && rep.engine.noteCount() == 0 &&
                  wf.verifiedBinary().text == wf.propellerBinary().text;
        clean_gate = clean_gate && ok;
        std::printf("%8s %6u %9u %9u %12llu %7u %7u %6u%s\n", kWorkload,
                    jobs, rep.functionsChecked, rep.rangesDecoded,
                    static_cast<unsigned long long>(
                        rep.instructionsDecoded),
                    rep.engine.errorCount(), rep.engine.warningCount(),
                    rep.engine.noteCount(), ok ? "" : "  FALSE POSITIVE");
        if (!ok)
            std::printf("%s", rep.engine.renderText().c_str());
    }

    // ---- Gate 2: every seeded defect class is detected --------------
    buildsys::Workflow &wf = bench::workflowFor(kWorkload);
    const analysis::VerifyReport &baseline = wf.verifyReport();
    if (!baseline.clean())
        clean_gate = false;
    const linker::Executable &twin = wf.verifiedBinary();
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());

    std::printf("\nmutation matrix (%llu seeds per class, detection "
                "must be 100%%):\n",
                static_cast<unsigned long long>(kSeeds));
    std::printf("%-24s %6s %9s %9s  %s\n", "defect class", "check",
                "injected", "detected", "verdict");

    std::vector<ClassResult> matrix;
    bool detect_gate = true;
    for (size_t c = 0; c < analysis::kDefectClassCount; ++c) {
        ClassResult res;
        res.cls = analysis::allDefectClasses()[c];
        analysis::CheckId want = analysis::expectedCheck(res.cls);
        for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
            linker::Executable exe = twin;
            core::CcProfile cc = wf.wpa().ccProf;
            core::LdProfile ld = wf.wpa().ldProf;
            core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);
            analysis::MutationTarget target{&exe, &cc, &ld, &dcfg};
            std::string desc =
                analysis::injectDefect(res.cls, seed, target);
            if (desc.empty())
                continue; // No eligible site: not an injection.
            ++res.injected;
            res.sites.push_back(desc);

            analysis::VerifyOptions opts;
            opts.expectedOrder = &ld;
            analysis::VerifyReport rep =
                analysis::verifyExecutable(exe, opts);
            rep.merge(analysis::lintDirectives(cc, ld,
                                               wf.metadataBinary(),
                                               opts));
            rep.merge(analysis::lintProfileFlow(dcfg, opts));
            for (const auto &d : rep.engine.diagnostics()) {
                if (d.id == want) {
                    ++res.detected;
                    break;
                }
            }
        }
        // Every class must both find sites and catch every injection.
        bool ok = res.injected == kSeeds && res.detected == res.injected;
        detect_gate = detect_gate && ok;
        std::printf("%-24s %6s %9u %9u  %s\n",
                    analysis::defectName(res.cls),
                    analysis::checkName(want), res.injected, res.detected,
                    ok ? "pass" : "FAIL");
        matrix.push_back(std::move(res));
    }

    std::printf("\ngates: clean builds zero-diagnostic %s; mutation "
                "detection 100%% over %zu classes %s\n",
                clean_gate ? "PASS" : "FAIL", matrix.size(),
                detect_gate ? "PASS" : "FAIL");

    FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::printf("cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out,
                 "{\n  \"workload\": \"%s\",\n  \"seeds\": %llu,\n"
                 "  \"clean_gate\": %s,\n  \"detect_gate\": %s,\n"
                 "  \"classes\": [\n",
                 kWorkload, static_cast<unsigned long long>(kSeeds),
                 clean_gate ? "true" : "false",
                 detect_gate ? "true" : "false");
    for (size_t i = 0; i < matrix.size(); ++i) {
        const ClassResult &res = matrix[i];
        std::fprintf(out,
                     "    {\"class\": \"%s\", \"check\": \"%s\", "
                     "\"injected\": %u, \"detected\": %u}%s\n",
                     analysis::defectName(res.cls),
                     analysis::checkName(analysis::expectedCheck(res.cls)),
                     res.injected, res.detected,
                     i + 1 < matrix.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    return (clean_gate && detect_gate) ? 0 : 1;
}
