#ifndef PROPELLER_ANALYSIS_VERIFIER_H
#define PROPELLER_ANALYSIS_VERIFIER_H

/**
 * @file
 * Post-link static verification of relinked binaries (the correctness
 * closing of the loop for paper section 2.4).
 *
 * Propeller's bet is that relinking from compiler-emitted metadata is
 * safer than BOLT-style binary rewriting — this verifier *proves* it per
 * binary, by turning BOLT's own disassembler into an adversarial
 * checker: independently decode the final text image, reconstruct the
 * machine CFG, and cross-check it against every piece of metadata the
 * pipeline claims to have honored (symbols, .bb_addr_map, v2 successor
 * lists, .eh_frame coverage, startup integrity hashes, and the applied
 * ld_prof ordering).  Pre-link lints validate the Phase 3 directive
 * artifacts (cc_prof / ld_prof) and profile flow conservation before
 * they reach the backends.
 *
 * All findings flow through the DiagnosticEngine with stable PV0xx ids;
 * see DESIGN.md "Static verification" for the catalogue.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "analysis/diagnostics.h"
#include "linker/executable.h"
#include "propeller/dcfg.h"
#include "propeller/directives.h"

namespace propeller::analysis {

/** Knobs for one verification pass. */
struct VerifyOptions
{
    /** Comma-separated check ids to suppress ("PV004,PV011"). */
    std::string suppress;

    bool checkAddrMap = true;   ///< PV006/PV009/PV010 (needs metadata).
    bool checkEhFrame = true;   ///< PV011 (skipped if frames are absent).
    bool checkIntegrity = true; ///< PV012.

    /**
     * When set, PV015 checks that the symbols of this ordering appear at
     * strictly increasing addresses in the image.
     */
    const core::LdProfile *expectedOrder = nullptr;

    /**
     * Functions legitimately degraded upstream (linker overflow
     * quarantine, WPA addr-map quarantine): exempt from PV015 — their
     * sections were deliberately re-laid out at input order.
     */
    std::set<std::string> exemptFunctions;

    /** PV016: flag |in|/|out| imbalance beyond this factor... */
    static constexpr double flowTolerance = 8.0;

    /** ...when the larger side is at least this heavy. */
    static constexpr uint64_t flowMinWeight = 256;
};

/** Outcome of one verification pass. */
struct VerifyReport
{
    DiagnosticEngine engine;

    uint32_t functionsChecked = 0;
    uint32_t rangesDecoded = 0;
    uint32_t handAsmSkipped = 0;
    uint64_t instructionsDecoded = 0;
    uint64_t bytesVerified = 0;

    /** No errors and no warnings. */
    bool clean() const { return engine.clean(); }

    /** Fold @p other's findings and counters into this report. */
    void merge(const VerifyReport &other);
};

/**
 * Disassemble @p exe and cross-check the machine CFG against its
 * metadata (checks PV001-PV012, PV015).
 */
VerifyReport verifyExecutable(const linker::Executable &exe,
                              const VerifyOptions &opts = {});

/**
 * verifyExecutable decomposed into schedulable stages so the task-graph
 * relink engine can spread decoding and every per-range and
 * per-function check over its workers:
 *
 *   ctor             — symbol/entry checks (PV001-PV003) and the
 *                      address-map block index; serial;
 *   decodeRange(r)   — disassemble one range (PV004); thread-safe
 *                      across distinct r;
 *   checkRange(r)    — control-flow checks (PV005/PV007/PV008) for one
 *                      range;
 *   checkAddrMap(m)  — address-map checks (PV006/PV009/PV010) for one
 *                      function's map (Executable::bbAddrMap[m]);
 *   finish()         — eh_frame, integrity and symbol-order checks plus
 *                      the deterministic merge: per-range findings, then
 *                      per-map findings, re-emit in range and map order,
 *                      so the report is byte-identical to
 *                      verifyExecutable at any thread count and in any
 *                      stage order.
 *
 * Every decodeRange must complete before any checkRange or checkAddrMap
 * starts (instruction-boundary queries binary-search the decoded ranges
 * containing an address); the checks are then thread-safe across
 * distinct r and m and may interleave freely, and all of them must
 * complete before finish().
 *
 * @p exe and @p opts must outlive the verifier.
 */
class ExecutableVerifier
{
  public:
    ExecutableVerifier(const linker::Executable &exe,
                       const VerifyOptions &opts);
    ~ExecutableVerifier();
    ExecutableVerifier(const ExecutableVerifier &) = delete;
    ExecutableVerifier &operator=(const ExecutableVerifier &) = delete;

    /** Symbol ranges, sorted by start address. */
    size_t rangeCount() const;

    /** Byte size of range @p r (cost-model input for task sizing). */
    uint64_t rangeBytes(size_t r) const;

    /** Function address maps (Executable::bbAddrMap entries). */
    size_t addrMapCount() const;

    void decodeRange(size_t r);
    void checkRange(size_t r);
    void checkAddrMap(size_t m);
    VerifyReport finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Pre-link lint of the Phase 3 directive artifacts against the metadata
 * binary's block universe (PV013, PV014).  Mirrors exactly what
 * codegen::sanitizeClusterMap accepts, so a lint-clean cc_prof is never
 * quarantined downstream.
 */
VerifyReport lintDirectives(const core::CcProfile &cc,
                            const core::LdProfile &ld,
                            const linker::Executable &metadata_exe,
                            const VerifyOptions &opts = {});

/**
 * Pre-link lint of profile flow conservation over the DCFG (PV016):
 * interior nodes whose in-flow and out-flow disagree beyond
 * VerifyOptions::flowTolerance indicate corrupted or mis-mapped counts.
 */
VerifyReport lintProfileFlow(const core::WholeProgramDcfg &dcfg,
                             const VerifyOptions &opts = {});

} // namespace propeller::analysis

#endif // PROPELLER_ANALYSIS_VERIFIER_H
