#ifndef PROPELLER_SIM_MACHINE_H
#define PROPELLER_SIM_MACHINE_H

/**
 * @file
 * The machine: functional execution plus a frontend-accurate
 * microarchitecture model with LBR-based hardware profiling.
 *
 * Substitute for an Intel Skylake server running the workload under Linux
 * perf (paper section 3.3 / 5.5).  The machine:
 *
 *  - executes the linked binary instruction by instruction;
 *  - derives conditional branch directions from the layout-invariant
 *    branch ids embedded in the encoding, so two binaries with different
 *    code layouts retire the *identical* logical instruction stream and
 *    their cycle counts are directly comparable;
 *  - models L1i / L2 code caches, the two-level iTLB with optional 2 MiB
 *    huge pages, a gshare+BTB+RAS branch predictor and a DSB-style decoded
 *    uop cache, accumulating the exact counter set of the paper's Table 4.
 *    The model is the frontend only, as in the paper's evaluation: loads
 *    and stores retire without a data-cache access.  Structure sizes and
 *    penalties are fixed constants (sim/machine.cc);
 *  - snapshots a 32-entry LBR ring on a sampling period to produce the
 *    hardware profile consumed by Propeller's Phase 3 and by perf2bolt;
 *  - verifies startup code-integrity checks (the mechanism by which
 *    rewritten-but-not-relinked binaries crash at startup, section 5.8);
 *  - optionally records the Figure 7 instruction-access heat map.
 *
 * One machine loop is instantiated twice.  run() drives the timing model
 * and is the evaluation machine.  collectProfile() drives none: the LBR
 * stream depends only on retired control flow, so profiling skips the
 * caches, iTLB and predictor and still takes byte-identical samples.
 *
 * Both cache decoded instructions by text offset whenever the text fits
 * an offset-indexed table (up to 64 MiB).  The text is immutable for the
 * whole run and decoding is a pure function of the bytes at an offset,
 * so caching cannot change any architectural or modelled behavior — it
 * only stops profile collection from re-decoding the same hot PCs
 * millions of times.  Larger texts decode every instruction.
 */

#include <cstdint>
#include <vector>

#include "linker/executable.h"
#include "profile/profile.h"

namespace propeller::sim {

/** Run options. */
struct MachineOptions
{
    uint64_t seed = 1;

    /** Budget in *logical* instructions (see Counters). */
    uint64_t maxInstructions = 5'000'000;

    bool collectLbr = false;
    uint64_t lbrSamplePeriod = 20'000; ///< Retired insts between samples.

    bool recordHeatMap = false;
    uint32_t heatAddrBuckets = 40;
    uint32_t heatTimeBuckets = 64;
};

/** Hardware performance counters; labels match the paper's Table 4. */
struct Counters
{
    uint64_t instructions = 0;

    /**
     * Instructions excluding unconditional jumps and nops.  Code layout
     * adds or removes exactly those, so the logical count is invariant
     * across layouts of the same program — run budgets and cross-binary
     * comparisons use it.
     */
    uint64_t logicalInstructions = 0;

    uint64_t quarterCycles = 0;

    uint64_t l1iMisses = 0;      ///< I1: L1 i-cache misses causing stalls.
    uint64_t l2CodeMisses = 0;   ///< I2: L2 code read misses.
    uint64_t fetchStallQC = 0;   ///< I3: i-fetch stall quarter-cycles.
    uint64_t itlbMisses = 0;     ///< T1: iTLB (first level) misses.
    uint64_t itlbStallMisses = 0;///< T2: iTLB misses that required a walk.
    uint64_t baclears = 0;       ///< B1: front-end resteers (BTB misses).
    uint64_t takenBranches = 0;  ///< B2: retired taken branches.
    uint64_t dsbMisses = 0;      ///< DSB (uop cache) misses.
    uint64_t dsbAccesses = 0;

    uint64_t condBranches = 0;
    uint64_t condTaken = 0;   ///< Taken conditional branches.
    uint64_t jumpsRetired = 0;///< Unconditional jumps executed.
    uint64_t mispredicts = 0;
    uint64_t calls = 0;
    uint64_t returns = 0;

    uint64_t cycles() const { return quarterCycles / 4; }
};

/** Outcome of one machine run. */
struct RunResult
{
    Counters counters;

    bool startupOk = true; ///< Integrity checks passed.
    bool fault = false;    ///< Decoded an invalid instruction / wild jump.
    uint64_t faultPc = 0;
    bool halted = false;   ///< Reached Halt / final return before budget.

    profile::Profile profile; ///< LBR samples (if collectLbr).

    /** Heat map cells [addrBucket][timeBucket] (if recordHeatMap). */
    std::vector<std::vector<uint64_t>> heatMap;
};

/** Execute @p exe under @p opts with the full timing model. */
RunResult run(const linker::Executable &exe, const MachineOptions &opts);

/**
 * Profile @p exe under @p opts without the timing model: the result is
 * byte-identical to `run(exe, opts).profile`.  Heat maps need run();
 * requesting one here is a caller bug and aborts.
 */
profile::Profile collectProfile(const linker::Executable &exe,
                                const MachineOptions &opts);

} // namespace propeller::sim

#endif // PROPELLER_SIM_MACHINE_H
