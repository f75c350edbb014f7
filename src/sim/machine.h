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
 *    uop cache, accumulating the exact counter set of the paper's Table 4;
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

/**
 * Microarchitecture parameters.
 *
 * Defaults are Skylake structures scaled down by roughly the same factor
 * (~1/4 to 1/16) as the synthetic workloads are scaled from the paper's
 * applications (~1/100 in code size), so cache/TLB pressure relative to
 * hot-code footprint matches the paper's regime.  Skylake-sized values are
 * given in the comments.
 */
struct UarchConfig
{
    // L1 instruction cache: 8 KiB, 8-way, 64 B lines (Skylake: 32 KiB).
    uint32_t l1iSets = 16;
    uint32_t l1iWays = 8;
    // L2 (code side): 256 KiB, 16-way (Skylake: 1 MiB).
    uint32_t l2Sets = 256;
    uint32_t l2Ways = 16;
    // iTLB: 48 x 4 KiB entries 4-way (Skylake: 128 x 8-way);
    // 4 x 2 MiB entries (Skylake: 8).
    uint32_t itlb4kEntries = 48;
    uint32_t itlb4kWays = 4;
    uint32_t itlb2mEntries = 2;
    // STLB: 256 entries, 8-way (Skylake: 1536 x 12-way).
    uint32_t stlbEntries = 256;
    uint32_t stlbWays = 8;
    // Branch prediction (Skylake: ~4K-entry BTB, TAGE-class predictor).
    uint32_t ghistBits = 14; ///< log2 of the direction table.
    uint32_t btbSets = 128;
    uint32_t btbWays = 4;
    uint32_t rasDepth = 32;
    // DSB: 32 B windows, 32 sets, 4 ways (Skylake: ~1.5K uops).
    uint32_t dsbSets = 32;
    uint32_t dsbWays = 4;
    // L1 data cache (only modelled when MachineOptions::modelDataCache is
    // set; the paper's evaluation is frontend-only): 16 KiB, 8-way.
    uint32_t l1dSets = 32;
    uint32_t l1dWays = 8;

    // Timing, in quarter cycles.
    uint32_t baseQuarterCyclesPerInst = 2; ///< Base CPI of 0.5.
    uint32_t l2HitPenalty = 40;            ///< L1i miss, L2 hit: 10 cycles.
    uint32_t memPenalty = 200;             ///< L2 miss: 50 cycles.
    uint32_t stlbHitPenalty = 28;          ///< iTLB miss, STLB hit.
    uint32_t walkPenalty = 120;            ///< Page walk: 30 cycles.
    uint32_t dsbMissPenalty = 4;           ///< Legacy decode path.
    uint32_t mispredictPenalty = 56;       ///< 14 cycles.
    uint32_t baclearPenalty = 20;          ///< Front-end resteer: 5 cycles.
    uint32_t dcacheMissPenalty = 60;       ///< Data miss: 15 cycles.
};

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

    /**
     * Model the data side (loads/stores access an L1d; Prefetch warms
     * it).  Off by default: the paper's evaluation is frontend-bound and
     * the section 3.5 prefetch extension is a separate experiment.
     */
    bool modelDataCache = false;

    /** Collect a PEBS-style load-miss profile (needs modelDataCache). */
    bool collectMissProfile = false;

    /** Record every Nth data-cache miss into the miss profile. */
    uint32_t missSamplePeriod = 8;

    UarchConfig uarch;
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

    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;
    uint64_t prefetchesIssued = 0;
    uint64_t dataStallQC = 0;   ///< Data-miss stall quarter-cycles.

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

    /** Load-site miss samples (if collectMissProfile). */
    profile::MissProfile missProfile;

    /** Heat map cells [addrBucket][timeBucket] (if recordHeatMap). */
    std::vector<std::vector<uint64_t>> heatMap;
};

/** Execute @p exe under @p opts with the full timing model. */
RunResult run(const linker::Executable &exe, const MachineOptions &opts);

/**
 * Profile @p exe under @p opts without the timing model: the result is
 * byte-identical to `run(exe, opts).profile`.  Heat maps and the data
 * side (modelDataCache, collectMissProfile) need run(); requesting them
 * here is a caller bug and aborts.
 */
profile::Profile collectProfile(const linker::Executable &exe,
                                const MachineOptions &opts);

} // namespace propeller::sim

#endif // PROPELLER_SIM_MACHINE_H
