#ifndef PROPELLER_WORKLOAD_WORKLOAD_H
#define PROPELLER_WORKLOAD_WORKLOAD_H

/**
 * @file
 * Synthetic warehouse-scale workload generation.
 *
 * Substitute for the paper's benchmark programs (Table 2): Clang, MySQL,
 * Spanner, Search, Superroot, Bigtable and the SPEC2017 integer suite.
 * Since those applications (and their production traffic) are not
 * available, the generator synthesizes programs whose *structural*
 * characteristics match Table 2 scaled down ~100x: function and basic
 * block counts, the fraction of cold object files, call-graph depth and
 * fanout, loop nests with realistic trip counts, rarely-taken error paths
 * inlined into hot functions (the reason function splitting pays, paper
 * section 4.6), multi-modal functions (section 4.7), hand-written assembly
 * with embedded data, and startup code-integrity checks (section 5.8).
 *
 * The microarchitecture the simulator models is scaled by the same factor
 * (see the uarch constants in sim/machine.cc), so the relative effects
 * the paper reports are preserved.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "sim/machine.h"

namespace propeller::workload {

/** Parameters describing one synthetic benchmark. */
struct WorkloadConfig
{
    std::string name;
    uint64_t seed = 1;

    uint32_t modules = 50;       ///< Translation units (build actions).
    uint32_t functions = 500;    ///< Total functions.
    uint32_t hotFunctions = 40;  ///< Functions that execute under load.

    /** Target fraction of object files containing no hot code. */
    double coldObjectFraction = 0.8;

    /** Basic blocks per function (skewed distribution bounds). */
    uint32_t minBlocks = 3;
    uint32_t maxBlocks = 60;

    /** Probability a region step inside a hot function is a cold path. */
    double coldPathDensity = 0.35;

    /**
     * Staleness of the baseline's instrumented-PGO profile: the fraction
     * of branchy regions whose unlikely side the baseline's block
     * placement fails to sink (source drift between training and
     * deployment, and optimization-pipeline profile mismatch — paper
     * section 2.2).  Propeller's precise late profile recovers these.
     */
    double pgoStaleness = 0.10;

    /** Average hot callees per non-leaf hot function. */
    uint32_t callFanout = 3;

    /** Functions subject to startup integrity checks (0 = none). */
    uint32_t integrityCheckedFunctions = 0;

    /** Hand-written assembly functions (embedded data). */
    uint32_t handAsmFunctions = 0;

    /** Fraction of functions carrying exception landing pads. */
    double ehFraction = 0.05;

    /** Multi-modal functions (two loops, distinct callees; section 4.7). */
    uint32_t multiModalFunctions = 0;

    /** Read-only data bytes per module. */
    uint64_t rodataPerModule = 2048;

    /** Text mapped on huge pages (the paper's Search configuration). */
    bool hugePages = false;

    /**
     * Built on the distributed build system (warehouse-scale apps) rather
     * than a developer workstation (Clang, MySQL, SPEC) — paper section 5.
     */
    bool distributedBuild = false;

    /** Modelled load-test duration for instrumented-PGO training (min). */
    double pgoTrainMinutes = 10.0;

    /** Modelled load-test duration for hardware profiling (minutes). */
    double propTrainMinutes = 10.0;

    /** Instruction budget for evaluation runs. */
    uint64_t evalInstructions = 4'000'000;

    /** Instruction budget for profiling runs. */
    uint64_t profileInstructions = 4'000'000;

    /** LBR sampling period during profiling. */
    uint64_t sampleLbrPeriod = 8'000;

    /**
     * Local worker threads for the parallel pipeline stages (per-module
     * codegen, per-function Ext-TSP).  0 = hardware_concurrency().
     * Results are byte-identical at any value.
     */
    unsigned jobs = 0;

    /** Paper Table 2 values for this benchmark (for the bench printout). */
    std::string paperText;
    std::string paperFuncs;
    std::string paperBlocks;
    std::string paperCold;
};

/** Generate the IR program for @p config (deterministic in the seed). */
ir::Program generate(const WorkloadConfig &config);

/** The six named application benchmarks of Table 2. */
const std::vector<WorkloadConfig> &appConfigs();

/** The SPEC2017 integer-like small benchmarks. */
const std::vector<WorkloadConfig> &specConfigs();

/** Look up any config by name; asserts if unknown. */
const WorkloadConfig &configByName(const std::string &name);

/** Machine options for evaluation runs of @p config. */
sim::MachineOptions evalOptions(const WorkloadConfig &config);

/** Machine options for profiling runs of @p config. */
sim::MachineOptions profileOptions(const WorkloadConfig &config);

// ---------------------------------------------------------------------------
// Synthetic binary drift (paper section 2.2).
//
// In the warehouse-scale release cycle the profile feeding Propeller was
// collected on *last week's* binary.  applyDrift edits a generated program
// the way a week of development would: blocks are split, inserted, deleted
// and edited, functions appear and disappear — while the program stays
// verifier-clean and runnable.  src/stale is evaluated by profiling the
// original program and optimizing the drifted one.

/** Parameters of one synthetic drift episode. */
struct DriftSpec
{
    uint64_t seed = 1;

    /**
     * Drift rate in [0, 1]: the probability that any one basic block is
     * mutated; function additions/removals scale with it.  0 leaves the
     * program untouched.
     */
    double rate = 0.0;
};

/** What a drift episode actually changed. */
struct DriftStats
{
    uint32_t blocksSplit = 0;
    uint32_t blocksInserted = 0;  ///< New blocks placed on existing edges.
    uint32_t blocksDeleted = 0;
    uint32_t blocksEdited = 0;    ///< Instruction-level edits in place.
    uint32_t functionsAdded = 0;
    uint32_t functionsRemoved = 0;

    uint32_t
    total() const
    {
        return blocksSplit + blocksInserted + blocksDeleted + blocksEdited +
               functionsAdded + functionsRemoved;
    }
};

/**
 * Mutate @p program in place at the given drift rate (deterministic in the
 * spec).  The result always passes ir::verify; the entry function and
 * hand-written assembly are left untouched.
 */
DriftStats applyDrift(ir::Program &program, const DriftSpec &spec);

} // namespace propeller::workload

#endif // PROPELLER_WORKLOAD_WORKLOAD_H
