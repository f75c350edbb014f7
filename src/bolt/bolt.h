#ifndef PROPELLER_BOLT_BOLT_H
#define PROPELLER_BOLT_BOLT_H

/**
 * @file
 * The BOLT-style monolithic post-link optimizer (paper baseline).
 *
 * Pipeline, mirroring llvm-bolt with the paper's evaluation options
 * (-reorder-blocks=cache+ -reorder-functions=hfsort -split-functions
 * -split-all-cold, plus -lite=0 for performance runs):
 *
 *  1. perf2bolt — disassemble the binary, convert raw LBR samples to
 *     per-block counts (Figure 4's comparison point);
 *  2. reconstruct CFGs, reorder blocks with Ext-TSP ("cache+"), split
 *     cold blocks, reorder functions with hfsort;
 *  3. rewrite: emit optimized functions into a new 2 MiB-aligned text
 *     segment, retaining the original .text (the Figure 6 size cost);
 *     functions whose disassembly failed stay in place.
 *
 * The rewriter copies application data verbatim — including startup
 * integrity-check constants it cannot know how to regenerate — which is
 * how rewritten binaries of checked applications crash at startup
 * (section 5.8 / Table 3).
 */

#include <cstdint>

#include "bolt/disassembler.h"
#include "profile/profile.h"
#include "support/memory_meter.h"

namespace propeller::bolt {

/** BOLT options (subset of the paper's evaluation flags). */
struct BoltOptions
{
    /**
     * lite mode: only functions with samples are optimized (Lightning
     * BOLT's memory-saving mode); -lite=0 processes everything.
     */
    bool lite = false;

    /** Align the new text segment to 2 MiB (default; Figure 6 note). */
    bool alignTextTo2M = true;
};

/** Statistics for Figures 4, 5, 6 and 9. */
struct BoltStats
{
    uint64_t convertPeakMemory = 0; ///< perf2bolt modelled peak.
    uint64_t optPeakMemory = 0;     ///< llvm-bolt modelled peak.
    uint32_t functionsProcessed = 0;
    uint32_t functionsSkipped = 0; ///< Disassembly failures / multi-range.
    uint64_t newTextBytes = 0;
    uint64_t disassembledInsts = 0;
};

/** Converted profile: per-(from,to) branch counts plus ranges. */
struct BoltProfile
{
    profile::AggregatedProfile agg;
};

/**
 * perf2bolt: convert a raw LBR profile against @p exe.
 *
 * Requires a full disassembly of the binary to resolve addresses, which
 * is why its memory scales with binary size (Figure 4).
 *
 * @param selective Lightning-BOLT-style selective processing (the
 *        improvement the paper's section 5.1 says would reduce this
 *        step's memory): discover which functions have samples using the
 *        symbol table alone, then disassemble only those.
 */
BoltProfile convertProfile(const linker::Executable &exe,
                           const profile::Profile &prof,
                           BoltStats *stats = nullptr,
                           MemoryMeter *meter = nullptr,
                           bool selective = false);

/** Run the full optimizer and produce the rewritten binary. */
linker::Executable optimize(const linker::Executable &exe,
                            const BoltProfile &profile,
                            const BoltOptions &opts = {},
                            BoltStats *stats = nullptr,
                            MemoryMeter *meter = nullptr);

} // namespace propeller::bolt

#endif // PROPELLER_BOLT_BOLT_H
