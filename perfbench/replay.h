#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

/**
 * @file
 * Layer replays of the traced run.  The op's own Workflow/FleetService
 * call reaches the lower layers internally, where the benchmark cannot
 * time them; a traced op therefore calls each layer's public functions
 * again on the same inputs, single-threaded, as sibling spans under the
 * op.  A layer's `_ms` is thus its work, not its share of a parallel
 * makespan.  Each replay checks that it reproduced the op's artifacts.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "build/workflow.h"
#include "elf/object.h"
#include "ir/ir.h"
#include "linker/executable.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/propeller.h"
#include "sim/machine.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

using namespace propeller;

/** The layout memo keys and input digests a cache image holds. */
struct LayoutMemo
{
    std::set<uint64_t> keys;
    std::set<uint64_t> digests;
};

/** One relink's inputs and outputs, as the replays consume them. */
struct RelinkCase
{
    const ir::Program *program = nullptr;
    const linker::Executable *metadata = nullptr; ///< PM.
    const profile::Profile *profile = nullptr;    ///< WPA profile input.
    const core::WholeProgramDcfg *dcfg = nullptr; ///< Injected DCFG.
    const std::set<std::string> *primed = nullptr; ///< Digest-primed fns.
    const core::WpaResult *wpa = nullptr;          ///< The relink's WPA.
    const std::vector<std::string> *coldObjects = nullptr;
    const std::vector<elf::ObjectFile> *phase2 = nullptr;
    const linker::Executable *shipped = nullptr; ///< PO.
    const linker::Executable *twin = nullptr;    ///< Verification twin.
    std::set<std::string> exempt; ///< Quarantined functions (PV015).
    std::string name;             ///< Output name stem.
    bool hugePages = false;
    uint64_t expectedLayouts = 0; ///< Ext-TSP runs the relink made.
};

/** @p num / @p den, 0 when @p den is 0. */
double ratio(uint64_t num, uint64_t den);

/** Real scheduler counters summed over a relink's task-graph runs. */
struct SchedTotals
{
    uint64_t tasks = 0;
    uint64_t steals = 0;
    uint64_t attempts = 0;

    /** Add the Workflow's most recent task-graph run. */
    void add(const buildsys::Workflow &wf);
};

/**
 * The counters of the relink @p wf made: cache (`build.*`), scheduler
 * (`sched.*`) and the cost model's relink phases (`model.*`).
 * @p relinkS and @p relinkCpu are the relink's wall and CPU seconds;
 * @p image is the cache image it saved.
 */
void countRelink(Trace &trace, uint32_t op, const buildsys::Workflow &wf,
                 const SchedTotals &sched, double relinkS, double relinkCpu,
                 const std::string &image);

/** The replay inputs of the relink @p wf made, Phase 2 objects aside. */
RelinkCase relinkCase(buildsys::Workflow &wf,
                      const std::vector<elf::ObjectFile> &phase2);

/** workload::generate under `workload.generate`. */
void replayGenerate(Trace &trace, uint32_t op, uint32_t parent,
                    const workload::WorkloadConfig &config);

/** Phase 2 backends (every module, with address maps) under
 *  `codegen.compile`; returns the objects in module order. */
std::vector<elf::ObjectFile> replayCompile(Trace &trace, uint32_t op,
                                           uint32_t parent,
                                           const ir::Program &program);

/** One profiling run of @p exe under `sim.profile`. */
void replayProfileRun(Trace &trace, uint32_t op, uint32_t parent,
                      const linker::Executable &exe,
                      const sim::MachineOptions &opts);

/**
 * Profile ingestion of a single-binary profile: wire encode/decode and
 * aggregation (`profile.*`), DCFG construction (`propeller.dcfg`) and an
 * identity stale match (`stale.*`).
 */
void replayIngest(Trace &trace, uint32_t op, uint32_t parent,
                  const profile::Profile &prof,
                  const core::AddrMapIndex &index, uint32_t shardSamples);

/**
 * The relink chain: the core::WpaPipeline stages (`propeller.*`, laying
 * out exactly the functions @p memo misses, as the layout cache does),
 * the Phase 4 recompiles of every module the relink did not serve from
 * the cache (`codegen.recompile`), the PO and verify-twin links
 * (`linker.link`) and the verifier (`analysis.verify`).  Adds the
 * relink's layout keys to @p memo and a line to @p failed for every
 * artifact the replay failed to reproduce.
 */
void replayRelink(Trace &trace, uint32_t op, uint32_t parent,
                  const RelinkCase &c, LayoutMemo &memo,
                  std::vector<std::string> &failed);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
