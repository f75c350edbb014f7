#include "build/workflow.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_map>

#include "build/journal.h"
#include "linker/linker.h"
#include "sim/machine.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::buildsys {

namespace {

/** Fingerprint one IR instruction into a running hash. */
uint64_t
hashInst(uint64_t h, const ir::Inst &inst)
{
    h = hashCombine(h, static_cast<uint64_t>(inst.kind));
    h = hashCombine(h, inst.reg);
    h = hashCombine(h, inst.imm);
    h = fnv1a(inst.callee, h);
    h = hashCombine(h, inst.trueTarget);
    h = hashCombine(h, inst.falseTarget);
    h = hashCombine(h, inst.bias);
    h = hashCombine(h, inst.branchId);
    h = hashCombine(h, inst.periodic ? 1 : 0);
    h = hashCombine(h, inst.target);
    return h;
}

/** Total IR instructions in a module (the codegen cost driver). */
uint64_t
moduleInsts(const ir::Module &mod)
{
    uint64_t insts = 0;
    for (const auto &fn : mod.functions)
        insts += fn->instCount();
    return insts;
}

/** Modelled peak memory of one backend action. */
uint64_t
codegenActionMemory(uint64_t insts, uint64_t object_bytes)
{
    // Lowering state per instruction plus the in-flight object image.
    return insts * 200 + object_bytes * 3;
}

/**
 * A copy of @p image with its address maps removed, as `objcopy
 * --remove-section .bb_addr_map` would make it: stripping never moves
 * text, so every other field is the image's own.  The maps are moved
 * out of @p image for the copy and back.
 */
linker::Executable
strippedCopy(linker::Executable &image)
{
    std::vector<linker::ExecFuncMap> maps = std::move(image.bbAddrMap);
    image.bbAddrMap.clear();
    linker::Executable copy = image;
    copy.sizes.bbAddrMap = 0;
    image.bbAddrMap = std::move(maps);
    return copy;
}

/**
 * @p stats as the same link with every .bb_addr_map dropped reports
 * them: a map that fails to decode never reaches a stripped link.
 */
linker::LinkStats
strippedStats(linker::LinkStats stats)
{
    stats.addrMapsRejected = 0;
    stats.rejectedAddrMapObjects.clear();
    return stats;
}

} // namespace

// ---- CostModel ------------------------------------------------------

double
CostModel::makespan(const std::vector<double> &costs,
                    uint32_t workers) const
{
    if (costs.empty() || workers == 0)
        return 0.0;
    double total = 0.0;
    double longest = 0.0;
    for (double cost : costs) {
        double with_overhead = cost + actionOverheadSec;
        total += with_overhead;
        longest = std::max(longest, with_overhead);
    }
    return total / static_cast<double>(workers) + longest;
}

// ---- Workflow -------------------------------------------------------

Workflow::Workflow(workload::WorkloadConfig config)
    : config_(std::move(config))
{
    limits_.workers = config_.distributedBuild ? 40 : 8;
}

const ir::Program &
Workflow::program()
{
    if (!program_)
        setProgram(workload::generate(config_));
    return *program_;
}

void
Workflow::setProgram(ir::Program prog)
{
    program_ = std::move(prog);
    moduleHashes_.assign(program_->modules.size(), 0);
    moduleHashed_.assign(program_->modules.size(), 0);
}

uint64_t
Workflow::moduleHash(size_t module_index) const
{
    assert(program_ && "program() must be generated first");
    // Called by module i's codegen action, on a worker thread; one
    // action per module runs at a time, so each slot has one writer.
    if (moduleHashed_[module_index])
        return moduleHashes_[module_index];
    const ir::Module &mod = *program_->modules[module_index];
    uint64_t h = fnv1a(mod.name);
    h = hashCombine(h, mod.rodataBytes);
    for (const auto &fn : mod.functions) {
        h = fnv1a(fn->name, h);
        h = hashCombine(h, fn->isHandAsm ? 1 : 0);
        h = hashCombine(h, fn->hasIntegrityCheck ? 1 : 0);
        for (const auto &bb : fn->blocks) {
            h = hashCombine(h, bb->id);
            h = hashCombine(h, bb->isLandingPad ? 1 : 0);
            for (const auto &inst : bb->insts)
                h = hashInst(h, inst);
        }
    }
    moduleHashes_[module_index] = h;
    moduleHashed_[module_index] = 1;
    return h;
}

uint64_t
Workflow::actionKey(size_t module_index,
                    const codegen::ClusterMap *clusters,
                    bool emit_addr_map) const
{
    const ir::Module &mod = *program_->modules[module_index];
    uint64_t key = moduleHash(module_index);
    key = hashCombine(key, emit_addr_map ? 1 : 0);

    // Only the directives that *apply to this module* enter the
    // fingerprint.  A module none of whose functions have cluster
    // directives keeps its Phase 2 fingerprint — that is the
    // content-cache property Phase 4 relies on.
    if (clusters) {
        for (const auto &fn : mod.functions) {
            auto it = clusters->find(fn->name);
            if (it == clusters->end())
                continue;
            key = fnv1a(fn->name, key);
            key = hashCombine(key, it->second.coldIndex);
            for (const auto &cluster : it->second.clusters) {
                key = hashCombine(key, cluster.size());
                for (uint32_t id : cluster)
                    key = hashCombine(key, id);
            }
        }
    }
    return key;
}

Workflow::ModuleBuild
Workflow::buildModule(size_t i, const codegen::ClusterMap *clusters,
                      elf::ObjectFile &object)
{
    const ir::Module &mod = *program_->modules[i];
    ModuleBuild built;
    built.key = actionKey(i, clusters, true);

    // A hit must survive both the cache's byte-hash check (lookup
    // returns nullptr on mismatch) and structural deserialization;
    // either failure evicts the entry and the action re-executes as a
    // miss.
    if (const std::vector<uint8_t> *bytes = cache_.lookup(built.key)) {
        auto obj = elf::ObjectFile::deserializeChecked(*bytes);
        if (obj.ok()) {
            object = std::move(obj).value();
            built.hit = true;
            return built;
        }
        cache_.evictCorrupt(built.key);
        built.reject = "cache artifact rejected (" + mod.name +
                       "): " + obj.status().toString();
    }

    codegen::Options copts;
    copts.emitAddrMapSection = true;
    if (clusters) {
        copts.bbSections = codegen::BbSectionsMode::Clusters;
        copts.clusters = clusters;
    }
    object = codegen::compileModule(mod, copts);
    built.stored = object.serialize();
    return built;
}

double
Workflow::commitModule(size_t i, ModuleBuild &built, CompileBatch &batch)
{
    if (!built.reject.empty())
        batch.rejects.push_back(std::move(built.reject));
    const elf::ObjectFile &obj = batch.objects[i];
    if (built.hit) {
        batch.cachedNames.push_back(obj.name);
        ++batch.cacheHits;
        return 0.0;
    }
    cache_.put(built.key, std::move(built.stored));

    const ir::Module &mod = *program_->modules[i];
    const uint64_t insts = moduleInsts(mod);
    const double base =
        static_cast<double>(insts) * CostModel::backendSecPerInst;

    // Transient executor failures (injected via hooks) are retried with
    // deterministic exponential backoff; each failed attempt pays the
    // action cost again plus the backoff.  An action that exhausts its
    // budget falls back to the coordinator — the build degrades in
    // makespan, never in output.
    double cost = base;
    if (hooks_) {
        const uint32_t attempts = limits_.maxActionRetries + 1;
        uint32_t attempt = 1;
        while (attempt <= attempts &&
               hooks_->failAction(mod.name, attempt)) {
            cost += base + limits_.retryBackoffSec *
                               static_cast<double>(1u << (attempt - 1));
            ++batch.retries;
            ++attempt;
        }
        if (attempt > attempts) {
            batch.exhausted.push_back(
                "retries exhausted, ran on coordinator: " + mod.name);
            cost += base;
        }
    }
    batch.missCosts.push_back(cost);
    batch.peakActionMemory =
        std::max(batch.peakActionMemory,
                 codegenActionMemory(insts, obj.sizeInBytes()));
    return cost + cost_.actionOverheadSec;
}

Workflow::CompileBatch
Workflow::compileModules(const codegen::ClusterMap *clusters)
{
    const ir::Program &prog = program();
    const size_t n = prog.modules.size();

    CompileBatch batch;
    batch.objects.resize(n);
    batch.corruptionsBefore = cache_.stats().corruptions;

    // Corrupt WPA directives must degrade to per-function fallback, not
    // abort the backend.  Sanitation is a no-op (and the copy identical)
    // on honest input, so zero-fault action fingerprints are unchanged.
    codegen::ClusterMap sanitized;
    if (clusters) {
        sanitized = *clusters;
        batch.dropped = codegen::sanitizeClusterMap(prog, sanitized);
        clusters = &sanitized;
    }

    // Actions build in parallel into per-module slots and commit in
    // module order, so the output is byte-identical at any thread count.
    // Every module has its own action key, so lookups in any order count
    // the same hits, misses and corruptions.
    std::vector<ModuleBuild> built(n);
    sched::parallelFor(config_.jobs, n, [&](size_t i) {
        built[i] = buildModule(i, clusters, batch.objects[i]);
    });
    for (size_t i = 0; i < n; ++i)
        commitModule(i, built[i], batch);

    if (hooks_)
        hooks_->onCachePopulated(cache_);
    return batch;
}

void
Workflow::recordCodegenReport(const std::string &phase,
                              const CompileBatch &batch)
{
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = cost_.makespan(batch.missCosts, limits_.workers);
    report.actions = static_cast<uint32_t>(batch.missCosts.size());
    report.cacheHits = batch.cacheHits;
    report.peakActionMemory = batch.peakActionMemory;
    report.memoryLimitExceeded =
        batch.peakActionMemory > limits_.ramPerAction;
    report.retries = batch.retries;
    report.cacheCorruptions = static_cast<uint32_t>(
        cache_.stats().corruptions - batch.corruptionsBefore);

    // The relink sanitizes per module; sorting restores map order.
    std::vector<std::string> dropped = batch.dropped;
    std::sort(dropped.begin(), dropped.end());
    report.quarantined = static_cast<uint32_t>(dropped.size());
    for (const auto &name : dropped)
        report.failures.push_back("cluster directive dropped: " + name);
    report.failures.insert(report.failures.end(), batch.rejects.begin(),
                           batch.rejects.end());
    report.failures.insert(report.failures.end(), batch.exhausted.begin(),
                           batch.exhausted.end());
    reports_[phase] = std::move(report);
}

PhaseReport
Workflow::makeLinkReport(const std::string &phase,
                         const std::vector<elf::ObjectFile> &objects,
                         const linker::LinkStats &stats,
                         const std::vector<std::string> &cached_names)
    const
{
    std::set<std::string> cached(cached_names.begin(),
                                 cached_names.end());
    double cost = 0.0;
    for (const auto &obj : objects) {
        double bytes = static_cast<double>(obj.sizeInBytes());
        // Cold cache hits stream from the content store; fresh
        // outputs must be gathered from the workers that built them.
        cost += bytes * (cached.count(obj.name)
                             ? CostModel::fetchCachedSecPerByte
                             : CostModel::fetchFreshSecPerByte);
        cost += bytes * CostModel::linkSecPerByte;
    }
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = cost_.makespan({cost}, 1);
    report.actions = 1;
    report.peakActionMemory = stats.peakMemory;
    report.memoryLimitExceeded = stats.peakMemory > limits_.ramPerAction;
    report.quarantined = stats.quarantinedFunctions +
                         stats.addrMapsRejected;
    for (const auto &name : stats.quarantined)
        report.failures.push_back("function quarantined: " + name);
    for (const auto &obj : stats.rejectedAddrMapObjects)
        report.failures.push_back(".bb_addr_map rejected: " + obj);
    return report;
}

linker::Executable
Workflow::linkWithReport(const std::vector<elf::ObjectFile> &objects,
                         const linker::Options &opts,
                         const std::string &phase,
                         const std::vector<std::string> &cached_names)
{
    linker::LinkStats stats;
    linker::Executable exe = linker::link(objects, opts, &stats);
    if (!phase.empty())
        reports_[phase] = makeLinkReport(phase, objects, stats,
                                         cached_names);
    return exe;
}

linker::Options
Workflow::linkOptions()
{
    linker::Options opts;
    opts.outputName = config_.name;
    opts.entrySymbol = program().entryFunction;
    opts.hugePagesText = config_.hugePages;
    return opts;
}

const std::vector<elf::ObjectFile> &
Workflow::phase2Objects()
{
    if (!phase2Objects_) {
        const ir::Program &prog = program();

        // Phase 1 (modelled): build and cache the optimized IR.
        {
            std::vector<double> costs;
            uint64_t peak = 0;
            for (const auto &mod : prog.modules) {
                uint64_t insts = moduleInsts(*mod);
                costs.push_back(static_cast<double>(insts) *
                                CostModel::irGenSecPerInst);
                peak = std::max(peak, insts * 96);
            }
            PhaseReport report;
            report.phase = "phase1";
            report.makespanSec = cost_.makespan(costs, limits_.workers);
            report.actions = static_cast<uint32_t>(prog.modules.size());
            report.peakActionMemory = peak;
            report.memoryLimitExceeded = peak > limits_.ramPerAction;
            reports_["phase1"] = std::move(report);
        }

        // Phase 2: every backend runs (the cache is empty), with BB
        // address map metadata attached.
        CompileBatch batch = compileModules(nullptr);
        recordCodegenReport("phase2.codegen", batch);
        phase2Objects_ = std::move(batch.objects);

        // Fault seam: damage object metadata between codegen and the
        // links — the window where objects sit on distributed storage.
        if (hooks_)
            hooks_->onPhase2Objects(*phase2Objects_);
    }
    return *phase2Objects_;
}

const linker::Executable &
Workflow::baseline()
{
    // One Phase-2 link serves both binaries: the baseline is the
    // metadata binary's stripped copy, which is what a link without the
    // maps would produce.  metadataBinary() records its report.
    if (!baseline_) {
        metadataBinary();
        baseline_ = strippedCopy(*metadataBinary_);
        baseline_->name = config_.name + ".base";
    }
    return *baseline_;
}

const linker::Executable &
Workflow::metadataBinary()
{
    if (!metadataBinary_) {
        linker::Options opts = linkOptions();
        opts.outputName = config_.name + ".pm";
        linker::LinkStats stats;
        metadataBinary_ = linker::link(phase2Objects(), opts, &stats);
        reports_["phase2.link"] =
            makeLinkReport("phase2.link", phase2Objects(), stats, {});
        reports_["baseline.link"] = makeLinkReport(
            "baseline.link", phase2Objects(),
            strippedStats(std::move(stats)), {});
    }
    return *metadataBinary_;
}

const linker::Executable &
Workflow::boltInputBinary()
{
    if (!boltInputBinary_) {
        linker::Options opts = linkOptions();
        opts.outputName = config_.name + ".bm";
        opts.stripAddrMaps = true;
        opts.emitRelocs = true;
        boltInputBinary_ =
            linkWithReport(phase2Objects(), opts, "phase2.link.bm", {});
    }
    return *boltInputBinary_;
}

void
Workflow::overrideProfile(profile::Profile prof)
{
    PROPELLER_CHECK(!profile_,
                    "overrideProfile after the profile was pulled");
    profile_ = std::move(prof);

    // The collection phase never ran; record a zero-cost stand-in so
    // report("phase3.collect") stays well-defined for consumers.
    PhaseReport report;
    report.phase = "phase3.collect";
    report.actions = 1;
    reports_["phase3.collect"] = std::move(report);
}

void
Workflow::overrideProgram(ir::Program prog)
{
    PROPELLER_CHECK(!program_,
                    "overrideProgram after the program was pulled");
    setProgram(std::move(prog));
}

void
Workflow::overrideMetadataBinary(linker::Executable exe)
{
    PROPELLER_CHECK(!metadataBinary_,
                    "overrideMetadataBinary after the metadata binary "
                    "was pulled");
    metadataBinary_ = std::move(exe);
}

void
Workflow::overrideDcfg(core::WholeProgramDcfg dcfg)
{
    PROPELLER_CHECK(!wpa_, "overrideDcfg after the WPA ran");
    dcfgOverride_ = std::move(dcfg);
}

void
Workflow::setLayoutPrimeFunctions(std::set<std::string> functions)
{
    PROPELLER_CHECK(!wpa_,
                    "setLayoutPrimeFunctions after the WPA ran");
    primeFns_ = std::move(functions);
}

bool
Workflow::loadCacheFile(const std::string &path, uint64_t *generation)
{
    std::vector<uint8_t> file;
    if (!readFile(path, file))
        return false;
    // A torn or bit-damaged journal is "no image": the run proceeds
    // cold instead of aborting or half-loading.  Both footers are
    // checked in place; deserialize copies each entry out once.
    std::span<const uint8_t> payload;
    uint64_t gen = 0;
    if (!decodeJournal(file, &gen, &payload))
        return false;
    if (!cache_.deserialize(payload))
        return false;
    if (generation)
        *generation = gen;
    return true;
}

bool
Workflow::saveCacheFile(const std::string &path, uint64_t generation,
                        long crashAtByte) const
{
    // One buffer: the image lands after the journal header's reserved
    // bytes, with capacity for the footer, and is written in one go.
    std::vector<uint8_t> image =
        cache_.serialize(kJournalHeaderBytes, kJournalFooterBytes);
    encodeJournal(generation, image);
    return atomicWriteFile(path, image, crashAtByte);
}

const profile::Profile &
Workflow::profile()
{
    if (!profile_) {
        profile_ = sim::collectProfile(metadataBinary(),
                                       workload::profileOptions(config_));

        PhaseReport report;
        report.phase = "phase3.collect";
        // Profiles come from a timed load test, not a compute action.
        report.makespanSec = config_.propTrainMinutes * 60.0;
        report.actions = 1;
        report.peakActionMemory = profile_->sizeInBytes() + (1u << 20);

        // With hooks attached the profile takes the wire path the real
        // system takes — serialized into shards, exposed to faults,
        // reloaded with per-shard validation.  Corrupt shards are
        // dropped and their samples lost; the analysis degrades
        // gracefully instead of consuming damaged counts.
        if (hooks_) {
            std::vector<std::vector<uint8_t>> shards =
                profile::serializeShards(*profile_,
                                         limits_.profileShardSamples);
            hooks_->onProfileShards(shards);
            profile::ShardLoadStats sstats;
            profile_ = profile::loadShards(shards, &sstats);
            report.quarantined = sstats.shardsRejected;
            if (sstats.shardsRejected > 0)
                report.failures.push_back(
                    "profile shards rejected: " +
                    std::to_string(sstats.shardsRejected) + "/" +
                    std::to_string(sstats.shardsTotal) + " (" +
                    sstats.firstError + ")");
            if (sstats.distinctVersions > 1)
                report.failures.push_back(
                    "profile shards span " +
                    std::to_string(sstats.distinctVersions) +
                    " binary versions; route per-version through the "
                    "stale matcher (fleet serve) instead of merging "
                    "by address");
        }
        reports_["phase3.collect"] = std::move(report);
    }
    return *profile_;
}

void
Workflow::recordWpaReport()
{
    PhaseReport report;
    report.phase = "phase3.wpa";
    report.makespanSec = cost_.makespan(
        {static_cast<double>(wpa_->stats.profileBytes) *
             CostModel::wpaSecPerProfileByte +
         static_cast<double>(wpa_->stats.hotFunctions) *
             CostModel::wpaSecPerHotFunction},
        1);
    report.actions = 1;
    report.peakActionMemory = wpa_->stats.peakMemory;
    report.memoryLimitExceeded =
        wpa_->stats.peakMemory > limits_.ramPerAction;
    report.quarantined = wpa_->stats.quarantined;
    for (const auto &name : wpa_->stats.quarantinedFunctions)
        report.failures.push_back("addr map quarantined: " + name);
    reports_["phase3.wpa"] = std::move(report);
}

const core::WpaResult &
Workflow::wpa()
{
    runRelinkGraph(RelinkStage::Wpa);
    return *wpa_;
}

linker::Options
Workflow::phase4LinkOptions()
{
    // .bb_addr_map stays in: this one link yields both the verification
    // image and, stripped afterwards, the shipped PO.
    linker::Options opts = linkOptions();
    opts.outputName = config_.name + ".po";
    opts.symbolOrder = wpa_->ldProf.symbolOrder;
    return opts;
}

void
Workflow::commitPhase4Link(linker::Executable image,
                           linker::LinkStats stats,
                           const std::vector<elf::ObjectFile> &objects,
                           const std::vector<std::string> &cached_names)
{
    // The shipped PO carries no .bb_addr_map, so a map that fails to
    // decode only thins the verification image's metadata; it never
    // reached the PO's link report and must not start to.
    stats = strippedStats(std::move(stats));
    reports_["phase4.link"] =
        makeLinkReport("phase4.link", objects, stats, cached_names);
    poQuarantined_ = std::move(stats.quarantined);

    propellerBinary_ = strippedCopy(image);
    image.name = config_.name + ".po-verify";
    verifiedBinary_ = std::move(image);
}

const linker::Executable &
Workflow::propellerBinary()
{
    runRelinkGraph(RelinkStage::Link);
    return *propellerBinary_;
}

void
Workflow::recordVerifyReport(const std::string &phase,
                             const analysis::VerifyReport &rep)
{
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = cost_.makespan(
        {static_cast<double>(rep.bytesVerified) * CostModel::verifySecPerByte},
        1);
    report.actions = 1;
    // Decoded instruction stream plus the per-range bookkeeping.
    report.peakActionMemory =
        rep.instructionsDecoded * 56 + rep.rangesDecoded * 96;
    report.memoryLimitExceeded =
        report.peakActionMemory > limits_.ramPerAction;
    report.quarantined =
        static_cast<uint32_t>(rep.engine.affectedFunctions().size());
    for (const auto &diag : rep.engine.diagnostics())
        report.failures.push_back(diag.render());
    reports_[phase] = std::move(report);
}

analysis::VerifyOptions
Workflow::verifyOptions() const
{
    analysis::VerifyOptions vopts;
    vopts.expectedOrder = &wpa_->ldProf;
    // Functions deliberately degraded upstream sit at input order, not
    // profile order; exempting them keeps PV015 about real link bugs.
    vopts.exemptFunctions.insert(wpa_->stats.quarantinedFunctions.begin(),
                                 wpa_->stats.quarantinedFunctions.end());
    vopts.exemptFunctions.insert(poQuarantined_.begin(),
                                 poQuarantined_.end());
    return vopts;
}

void
Workflow::commitVerify(analysis::VerifyReport rep,
                       const analysis::VerifyOptions &vopts)
{
    // Stripping only drops metadata, so the verified image's text is the
    // shipped text: every machine-code finding is about the shipped bits.
    PROPELLER_CHECK(verifiedBinary_->text == propellerBinary_->text,
                    "verified image text diverged from PO");
    rep.merge(analysis::lintDirectives(wpa_->ccProf, wpa_->ldProf,
                                       metadataBinary(), vopts));
    rep.merge(analysis::lintProfileFlow(*profileDcfg_, vopts));
    profileDcfg_.reset();
    recordVerifyReport("phase5.verify", rep);
    verify_ = std::move(rep);
}

void
Workflow::runRelinkGraph(RelinkStage target)
{
    const bool need_wpa = !wpa_;
    const bool need_link =
        target != RelinkStage::Wpa && !propellerBinary_;
    const bool need_verify = target == RelinkStage::Verify && !verify_;
    if (!need_wpa && !need_link && !need_verify)
        return;

    // Serial upstream phases (memoized; not part of the relink graph).
    const linker::Executable &pm = metadataBinary();
    const profile::Profile &prof = profile();
    const ir::Program &prog = program();
    const size_t nmod = prog.modules.size();

    sched::TaskGraph graph;

    // ---- Phase 3: staged profile ingestion + per-function layout --------
    //
    // Ingestion runs as first-class graph tasks (prepare -> aggregation
    // shards -> merge; prepare -> index; -> map setup -> resolution
    // shards -> apply), so decoding the profile overlaps whatever else
    // the graph holds.  The per-function fan-out's *shape* depends on
    // the DCFG the apply task produces, so the apply task adds the
    // layout tasks dynamically — listing itself as their dependency so
    // none is released until all successor edges are wired — and every
    // codegen task takes a static edge from it.
    std::optional<core::WpaPipeline> pipe;
    std::vector<core::FunctionLayout> slots;
    std::vector<codegen::ClusterSpec> specs;
    core::LdProfile order;
    std::unordered_map<std::string, size_t> dcfgIndex;
    std::vector<sched::TaskId> layoutTask;
    sched::TaskId applyTask = sched::kInvalidTask;
    sched::TaskId orderTask = sched::kInvalidTask;
    sched::TaskId mergeTask = sched::kInvalidTask;
    const bool use_slots = need_wpa;
    std::vector<sched::TaskId> codegenTask;
    const uint64_t opts_fp =
        core::layoutOptionsFingerprint(core::LayoutOptions{});

    if (need_wpa) {
        pipe.emplace(pm, prof, core::LayoutOptions{}, config_.jobs);
        if (dcfgOverride_) {
            pipe->overrideDcfg(std::move(*dcfgOverride_));
            dcfgOverride_.reset();
        }

        // The modelled profile-conversion cost, split across the
        // ingestion stages in proportion to their real work so the
        // stage sum matches the phase3.wpa report's single formula.  The
        // shard counts are pure functions of the profile and the
        // worker count, never of the schedule.
        const size_t agg_shards = profile::aggregationShardCount(prof);
        const size_t resolve_shards =
            std::max<size_t>(1, limits_.workers * 4);
        const double dcfg_cost =
            static_cast<double>(prof.sizeInBytes()) *
            CostModel::wpaSecPerProfileByte;

        sched::TaskId prepareTask = graph.add(
            [&] { pipe->prepare(); },
            {"dcfg.prepare", "phase3.wpa", 0.0});

        std::vector<sched::TaskId> aggTask(agg_shards);
        for (size_t s = 0; s < agg_shards; ++s) {
            aggTask[s] = graph.add(
                [&, s] { pipe->aggregateShard(s); },
                {"agg#" + std::to_string(s), "phase3.wpa",
                 dcfg_cost * 0.002 / static_cast<double>(agg_shards)});
            graph.addEdge(prepareTask, aggTask[s]);
        }

        sched::TaskId aggMergeTask = graph.add(
            [&] { pipe->mergeAggregation(); },
            {"agg.merge", "phase3.wpa", 0.0});
        for (size_t s = 0; s < agg_shards; ++s)
            graph.addEdge(aggTask[s], aggMergeTask);

        sched::TaskId indexTask = graph.add(
            [&] { pipe->buildIndex(); },
            {"addrmap.index", "phase3.wpa", dcfg_cost * 0.010});
        graph.addEdge(prepareTask, indexTask);

        sched::TaskId mapSetupTask = graph.add(
            [&] { pipe->beginMapping(); },
            {"map.setup", "phase3.wpa", 0.0});
        graph.addEdge(aggMergeTask, mapSetupTask);
        graph.addEdge(indexTask, mapSetupTask);

        std::vector<sched::TaskId> resolveTask(resolve_shards);
        for (size_t k = 0; k < resolve_shards; ++k) {
            resolveTask[k] = graph.add(
                [&, k, resolve_shards] {
                    pipe->resolveShard(k, resolve_shards);
                },
                {"resolve#" + std::to_string(k), "phase3.wpa",
                 dcfg_cost * 0.983 /
                     static_cast<double>(resolve_shards)});
            graph.addEdge(mapSetupTask, resolveTask[k]);
        }

        orderTask = graph.add(
            [&] {
                graph.setCost(
                    orderTask,
                    CostModel::wpaSecPerHotFunction *
                        static_cast<double>(pipe->functionCount()) *
                        0.1);
                order = pipe->globalOrder();
            },
            {"order", "phase3.wpa", 0.0});

        mergeTask = graph.add(
            [&] { wpa_ = pipe->finish(std::move(slots),
                                      std::move(order)); },
            {"wpa.merge", "phase3.wpa", 0.0});
        graph.addEdge(orderTask, mergeTask);

        applyTask = graph.add(
            [&] {
                pipe->applyDcfg();
                const size_t nfn = pipe->functionCount();
                slots.resize(nfn);
                specs.resize(nfn);
                layoutTask.resize(nfn);

                uint64_t total_nodes = 0;
                for (size_t f = 0; f < nfn; ++f) {
                    const core::FunctionDcfg &fn =
                        pipe->dcfg().functions[f];
                    dcfgIndex.emplace(fn.function, f);
                    total_nodes += fn.nodes.size();
                }

                for (size_t f = 0; f < nfn; ++f) {
                    const core::FunctionDcfg &fn =
                        pipe->dcfg().functions[f];
                    double share =
                        total_nodes == 0
                            ? 0.0
                            : static_cast<double>(fn.nodes.size()) /
                                  static_cast<double>(total_nodes);
                    // The memo key: the function's CFG hash + profile
                    // counts (layoutFingerprint) and the layout
                    // options.  A warm hit decodes the cached layout —
                    // byte-identical to recomputing it — and re-costs
                    // the task as a cache fetch; a decode failure
                    // evicts and recomputes.
                    layoutTask[f] = graph.add(
                        [&, f] {
                            const uint64_t key = hashCombine(
                                pipe->layoutFingerprint(f), opts_fp);
                            const uint64_t digest = hashCombine(
                                pipe->layoutInputDigest(f), opts_fp);
                            bool hit = false;
                            if (const std::vector<uint8_t> *bytes =
                                    cache_.lookupLayout(key)) {
                                core::FunctionLayout fl;
                                if (core::decodeFunctionLayout(*bytes,
                                                               fl)) {
                                    graph.setCost(
                                        layoutTask[f],
                                        static_cast<double>(
                                            bytes->size()) *
                                            cost_
                                                .fetchCachedSecPerByte);
                                    // Codegen tasks read the spec while
                                    // the merge task consumes the slot,
                                    // so the spec gets stable storage of
                                    // its own before either successor is
                                    // released.
                                    specs[f] = fl.spec;
                                    slots[f] = std::move(fl);
                                    hit = true;
                                } else {
                                    cache_.evictCorruptLayout(key);
                                }
                            }
                            // Primed fallback: the exact memo key
                            // changed (code drift), but the stale
                            // matcher vouched for this function and an
                            // entry with identical *layout inputs*
                            // exists — reuse it and re-home it under
                            // the new key so the next run hits
                            // primary.
                            if (!hit &&
                                primeFns_.count(pipe->dcfg()
                                                    .functions[f]
                                                    .function) != 0) {
                                const std::vector<uint8_t> *bytes =
                                    cache_.lookupLayoutPrimed(digest);
                                core::FunctionLayout fl;
                                if (bytes != nullptr &&
                                    core::decodeFunctionLayout(*bytes,
                                                               fl)) {
                                    graph.setCost(
                                        layoutTask[f],
                                        static_cast<double>(
                                            bytes->size()) *
                                            cost_
                                                .fetchCachedSecPerByte);
                                    std::vector<uint8_t> copy = *bytes;
                                    cache_.putLayout(key,
                                                     std::move(copy),
                                                     digest);
                                    specs[f] = fl.spec;
                                    slots[f] = std::move(fl);
                                    hit = true;
                                }
                            }
                            if (!hit) {
                                core::FunctionLayout fl =
                                    pipe->layoutFunction(f);
                                cache_.putLayout(
                                    key,
                                    core::encodeFunctionLayout(fl),
                                    digest);
                                specs[f] = fl.spec;
                                slots[f] = std::move(fl);
                            }
                        },
                        {"layout:" + fn.function, "phase3.wpa",
                         CostModel::wpaSecPerHotFunction *
                             static_cast<double>(nfn) * share},
                        {applyTask});
                    graph.addEdge(layoutTask[f], mergeTask);
                }

                // The tentpole edges: a module's backend re-runs the
                // moment its last sampled function's layout lands.
                // Wired here — the tasks exist only now — while every
                // codegen task is still held by its static edge from
                // this task.
                for (size_t i = 0; i < codegenTask.size(); ++i) {
                    for (const auto &fn : prog.modules[i]->functions) {
                        auto it = dcfgIndex.find(fn->name);
                        if (it != dcfgIndex.end())
                            graph.addEdge(layoutTask[it->second],
                                          codegenTask[i]);
                    }
                }
            },
            {"dcfg.apply", "phase3.wpa", dcfg_cost * 0.005});
        for (size_t k = 0; k < resolve_shards; ++k)
            graph.addEdge(resolveTask[k], applyTask);
        graph.addEdge(applyTask, orderTask);
    }

    // ---- Phase 4: per-module codegen + the link -------------------------
    CompileBatch batch;
    std::vector<char> isHit;
    sched::OrderedSink sink;
    std::vector<sched::TaskId> assembleTask;
    sched::TaskId poLink = sched::kInvalidTask;

    if (need_link) {
        batch.objects.resize(nmod);
        batch.corruptionsBefore = cache_.stats().corruptions;
        isHit.assign(nmod, 0);
        codegenTask.resize(nmod);
        assembleTask.resize(nmod);

        for (size_t i = 0; i < nmod; ++i) {
            codegenTask[i] = graph.add(
                [&, i] {
                    // This module's restriction of the cluster map.
                    // Sanitation validates entries independently, so the
                    // sanitized restriction equals the restriction of
                    // the sanitized full map, and the action key (which
                    // reads only the module's own entries) is the one
                    // compileModules() would compute.
                    codegen::ClusterMap submap;
                    if (use_slots) {
                        for (const auto &fn : prog.modules[i]->functions) {
                            auto it = dcfgIndex.find(fn->name);
                            if (it != dcfgIndex.end())
                                submap.emplace(fn->name,
                                               specs[it->second]);
                        }
                    } else {
                        const codegen::ClusterMap &full =
                            wpa_->ccProf.clusters;
                        for (const auto &fn : prog.modules[i]->functions) {
                            auto it = full.find(fn->name);
                            if (it != full.end())
                                submap.emplace(fn->name, it->second);
                        }
                    }
                    std::vector<std::string> dropped =
                        codegen::sanitizeClusterMap(prog, submap);
                    ModuleBuild built =
                        buildModule(i, &submap, batch.objects[i]);
                    isHit[i] = built.hit ? 1 : 0;

                    // Order-sensitive side effects (cache population,
                    // retry accounting, failure attribution, cost-model
                    // inputs) commit in module order regardless of
                    // which worker finished first.
                    sink.submit(i, [&, i, dropped = std::move(dropped),
                                    built = std::move(built)]() mutable {
                        batch.dropped.insert(batch.dropped.end(),
                                             dropped.begin(), dropped.end());
                        graph.setCost(codegenTask[i],
                                      commitModule(i, built, batch));
                    });
                },
                {"codegen:" + prog.modules[i]->name, "phase4.codegen",
                 0.0});

            // When this run computes WPA, every codegen task waits for
            // the DCFG apply task: its submap reads dcfgIndex/specs,
            // whose contents exist only after apply.  The apply task
            // also wires the fine-grained layout -> codegen release
            // edges (the tentpole: a module's backend re-runs the
            // moment its last sampled function's layout lands), so a
            // module starts as soon as those land — never behind
            // unrelated functions' layouts.
            if (need_wpa)
                graph.addEdge(applyTask, codegenTask[i]);
        }

        for (size_t i = 0; i < nmod; ++i) {
            assembleTask[i] = graph.add(
                [&, i] {
                    // Modelled cost only: this task does no work.  It
                    // prices fetching the object (a cache hit is
                    // cheaper) and its per-byte share of the link, as
                    // a linker that streams objects in would pay it.
                    // The whole real link runs in link:po below.
                    graph.setCost(
                        assembleTask[i],
                        static_cast<double>(
                            batch.objects[i].sizeInBytes()) *
                            ((isHit[i] ? CostModel::fetchCachedSecPerByte
                                       : CostModel::fetchFreshSecPerByte) +
                             CostModel::linkSecPerByte));
                },
                {"assemble:" + prog.modules[i]->name, "phase4.link",
                 0.0});
            graph.addEdge(codegenTask[i], assembleTask[i]);
        }

        poLink = graph.add(
            [&] {
                // The hook point compileModules() fires after a batch
                // stores its outputs: every codegen commit has run by
                // now (this task depends on all of them).
                if (hooks_)
                    hooks_->onCachePopulated(cache_);
                // Committed here, not in the coordinator finalize: the
                // verify tasks read the image and its quarantine list.
                linker::LinkStats stats;
                linker::Executable image = linker::link(
                    batch.objects, phase4LinkOptions(), &stats);
                commitPhase4Link(std::move(image), std::move(stats),
                                 batch.objects, batch.cachedNames);
            },
            {"link:po", "phase4.link", cost_.actionOverheadSec});
        for (size_t i = 0; i < nmod; ++i)
            graph.addEdge(assembleTask[i], poLink);
        if (mergeTask != sched::kInvalidTask)
            graph.addEdge(mergeTask, poLink);
    }

    // ---- Phase 5: per-range and per-function verification -------------
    analysis::VerifyOptions vopts;
    std::unique_ptr<analysis::ExecutableVerifier> verifier;
    std::optional<analysis::VerifyReport> vrep;
    const size_t chunks = std::max<size_t>(1, limits_.workers * 2);
    std::vector<sched::TaskId> decodeTask;
    std::vector<sched::TaskId> checkTask;

    if (need_verify) {
        sched::TaskId setupTask = graph.add(
            [&] {
                // PV001-PV003 run in the ctor; ranges come after.
                verifier = std::make_unique<analysis::ExecutableVerifier>(
                    *verifiedBinary_, vopts);
            },
            {"verify.setup", "phase5.verify", 0.0});
        if (need_link)
            graph.addEdge(poLink, setupTask);

        decodeTask.resize(chunks);
        checkTask.resize(chunks);
        for (size_t c = 0; c < chunks; ++c) {
            decodeTask[c] = graph.add(
                [&, c] {
                    size_t nr = verifier->rangeCount();
                    uint64_t bytes = 0;
                    for (size_t r = c * nr / chunks;
                         r < (c + 1) * nr / chunks; ++r) {
                        verifier->decodeRange(r);
                        bytes += verifier->rangeBytes(r);
                    }
                    graph.setCost(decodeTask[c],
                                  static_cast<double>(bytes) *
                                      CostModel::verifySecPerByte * 0.7);
                },
                {"decode#" + std::to_string(c), "phase5.verify", 0.0});
            graph.addEdge(setupTask, decodeTask[c]);
        }

        // A check reads other ranges' decoded instructions (branch
        // targets, block boundaries), so every check chunk waits for
        // every decode chunk.  Each chunk checks its share of the
        // ranges and of the per-function address maps.
        for (size_t c = 0; c < chunks; ++c) {
            checkTask[c] = graph.add(
                [&, c] {
                    size_t nr = verifier->rangeCount();
                    uint64_t bytes = 0;
                    for (size_t r = c * nr / chunks;
                         r < (c + 1) * nr / chunks; ++r) {
                        verifier->checkRange(r);
                        bytes += verifier->rangeBytes(r);
                    }
                    size_t nm = verifier->addrMapCount();
                    for (size_t m = c * nm / chunks;
                         m < (c + 1) * nm / chunks; ++m)
                        verifier->checkAddrMap(m);
                    graph.setCost(checkTask[c],
                                  static_cast<double>(bytes) *
                                      CostModel::verifySecPerByte * 0.3);
                },
                {"check#" + std::to_string(c), "phase5.verify", 0.0});
            for (size_t d = 0; d < chunks; ++d)
                graph.addEdge(decodeTask[d], checkTask[c]);
        }

        sched::TaskId finishTask = graph.add(
            [&] {
                // The symbol-order check reads the applied order and
                // every upstream quarantine decision, including the
                // just-run link's overflow quarantine.
                vopts = verifyOptions();
                vrep = verifier->finish();
            },
            {"verify.finish", "phase5.verify", 0.0});
        for (size_t c = 0; c < chunks; ++c)
            graph.addEdge(checkTask[c], finishTask);
    }

    // ---- Execute --------------------------------------------------------
    sched::SchedulerOptions sopts;
    sopts.threads = config_.jobs;
    sopts.modelWorkers = limits_.workers;
    sched::ScheduleReport sreport = sched::Scheduler(sopts).run(graph);

    // ---- Coordinator finalize: memoize + per-phase reports --------------
    //
    // Each classic PhaseReport models its phase alone (the formulas
    // compileModules() and the serial links use), so their sum is what
    // the relink would take with a barrier between phases; the graph's
    // overlap story lives in relinkSchedule() and "relink.graph".
    schedule_ = std::move(sreport);
    {
        PhaseReport report;
        report.phase = "relink.graph";
        report.makespanSec = schedule_->makespanSec;
        report.actions = schedule_->tasksExecuted;
        reports_["relink.graph"] = std::move(report);
    }

    if (need_wpa) {
        recordWpaReport();
        profileDcfg_ = pipe->takeProfileDcfg();
    }

    if (need_link) {
        recordCodegenReport("phase4.codegen", batch);
        coldObjects_ = batch.cachedNames;
        phase4Objects_ = std::move(batch.objects);
    }

    if (need_verify)
        commitVerify(std::move(*vrep), vopts);
}

const analysis::VerifyReport &
Workflow::verifyReport()
{
    runRelinkGraph(RelinkStage::Verify);
    return *verify_;
}

const linker::Executable &
Workflow::verifiedBinary()
{
    runRelinkGraph(RelinkStage::Link);
    return *verifiedBinary_;
}

const std::vector<std::string> &
Workflow::coldObjects()
{
    runRelinkGraph(RelinkStage::Link);
    return coldObjects_;
}

const std::vector<elf::ObjectFile> &
Workflow::phase4Objects()
{
    runRelinkGraph(RelinkStage::Link);
    return *phase4Objects_;
}

linker::Executable
Workflow::propellerBinaryWith(const core::LayoutOptions &opts,
                              core::WpaResult *wpa_out)
{
    core::WpaResult result = core::runWholeProgramAnalysis(
        metadataBinary(), profile(), opts, config_.jobs);

    // A Phase-4-style rebuild that shares the content cache but leaves
    // the canonical pipeline's reports untouched.
    CompileBatch batch = compileModules(&result.ccProf.clusters);
    linker::Options lopts = linkOptions();
    lopts.outputName = config_.name + ".po-ablation";
    lopts.symbolOrder = result.ldProf.symbolOrder;
    lopts.stripAddrMaps = true;
    linker::Executable exe =
        linkWithReport(batch.objects, lopts, "", batch.cachedNames);
    if (wpa_out)
        *wpa_out = std::move(result);
    return exe;
}

linker::Executable
Workflow::iterativePropellerBinary()
{
    if (iterative_)
        return *iterative_;
    runRelinkGraph(RelinkStage::Link);

    // Round 2 metadata binary: the Phase 4 link image, maps kept.
    linker::Executable pm2 = *verifiedBinary_;
    pm2.name = config_.name + ".pm2";

    profile::Profile prof2 =
        sim::collectProfile(pm2, workload::profileOptions(config_));
    core::WpaResult wpa2 = core::runWholeProgramAnalysis(
        pm2, prof2, core::LayoutOptions{}, config_.jobs);

    CompileBatch batch = compileModules(&wpa2.ccProf.clusters);
    linker::Options po2_opts = linkOptions();
    po2_opts.outputName = config_.name + ".po2";
    po2_opts.symbolOrder = wpa2.ldProf.symbolOrder;
    po2_opts.stripAddrMaps = true;
    iterative_ =
        linkWithReport(batch.objects, po2_opts, "", batch.cachedNames);
    return *iterative_;
}

linker::Executable
Workflow::boltBinary(const bolt::BoltOptions &opts, bolt::BoltStats *stats)
{
    bolt::BoltStats local;
    bolt::BoltProfile bolt_profile = bolt::convertProfile(
        boltInputBinary(), profile(), &local, nullptr, opts.lite);
    linker::Executable exe =
        bolt::optimize(boltInputBinary(), bolt_profile, opts, &local);

    {
        PhaseReport report;
        report.phase = "bolt.convert";
        report.makespanSec = cost_.makespan(
            {static_cast<double>(profile().sizeInBytes()) *
                 CostModel::wpaSecPerProfileByte +
             static_cast<double>(local.disassembledInsts) *
                 CostModel::boltSecPerInst * 0.4},
            1);
        report.actions = 1;
        report.peakActionMemory = local.convertPeakMemory;
        report.memoryLimitExceeded =
            local.convertPeakMemory > limits_.ramPerAction;
        reports_["bolt.convert"] = std::move(report);
    }
    {
        PhaseReport report;
        report.phase = "bolt.opt";
        // One monolithic action: disassemble, reorder and rewrite the
        // whole binary on a single machine.
        report.makespanSec = cost_.makespan(
            {static_cast<double>(local.disassembledInsts) *
                 CostModel::boltSecPerInst +
             static_cast<double>(local.newTextBytes) *
                 CostModel::linkSecPerByte},
            1);
        report.actions = 1;
        report.peakActionMemory = local.optPeakMemory;
        report.memoryLimitExceeded =
            local.optPeakMemory > limits_.ramPerAction;
        reports_["bolt.opt"] = std::move(report);
    }
    if (stats)
        *stats = local;
    return exe;
}

analysis::VerifyReport
Workflow::verifyBoltBinary(const bolt::BoltOptions &opts,
                           bolt::BoltStats *stats)
{
    linker::Executable exe = boltBinary(opts, stats);

    // BOLT's rewrite strips .bb_addr_map and owns its own layout, so the
    // metadata-vs-machine cross-checks no-op; the machine-level passes
    // (symbol bounds, decode, control flow, eh_frame, startup integrity)
    // run in full, turning the paper's section 5 crash classes into
    // machine-checked findings on this path too.
    analysis::VerifyOptions vopts;
    analysis::VerifyReport rep = analysis::verifyExecutable(exe, vopts);
    recordVerifyReport("bolt.verify", rep);
    return rep;
}

const sched::ScheduleReport &
Workflow::relinkSchedule() const
{
    assert(schedule_ && "no task-graph relink has run");
    return *schedule_;
}

PhaseReport
Workflow::instrumentedBuildReport()
{
    const ir::Program &prog = program();
    std::vector<double> costs;
    uint64_t total_bytes = 0;
    uint64_t peak = 0;
    for (const auto &mod : prog.modules) {
        uint64_t insts = moduleInsts(*mod);
        // Instrumentation bloats every backend action; counters and
        // value-profiling tables compile alongside the real code.
        costs.push_back(static_cast<double>(insts) *
                        CostModel::backendSecPerInst *
                        CostModel::instrumentFactor);
        total_bytes += insts * 6;
        peak = std::max(peak, codegenActionMemory(insts, insts * 6));
    }
    // Plus the instrumented link (all outputs fresh, bloated inputs).
    double link_cost =
        static_cast<double>(total_bytes) *
        (CostModel::fetchFreshSecPerByte + CostModel::linkSecPerByte) * 1.3;
    costs.push_back(link_cost);

    PhaseReport report;
    report.phase = "pgo.instrumented";
    report.makespanSec = cost_.makespan(costs, limits_.workers);
    report.actions = static_cast<uint32_t>(costs.size());
    report.peakActionMemory = peak;
    report.memoryLimitExceeded = peak > limits_.ramPerAction;
    return report;
}

bool
Workflow::hasReport(const std::string &phase) const
{
    return reports_.count(phase) != 0;
}

const PhaseReport &
Workflow::report(const std::string &phase) const
{
    auto it = reports_.find(phase);
    assert(it != reports_.end() && "phase report not yet produced");
    return it->second;
}

} // namespace propeller::buildsys
