#include "replay.h"

#include <filesystem>

#include "analysis/verifier.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "stale/stale.h"
#include "support/hash.h"

namespace perfbench {

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

void
SchedTotals::add(const buildsys::Workflow &wf)
{
    if (!wf.hasRelinkSchedule())
        return;
    const sched::ScheduleReport &s = wf.relinkSchedule();
    tasks += s.tasksExecuted;
    steals += s.steals;
    attempts += s.stealAttempts;
}

void
countRelink(Trace &trace, uint32_t op, const buildsys::Workflow &wf,
            const SchedTotals &sched, double relinkS, double relinkCpu,
            const std::string &image)
{
    const buildsys::CacheStats &ls = wf.layoutCacheStats();
    const buildsys::CacheStats &os = wf.cacheStats();
    trace.count(op, "build.cache_bytes",
                static_cast<double>(std::filesystem::file_size(image)));
    trace.count(op, "build.layout_hit_frac",
                ratio(ls.hits + ls.primedHits, ls.hits + ls.misses));
    trace.count(op, "build.object_hit_frac",
                ratio(os.hits, os.hits + os.misses));
    trace.count(op, "build.cpu_util", relinkCpu / relinkS);
    trace.count(op, "sched.tasks", static_cast<double>(sched.tasks));
    trace.count(op, "sched.steal_hit_frac",
                sched.attempts == 0 ? 1.0
                                    : ratio(sched.steals, sched.attempts));
    for (const char *phase :
         {"phase3.wpa", "phase4.codegen", "phase4.link", "phase5.verify"}) {
        if (wf.hasReport(phase))
            trace.count(op, std::string("model.") + phase,
                        wf.report(phase).makespanSec);
    }
}

RelinkCase
relinkCase(buildsys::Workflow &wf, const std::vector<elf::ObjectFile> &phase2)
{
    RelinkCase c;
    c.program = &wf.program();
    c.metadata = &wf.metadataBinary();
    c.profile = &wf.profile();
    c.wpa = &wf.wpa();
    c.coldObjects = &wf.coldObjects();
    c.phase2 = &phase2;
    c.shipped = &wf.propellerBinary();
    c.twin = &wf.verifiedBinary();
    c.name = wf.config().name;
    c.hugePages = wf.config().hugePages;
    const buildsys::CacheStats &ls = wf.layoutCacheStats();
    c.expectedLayouts = ls.misses - ls.primedHits;
    // Functions the relink deliberately left at input order (WPA or
    // link quarantine) are exempt from the order check, as in Phase 5.
    c.exempt.insert(wf.wpa().stats.quarantinedFunctions.begin(),
                    wf.wpa().stats.quarantinedFunctions.end());
    const std::string kQuarantined = "function quarantined: ";
    for (const std::string &line : wf.report("phase4.link").failures) {
        if (line.rfind(kQuarantined, 0) == 0)
            c.exempt.insert(line.substr(kQuarantined.size()));
    }
    return c;
}

void
replayGenerate(Trace &trace, uint32_t op, uint32_t parent,
               const workload::WorkloadConfig &config)
{
    Scope g(trace, "workload", op, parent);
    Scope s(trace, "workload.generate", op, g.id());
    workload::generate(config);
}

std::vector<elf::ObjectFile>
replayCompile(Trace &trace, uint32_t op, uint32_t parent,
              const ir::Program &program)
{
    Scope g(trace, "codegen", op, parent, true);
    Scope s(trace, "codegen.compile", op, g.id());
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    std::vector<elf::ObjectFile> objects;
    objects.reserve(program.modules.size());
    for (const auto &mod : program.modules)
        objects.push_back(codegen::compileModule(*mod, copts));
    trace.count(op, "codegen.compiled_modules",
                static_cast<double>(objects.size()));
    return objects;
}

void
replayProfileRun(Trace &trace, uint32_t op, uint32_t parent,
                 const linker::Executable &exe,
                 const sim::MachineOptions &opts)
{
    Scope g(trace, "sim", op, parent);
    sim::RunResult run;
    {
        Scope s(trace, "sim.profile", op, g.id());
        run = sim::run(exe, opts);
    }
    trace.count(op, "sim.instructions",
                static_cast<double>(run.counters.instructions));
}

void
replayIngest(Trace &trace, uint32_t op, uint32_t parent,
             const profile::Profile &prof, const core::AddrMapIndex &index,
             uint32_t shardSamples)
{
    profile::AggregatedProfile agg;
    {
        Scope g(trace, "profile", op, parent, true);
        std::vector<std::vector<uint8_t>> shards;
        {
            Scope s(trace, "profile.encode", op, g.id());
            shards = profile::serializeShards(prof, shardSamples);
        }
        profile::Profile decoded;
        {
            Scope s(trace, "profile.decode", op, g.id());
            decoded = profile::loadShards(shards);
        }
        {
            Scope s(trace, "profile.aggregate", op, g.id());
            profile::AggregationOptions ao;
            ao.threads = 1;
            agg = profile::aggregate(decoded, ao);
        }
        trace.count(op, "profile.samples",
                    static_cast<double>(prof.samples.size()));
    }
    core::WholeProgramDcfg dcfg;
    {
        Scope g(trace, "propeller", op, parent, true);
        core::MapperStats ms;
        {
            Scope s(trace, "propeller.dcfg", op, g.id());
            dcfg = core::buildDcfg(agg, index, &ms, 1);
        }
        const double records =
            static_cast<double>(agg.branches.size() + agg.ranges.size());
        trace.count(op, "propeller.mapped_frac",
                    records == 0.0
                        ? 1.0
                        : 1.0 - static_cast<double>(ms.unmappedRecords) /
                                    records);
    }
    {
        Scope g(trace, "stale", op, parent, true);
        stale::StaleMatchResult match;
        {
            Scope s(trace, "stale.match", op, g.id());
            match = stale::matchStaleProfile(dcfg, index, index);
        }
        {
            Scope s(trace, "stale.infer", op, g.id());
            stale::inferStaleCounts(match, index);
        }
        trace.count(op, "stale.block_match_frac",
                    match.stats.blockMatchRate());
    }
}

namespace {

/** The memo key and input digest of every function in @p pipe. */
std::vector<std::pair<uint64_t, uint64_t>>
memoKeys(const core::WpaPipeline &pipe)
{
    const uint64_t opts_fp =
        core::layoutOptionsFingerprint(core::LayoutOptions{});
    std::vector<std::pair<uint64_t, uint64_t>> keys;
    keys.reserve(pipe.functionCount());
    for (size_t f = 0; f < pipe.functionCount(); ++f)
        keys.emplace_back(hashCombine(pipe.layoutFingerprint(f), opts_fp),
                          hashCombine(pipe.layoutInputDigest(f), opts_fp));
    return keys;
}

} // namespace

void
replayRelink(Trace &trace, uint32_t op, uint32_t parent, const RelinkCase &c,
             LayoutMemo &memo, std::vector<std::string> &failed)
{
    {
        Scope g(trace, "propeller", op, parent, true);
        core::WpaPipeline pipe(*c.metadata, *c.profile,
                               core::LayoutOptions{}, 1);
        {
            Scope s(trace, "propeller.ingest", op, g.id());
            core::WpaPipeline::IngestPlan plan = pipe.prepare();
            for (size_t i = 0; i < plan.aggregationShards; ++i)
                pipe.aggregateShard(i);
            pipe.mergeAggregation();
        }
        {
            Scope s(trace, "propeller.index", op, g.id());
            pipe.buildIndex();
        }
        if (c.dcfg)
            pipe.overrideDcfg(*c.dcfg);
        {
            Scope s(trace, "propeller.map", op, g.id());
            pipe.beginMapping();
            pipe.resolveShard(0, 1);
            pipe.applyDcfg();
        }

        // Lay out what the relink's layout cache could not serve: an
        // exact memo-key hit, or a digest-alias hit for a primed
        // function, skips Ext-TSP.
        const auto keys = memoKeys(pipe);
        std::vector<size_t> misses;
        for (size_t f = 0; f < keys.size(); ++f) {
            if (memo.keys.count(keys[f].first) != 0)
                continue;
            if (c.primed != nullptr &&
                c.primed->count(pipe.dcfg().functions[f].function) != 0 &&
                memo.digests.count(keys[f].second) != 0)
                continue;
            misses.push_back(f);
        }
        uint64_t evals = 0;
        {
            Scope s(trace, "propeller.layout", op, g.id());
            for (size_t f : misses)
                evals += pipe.layoutFunction(f).stats.candidateEvals;
        }
        trace.count(op, "propeller.exttsp_evals",
                    static_cast<double>(evals));
        trace.count(op, "propeller.layouts",
                    static_cast<double>(misses.size()));
        if (misses.size() != c.expectedLayouts)
            failed.push_back("replay laid out " +
                             std::to_string(misses.size()) +
                             " functions, the relink " +
                             std::to_string(c.expectedLayouts));
        for (const auto &[key, digest] : keys) {
            memo.keys.insert(key);
            memo.digests.insert(digest);
        }
        {
            Scope s(trace, "propeller.order", op, g.id());
            pipe.globalOrder();
        }
    }

    // Phase 4: modules without cluster directives link their Phase 2
    // object; the others' objects are rebuilt under their restriction of
    // the directives.  Only the modules the relink did not serve from
    // its cache are timed: a cache hit may be a clustered object an
    // earlier relink compiled, which the replay rebuilds untimed.
    const std::set<std::string> cold(c.coldObjects->begin(),
                                     c.coldObjects->end());
    std::vector<elf::ObjectFile> objects = *c.phase2;
    std::vector<codegen::ClusterMap> submaps(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
        for (const auto &fn : c.program->modules[i]->functions) {
            auto it = c.wpa->ccProf.clusters.find(fn->name);
            if (it != c.wpa->ccProf.clusters.end())
                submaps[i].emplace(fn->name, it->second);
        }
        codegen::sanitizeClusterMap(*c.program, submaps[i]);
    }
    auto compile = [&](size_t i) {
        codegen::Options copts;
        copts.emitAddrMapSection = true;
        copts.bbSections = codegen::BbSectionsMode::Clusters;
        copts.clusters = &submaps[i];
        objects[i] = codegen::compileModule(*c.program->modules[i], copts);
    };
    std::vector<size_t> recompiled;
    for (size_t i = 0; i < objects.size(); ++i) {
        if (cold.count(objects[i].name) == 0)
            recompiled.push_back(i);
        else if (!submaps[i].empty())
            compile(i);
    }
    {
        Scope g(trace, "codegen", op, parent, true);
        Scope s(trace, "codegen.recompile", op, g.id());
        for (size_t i : recompiled)
            compile(i);
    }
    trace.count(op, "codegen.recompiled_modules",
                static_cast<double>(recompiled.size()));

    linker::Executable twin;
    {
        Scope g(trace, "linker", op, parent, true);
        linker::Options opts;
        opts.entrySymbol = c.program->entryFunction;
        opts.hugePagesText = c.hugePages;
        opts.symbolOrder = c.wpa->ldProf.symbolOrder;
        linker::Executable po;
        {
            Scope s(trace, "linker.link", op, g.id());
            linker::Options po_opts = opts;
            po_opts.outputName = c.name + ".po";
            po_opts.stripAddrMaps = true;
            po = linker::link(objects, po_opts);
        }
        {
            Scope s(trace, "linker.link", op, g.id());
            linker::Options twin_opts = opts;
            twin_opts.outputName = c.name + ".po-verify";
            twin = linker::link(objects, twin_opts);
        }
        trace.count(op, "linker.text_bytes",
                    static_cast<double>(po.text.size() + twin.text.size()));
        if (po.text != c.shipped->text || twin.text != c.twin->text)
            failed.push_back("replayed links differ from the relink's PO");
    }

    {
        Scope g(trace, "analysis", op, parent, true);
        analysis::VerifyOptions vopts;
        vopts.expectedOrder = &c.wpa->ldProf;
        vopts.exemptFunctions = c.exempt;
        analysis::VerifyReport rep;
        {
            Scope s(trace, "analysis.verify", op, g.id());
            rep = analysis::verifyExecutable(*c.twin, vopts);
        }
        trace.count(op, "analysis.bytes",
                    static_cast<double>(rep.bytesVerified));
        if (!rep.clean())
            failed.push_back("replayed verifier found diagnostics");
    }
}

} // namespace perfbench
