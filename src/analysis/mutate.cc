#include "analysis/mutate.h"

#include "analysis/verifier.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "bolt/disassembler.h"
#include "elf/bb_addr_map.h"
#include "support/rng.h"

namespace propeller::analysis {

using linker::Executable;
using linker::FuncRange;

namespace {

constexpr DefectClass kAllClasses[kDefectClassCount] = {
    DefectClass::BranchDisplacement, DefectClass::SwappedFallThrough,
    DefectClass::AddrMapAddress,     DefectClass::AddrMapSize,
    DefectClass::EhFrameGap,         DefectClass::OverlappingCode,
    DefectClass::BadClusterDirective, DefectClass::BadOrderDirective,
    DefectClass::BadSymbolOrder,     DefectClass::EmbeddedData,
    DefectClass::TruncatedFunction,  DefectClass::EntrySkew,
    DefectClass::IntegritySkew,      DefectClass::FlowAnomaly,
};

std::string
hex(uint64_t value)
{
    char buf[32];
    snprintf(buf, sizeof buf, "0x%llx",
             static_cast<unsigned long long>(value));
    return buf;
}

/** Overwrite the encoding of @p inst at @p addr inside the text image. */
void
patchInstruction(Executable &exe, uint64_t addr,
                 const isa::Instruction &inst)
{
    std::vector<uint8_t> bytes;
    inst.encode(bytes);
    std::copy(bytes.begin(), bytes.end(),
              exe.text.begin() + (addr - exe.textBase));
}

/** All decodable (non-hand-asm, in-image) ranges with their code. */
struct DecodedRange
{
    FuncRange *sym;
    bolt::RangeDisassembly dis;
};

std::vector<DecodedRange>
decodeRanges(Executable &exe)
{
    std::vector<DecodedRange> out;
    for (auto &sym : exe.symbols) {
        if (sym.isHandAsm || sym.start >= sym.end ||
            !exe.containsText(sym.start) || sym.end > exe.textEnd())
            continue;
        bolt::RangeDisassembly dis =
            bolt::disassembleRange(exe, sym.start, sym.end);
        if (dis.ok())
            out.push_back(DecodedRange{&sym, std::move(dis)});
    }
    return out;
}

std::unordered_set<uint64_t>
boundarySet(const std::vector<DecodedRange> &ranges)
{
    std::unordered_set<uint64_t> boundaries;
    for (const auto &r : ranges) {
        for (const auto &bi : r.dis.insts)
            boundaries.insert(bi.addr);
    }
    return boundaries;
}

std::string
injectBranchDisplacement(Executable &exe, Rng &rng)
{
    std::vector<DecodedRange> ranges = decodeRanges(exe);
    struct Site
    {
        uint64_t addr;
        isa::Instruction inst;
        std::string function;
    };
    std::vector<Site> sites;
    for (const auto &r : ranges) {
        for (const auto &bi : r.dis.insts) {
            if (bi.inst.isCondBranch() || bi.inst.isUncondBranch())
                sites.push_back({bi.addr, bi.inst, r.sym->parentFunction});
        }
    }
    if (sites.empty())
        return "";
    Site site = sites[rng.below(sites.size())];
    // Point the branch one byte into its own encoding: never an
    // instruction boundary, always inside the owning function.
    site.inst.rel =
        1 - static_cast<int32_t>(site.inst.size());
    patchInstruction(exe, site.addr, site.inst);
    return "branch at " + hex(site.addr) + " in " + site.function +
           " retargeted to " + hex(site.addr + 1);
}

std::string
injectSwappedFallThrough(Executable &exe, Rng &rng)
{
    std::vector<DecodedRange> ranges = decodeRanges(exe);
    struct Site
    {
        uint64_t instAddr;
        isa::Instruction inst;
        uint64_t newTarget;
        uint32_t fromBb, toBb;
        std::string function;
    };
    std::vector<Site> sites;
    for (const auto &map : exe.bbAddrMap) {
        bool has_v2 = map.functionHash != 0;
        for (const auto &block : map.blocks)
            has_v2 = has_v2 || block.hash != 0;
        if (!has_v2)
            continue;
        for (const auto &block : map.blocks) {
            if (block.size == 0 || map.successors(block).empty())
                continue;
            const DecodedRange *owner = nullptr;
            for (const auto &r : ranges) {
                if (block.address >= r.sym->start &&
                    block.address < r.sym->end)
                    owner = &r;
            }
            if (!owner)
                continue;
            const bolt::BoltInst *last = nullptr;
            for (const auto &bi : owner->dis.insts) {
                if (bi.addr >= block.address + block.size)
                    break;
                if (bi.addr >= block.address)
                    last = &bi;
            }
            if (!last || (!last->inst.isCondBranch() &&
                          !last->inst.isUncondBranch()))
                continue;
            // The verifier matches successors by address (zero-size
            // successors alias the next block), so exclude victims at
            // any declared successor's address, not just by id.
            std::unordered_set<uint64_t> succ_addrs;
            for (uint32_t s : map.successors(block))
                for (const auto &b2 : map.blocks)
                    if (b2.bbId == s)
                        succ_addrs.insert(b2.address);
            uint64_t inst_end = last->addr + last->inst.size();
            uint64_t old_target =
                inst_end + static_cast<int64_t>(last->inst.rel);
            for (const auto &victim : map.blocks) {
                if (victim.size == 0 ||
                    succ_addrs.count(victim.address) ||
                    victim.address == old_target)
                    continue;
                int64_t rel = static_cast<int64_t>(victim.address) -
                              static_cast<int64_t>(inst_end);
                bool short_form =
                    last->inst.op == isa::Opcode::JmpShort ||
                    last->inst.op == isa::Opcode::JccShort;
                if (short_form && !isa::fitsRel8(rel))
                    continue;
                sites.push_back({last->addr, last->inst, victim.address,
                                 block.bbId, victim.bbId, map.function});
            }
        }
    }
    if (sites.empty())
        return "";
    Site site = sites[rng.below(sites.size())];
    site.inst.rel = static_cast<int32_t>(
        static_cast<int64_t>(site.newTarget) -
        static_cast<int64_t>(site.instAddr + site.inst.size()));
    patchInstruction(exe, site.instAddr, site.inst);
    return "terminator of bb" + std::to_string(site.fromBb) + " in " +
           site.function + " swapped to non-successor bb" +
           std::to_string(site.toBb);
}

std::string
injectAddrMapAddress(Executable &exe, Rng &rng)
{
    std::unordered_set<uint64_t> boundaries =
        boundarySet(decodeRanges(exe));
    struct Site
    {
        linker::ExecBlock *block;
        uint64_t delta;
        std::string function;
    };
    std::vector<Site> sites;
    for (auto &map : exe.bbAddrMap) {
        for (auto &block : map.blocks) {
            if (block.size == 0)
                continue;
            for (uint64_t delta = 1; delta <= 3; ++delta) {
                if (!boundaries.count(block.address + delta)) {
                    sites.push_back({&block, delta, map.function});
                    break;
                }
            }
        }
    }
    if (sites.empty())
        return "";
    const Site &site = sites[rng.below(sites.size())];
    site.block->address += site.delta;
    return "addr-map bb" + std::to_string(site.block->bbId) + " of " +
           site.function + " skewed by +" + std::to_string(site.delta) +
           " to " + hex(site.block->address);
}

std::string
injectAddrMapSize(Executable &exe, Rng &rng)
{
    struct Site
    {
        linker::ExecBlock *block;
        std::string function;
    };
    std::vector<Site> sites;
    for (auto &map : exe.bbAddrMap) {
        for (auto &block : map.blocks)
            sites.push_back({&block, map.function});
    }
    if (sites.empty())
        return "";
    const Site &site = sites[rng.below(sites.size())];
    uint32_t delta = 1 + static_cast<uint32_t>(rng.below(3));
    site.block->size += delta;
    return "addr-map bb" + std::to_string(site.block->bbId) + " of " +
           site.function + " grown by " + std::to_string(delta) +
           " bytes";
}

std::string
injectEhFrameGap(Executable &exe, Rng &rng)
{
    if (exe.frames.empty())
        return "";
    size_t idx = rng.below(exe.frames.size());
    std::string victim = exe.frames[idx].sectionSymbol;
    exe.frames.erase(exe.frames.begin() + idx);
    return "unwind coverage for '" + victim + "' dropped";
}

std::string
injectOverlappingCode(Executable &exe, Rng &rng)
{
    std::vector<FuncRange *> sorted;
    for (auto &sym : exe.symbols) {
        if (sym.start < sym.end && exe.containsText(sym.start) &&
            sym.end <= exe.textEnd())
            sorted.push_back(&sym);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const FuncRange *a, const FuncRange *b) {
                  return a->start < b->start;
              });
    if (sorted.size() < 2)
        return "";
    size_t i = rng.below(sorted.size() - 1);
    FuncRange *cur = sorted[i];
    FuncRange *next = sorted[i + 1];
    uint64_t new_end =
        next->start + std::max<uint64_t>(1, (next->end - next->start) / 2);
    cur->end = new_end;
    return "symbol '" + cur->name + "' grown to " + hex(new_end) +
           ", overlapping '" + next->name + "'";
}

std::string
injectBadClusterDirective(core::CcProfile &cc, Rng &rng)
{
    if (cc.clusters.empty())
        return "";
    auto it = cc.clusters.begin();
    std::advance(it, rng.below(cc.clusters.size()));
    codegen::ClusterSpec &spec = it->second;
    if (spec.clusters.empty() || spec.clusters[0].empty())
        return "";
    switch (rng.below(3)) {
      case 0:
        spec.clusters.back().push_back(spec.clusters[0][0]);
        return "cluster directive for " + it->first +
               ": entry block duplicated";
      case 1:
        spec.clusters.back().pop_back();
        return "cluster directive for " + it->first +
               ": last block dropped";
      default:
        spec.clusters.back().push_back(0xDEAD);
        return "cluster directive for " + it->first +
               ": unknown block bb57005 appended";
    }
}

std::string
injectBadOrderDirective(core::LdProfile &ld, Rng &rng)
{
    if (ld.symbolOrder.empty())
        return "";
    size_t idx = rng.below(ld.symbolOrder.size());
    std::string old = ld.symbolOrder[idx];
    ld.symbolOrder[idx] = "phantom_" + old;
    return "ordering entry '" + old + "' replaced with 'phantom_" + old +
           "'";
}

std::string
injectBadSymbolOrder(const Executable &exe, core::LdProfile &ld,
                     Rng &rng)
{
    size_t n = ld.symbolOrder.size();
    if (n < 2)
        return "";
    size_t start = rng.below(n - 1);
    for (size_t k = 0; k < n - 1; ++k) {
        size_t i = (start + k) % (n - 1);
        const std::string &a = ld.symbolOrder[i];
        const std::string &b = ld.symbolOrder[i + 1];
        const FuncRange *ra = exe.findSymbol(a);
        const FuncRange *rb = exe.findSymbol(b);
        if (!ra || !rb || ra->start == rb->start)
            continue;
        std::swap(ld.symbolOrder[i], ld.symbolOrder[i + 1]);
        return "ordering entries '" + b + "' and '" + a + "' swapped";
    }
    return "";
}

std::string
injectEmbeddedData(Executable &exe, Rng &rng)
{
    std::vector<DecodedRange> ranges = decodeRanges(exe);
    struct Site
    {
        uint64_t addr;
        std::string symbol;
    };
    std::vector<Site> sites;
    for (const auto &r : ranges) {
        for (size_t i = 1; i < r.dis.insts.size(); ++i)
            sites.push_back({r.dis.insts[i].addr, r.sym->name});
    }
    if (sites.empty())
        return "";
    const Site &site = sites[rng.below(sites.size())];
    exe.text[site.addr - exe.textBase] = 0x00; // Not a defined opcode.
    return "embedded-data byte planted at " + hex(site.addr) + " in '" +
           site.symbol + "'";
}

std::string
injectTruncatedFunction(Executable &exe, Rng &rng)
{
    std::vector<DecodedRange> ranges = decodeRanges(exe);
    struct Site
    {
        FuncRange *sym;
        uint64_t cutAt;
    };
    std::vector<Site> sites;
    for (auto &r : ranges) {
        const bolt::BoltInst *last_wide = nullptr;
        for (const auto &bi : r.dis.insts) {
            if (bi.inst.size() >= 2)
                last_wide = &bi;
        }
        if (last_wide)
            sites.push_back({r.sym, last_wide->addr + 1});
    }
    if (sites.empty())
        return "";
    const Site &site = sites[rng.below(sites.size())];
    site.sym->end = site.cutAt;
    return "symbol '" + site.sym->name + "' truncated mid-instruction at " +
           hex(site.cutAt);
}

std::string
injectEntrySkew(Executable &exe, Rng &rng)
{
    std::unordered_set<uint64_t> primary_starts;
    for (const auto &sym : exe.symbols) {
        if (sym.isPrimary)
            primary_starts.insert(sym.start);
    }
    uint64_t base_delta = 1 + rng.below(7);
    for (uint64_t k = 0; k < 16; ++k) {
        uint64_t delta = base_delta + k;
        if (!primary_starts.count(exe.entryAddress + delta)) {
            exe.entryAddress += delta;
            return "entry address skewed by +" + std::to_string(delta) +
                   " to " + hex(exe.entryAddress);
        }
    }
    return "";
}

std::string
injectIntegritySkew(Executable &exe, Rng &rng)
{
    if (exe.integrityChecks.empty())
        return "";
    auto &check =
        exe.integrityChecks[rng.below(exe.integrityChecks.size())];
    check.expectedHash ^= rng.next() | 1;
    return "integrity hash for " + check.function + " corrupted";
}

std::string
injectFlowAnomaly(core::WholeProgramDcfg &dcfg, Rng &rng,
                  double tolerance, uint64_t min_weight)
{
    struct Site
    {
        core::FunctionDcfg *fn;
        size_t edge;
    };
    std::vector<Site> sites;
    for (auto &fn : dcfg.functions) {
        std::vector<uint64_t> inflow(fn.nodes.size(), 0);
        std::vector<uint64_t> outflow(fn.nodes.size(), 0);
        std::vector<uint32_t> out_deg(fn.nodes.size(), 0);
        for (const auto &edge : fn.edges) {
            if (edge.fromNode >= fn.nodes.size() ||
                edge.toNode >= fn.nodes.size())
                continue;
            outflow[edge.fromNode] += edge.weight;
            ++out_deg[edge.fromNode];
            inflow[edge.toNode] += edge.weight;
        }
        for (size_t e = 0; e < fn.edges.size(); ++e) {
            const core::DcfgEdge &edge = fn.edges[e];
            uint32_t to = edge.toNode;
            // Self-loops inflate both sides of the node's balance, so
            // they can never trip the conservation predicate.
            if (to >= fn.nodes.size() || to == fn.entryNode ||
                edge.fromNode == to ||
                (fn.nodes[to].flags & elf::kBbLandingPad) ||
                out_deg[to] == 0 || edge.weight == 0)
                continue;
            // Will the ×100 blow-up provably trip the conservation
            // check?  Mirror lintProfileFlow's predicate exactly.
            uint64_t in_new = inflow[to] + 99 * edge.weight;
            uint64_t hi = std::max(in_new, outflow[to]);
            uint64_t lo = std::min(in_new, outflow[to]);
            if (hi >= min_weight &&
                static_cast<double>(hi) >
                    tolerance * static_cast<double>(lo))
                sites.push_back({&fn, e});
        }
    }
    if (sites.empty())
        return "";
    const Site &site = sites[rng.below(sites.size())];
    core::DcfgEdge &edge = site.fn->edges[site.edge];
    edge.weight *= 100;
    return "edge bb-node " + std::to_string(edge.fromNode) + "->" +
           std::to_string(edge.toNode) + " in " + site.fn->function +
           " inflated 100x";
}

} // namespace

const char *
defectName(DefectClass cls)
{
    switch (cls) {
      case DefectClass::BranchDisplacement:
        return "branch-displacement";
      case DefectClass::SwappedFallThrough:
        return "swapped-fall-through";
      case DefectClass::AddrMapAddress:
        return "addr-map-address-skew";
      case DefectClass::AddrMapSize:
        return "addr-map-size-skew";
      case DefectClass::EhFrameGap:
        return "eh-frame-gap";
      case DefectClass::OverlappingCode:
        return "overlapping-code";
      case DefectClass::BadClusterDirective:
        return "bad-cluster-directive";
      case DefectClass::BadOrderDirective:
        return "bad-order-directive";
      case DefectClass::BadSymbolOrder:
        return "bad-symbol-order";
      case DefectClass::EmbeddedData:
        return "embedded-data";
      case DefectClass::TruncatedFunction:
        return "truncated-function";
      case DefectClass::EntrySkew:
        return "entry-skew";
      case DefectClass::IntegritySkew:
        return "integrity-skew";
      case DefectClass::FlowAnomaly:
        return "flow-anomaly";
    }
    return "unknown";
}

CheckId
expectedCheck(DefectClass cls)
{
    switch (cls) {
      case DefectClass::BranchDisplacement:
        return CheckId::PV005;
      case DefectClass::SwappedFallThrough:
        return CheckId::PV006;
      case DefectClass::AddrMapAddress:
        return CheckId::PV009;
      case DefectClass::AddrMapSize:
        return CheckId::PV010;
      case DefectClass::EhFrameGap:
        return CheckId::PV011;
      case DefectClass::OverlappingCode:
        return CheckId::PV002;
      case DefectClass::BadClusterDirective:
        return CheckId::PV013;
      case DefectClass::BadOrderDirective:
        return CheckId::PV014;
      case DefectClass::BadSymbolOrder:
        return CheckId::PV015;
      case DefectClass::EmbeddedData:
        return CheckId::PV004;
      case DefectClass::TruncatedFunction:
        return CheckId::PV004;
      case DefectClass::EntrySkew:
        return CheckId::PV003;
      case DefectClass::IntegritySkew:
        return CheckId::PV012;
      case DefectClass::FlowAnomaly:
        return CheckId::PV016;
    }
    return CheckId::PV001;
}

const DefectClass *
allDefectClasses()
{
    return kAllClasses;
}

std::string
injectDefect(DefectClass cls, uint64_t seed, const MutationTarget &target)
{
    Rng rng(
        mix64(seed, static_cast<uint64_t>(cls) + 0x5eedull));
    switch (cls) {
      case DefectClass::BranchDisplacement:
        return target.exe ? injectBranchDisplacement(*target.exe, rng)
                          : "";
      case DefectClass::SwappedFallThrough:
        return target.exe ? injectSwappedFallThrough(*target.exe, rng)
                          : "";
      case DefectClass::AddrMapAddress:
        return target.exe ? injectAddrMapAddress(*target.exe, rng) : "";
      case DefectClass::AddrMapSize:
        return target.exe ? injectAddrMapSize(*target.exe, rng) : "";
      case DefectClass::EhFrameGap:
        return target.exe ? injectEhFrameGap(*target.exe, rng) : "";
      case DefectClass::OverlappingCode:
        return target.exe ? injectOverlappingCode(*target.exe, rng) : "";
      case DefectClass::BadClusterDirective:
        return target.cc ? injectBadClusterDirective(*target.cc, rng)
                         : "";
      case DefectClass::BadOrderDirective:
        return target.ld ? injectBadOrderDirective(*target.ld, rng) : "";
      case DefectClass::BadSymbolOrder:
        return target.exe && target.ld
                   ? injectBadSymbolOrder(*target.exe, *target.ld, rng)
                   : "";
      case DefectClass::EmbeddedData:
        return target.exe ? injectEmbeddedData(*target.exe, rng) : "";
      case DefectClass::TruncatedFunction:
        return target.exe ? injectTruncatedFunction(*target.exe, rng)
                          : "";
      case DefectClass::EntrySkew:
        return target.exe ? injectEntrySkew(*target.exe, rng) : "";
      case DefectClass::IntegritySkew:
        return target.exe ? injectIntegritySkew(*target.exe, rng) : "";
      case DefectClass::FlowAnomaly:
        return target.dcfg
                   ? injectFlowAnomaly(*target.dcfg, rng,
                                       VerifyOptions::flowTolerance,
                                       VerifyOptions::flowMinWeight)
                   : "";
    }
    return "";
}

} // namespace propeller::analysis
