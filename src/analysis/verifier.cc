#include "analysis/verifier.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "bolt/disassembler.h"
#include "elf/bb_addr_map.h"
#include "support/hash.h"

namespace propeller::analysis {

using linker::ExecBlock;
using linker::ExecFuncMap;
using linker::Executable;
using linker::FuncRange;


namespace {

std::string
hex(uint64_t value)
{
    char buf[32];
    snprintf(buf, sizeof buf, "0x%llx",
             static_cast<unsigned long long>(value));
    return buf;
}

/** One symbol range plus its independent disassembly. */
struct RangeInfo
{
    const FuncRange *sym = nullptr;
    bolt::RangeDisassembly dis;
    bool valid = true;   ///< Passed the PV001 image-bounds check.
    bool decoded = false; ///< Fully disassembled (hand-asm never is).
};

/** A sized address-map block, indexed by start address. */
struct BlockStart
{
    uint64_t address = 0;
    uint32_t map = 0; ///< Index into Executable::bbAddrMap.
    uint32_t bbId = 0;
};

/** Instruction order within one decoded range (strictly by address). */
bool
instBefore(const bolt::BoltInst &bi, uint64_t addr)
{
    return bi.addr < addr;
}

/** Shared state of one verifyExecutable pass. */
struct ExeVerifier
{
    ExeVerifier(const Executable &e, const VerifyOptions &o,
                VerifyReport &r)
        : exe(e), opts(o), report(r)
    {
    }

    const Executable &exe;
    const VerifyOptions &opts;
    VerifyReport &report;

    std::vector<RangeInfo> ranges; ///< Sorted by start address.
    /** starts[i]: ranges[i]'s start, contiguous for binary search. */
    std::vector<uint64_t> starts;
    /** reach[i]: the largest end among decodable ranges[0..i]. */
    std::vector<uint64_t> reach;
    std::unordered_map<uint64_t, const FuncRange *> primaryStarts;
    std::unordered_map<std::string, const FuncRange *> rangeByName;
    /** Function -> its valid ranges, in address order. */
    std::unordered_map<std::string, std::vector<const RangeInfo *>>
        fnRanges;
    /**
     * Every sized addr-map block, by address; among blocks sharing an
     * address the first in map order sorts first.
     */
    std::vector<BlockStart> blockStarts;

    void
    diag(CheckId id, Severity sev, const std::string &fn, uint64_t addr,
         std::string msg)
    {
        report.engine.report(id, sev, fn, addr, std::move(msg));
    }

    /** Number of ranges starting at or before @p addr. */
    size_t
    rangesUpTo(uint64_t addr) const
    {
        return static_cast<size_t>(
            std::upper_bound(starts.begin(), starts.end(), addr) -
            starts.begin());
    }

    /** Range whose [start, end) contains @p addr; nullptr if none. */
    const RangeInfo *
    ownerOf(uint64_t addr) const
    {
        size_t n = rangesUpTo(addr);
        if (n == 0)
            return nullptr;
        const RangeInfo &r = ranges[n - 1];
        if (!r.valid || addr >= r.sym->end)
            return nullptr;
        return &r;
    }

    /**
     * Whether some decoded instruction starts at @p addr.  Only ranges
     * containing @p addr can hold one: walk back from the last range
     * starting at or before it while an earlier range still reaches
     * past it (damaged images can overlap), binary-searching each
     * range's address-sorted instructions.
     */
    bool
    isBoundary(uint64_t addr) const
    {
        for (size_t i = rangesUpTo(addr); i-- > 0 && reach[i] > addr;) {
            const std::vector<bolt::BoltInst> &insts = ranges[i].dis.insts;
            auto bi = std::lower_bound(insts.begin(), insts.end(), addr,
                                       instBefore);
            if (bi != insts.end() && bi->addr == addr)
                return true;
        }
        return false;
    }

    void checkSymbols();
    void checkEntry();
    void indexAddrMap();
    void decodeRange(RangeInfo &info, VerifyReport &rep);
    void checkControlFlowRange(const RangeInfo &info,
                               VerifyReport &rep) const;
    void checkAddrMap(size_t m, VerifyReport &rep) const;
    void checkEhFrame();
    void checkIntegrity();
    void checkSymbolOrder();
};

void
ExeVerifier::checkSymbols()
{
    ranges.reserve(exe.symbols.size());
    for (const auto &sym : exe.symbols)
        ranges.push_back(RangeInfo{&sym, {}, true, false});
    std::sort(ranges.begin(), ranges.end(),
              [](const RangeInfo &a, const RangeInfo &b) {
                  return a.sym->start < b.sym->start;
              });

    starts.reserve(ranges.size());
    reach.reserve(ranges.size());
    for (auto &info : ranges) {
        const FuncRange &sym = *info.sym;
        starts.push_back(sym.start);
        std::vector<const RangeInfo *> &fn_rs =
            fnRanges[sym.parentFunction];
        rangeByName.emplace(sym.name, &sym);
        if (sym.isPrimary)
            primaryStarts.emplace(sym.start, &sym);
        if (sym.start >= sym.end || !exe.containsText(sym.start) ||
            sym.end > exe.textEnd()) {
            info.valid = false;
            diag(CheckId::PV001, Severity::Error, sym.parentFunction,
                 sym.start,
                 "symbol '" + sym.name + "' range [" + hex(sym.start) +
                     ", " + hex(sym.end) + ") is empty or outside the " +
                     "text image [" + hex(exe.textBase) + ", " +
                     hex(exe.textEnd()) + ")");
        } else {
            fn_rs.push_back(&info);
        }
        uint64_t prev_reach = reach.empty() ? 0 : reach.back();
        reach.push_back(info.valid && !sym.isHandAsm
                            ? std::max(prev_reach, sym.end)
                            : prev_reach);
    }
    report.functionsChecked = static_cast<uint32_t>(fnRanges.size());

    const RangeInfo *prev = nullptr;
    for (const auto &info : ranges) {
        if (!info.valid)
            continue;
        if (prev && info.sym->start < prev->sym->end) {
            diag(CheckId::PV002, Severity::Error,
                 info.sym->parentFunction, info.sym->start,
                 "symbol '" + info.sym->name + "' overlaps '" +
                     prev->sym->name + "' ending at " +
                     hex(prev->sym->end));
        }
        if (!prev || info.sym->end > prev->sym->end)
            prev = &info;
    }
}

void
ExeVerifier::checkEntry()
{
    if (exe.symbols.empty())
        return;
    auto it = primaryStarts.find(exe.entryAddress);
    if (it == primaryStarts.end()) {
        diag(CheckId::PV003, Severity::Error, "", exe.entryAddress,
             "entry address " + hex(exe.entryAddress) +
                 " is not the start of any primary function symbol");
    }
}

void
ExeVerifier::decodeRange(RangeInfo &info, VerifyReport &rep)
{
    // Writes only to this range's slot and @p rep: safe to run
    // concurrently across distinct ranges.
    if (!info.valid)
        return;
    if (info.sym->isHandAsm) {
        ++rep.handAsmSkipped;
        return;
    }
    info.dis =
        bolt::disassembleRange(exe, info.sym->start, info.sym->end);
    ++rep.rangesDecoded;
    rep.instructionsDecoded += info.dis.insts.size();
    if (info.dis.ok()) {
        info.decoded = true;
        rep.bytesVerified += info.sym->end - info.sym->start;
    } else {
        rep.engine.report(CheckId::PV004, Severity::Error,
                          info.sym->parentFunction, info.dis.errorAddr,
                          std::string("cannot disassemble symbol '") +
                              info.sym->name + "': " +
                              bolt::decodeErrorName(info.dis.error) +
                              " at " + hex(info.dis.errorAddr));
    }
}

void
ExeVerifier::checkControlFlowRange(const RangeInfo &info,
                                   VerifyReport &rep) const
{
    // Reads only shared state that is frozen once every range is
    // decoded; reports into @p rep.  Safe to run concurrently across
    // distinct ranges.
    if (!info.decoded)
        return;
    auto diag = [&](CheckId id, Severity sev, const std::string &fn,
                    uint64_t addr, std::string msg) {
        rep.engine.report(id, sev, fn, addr, std::move(msg));
    };
    {
        const FuncRange &sym = *info.sym;
        for (const auto &bi : info.dis.insts) {
            const isa::Instruction &inst = bi.inst;
            bool branch = inst.isCondBranch() || inst.isUncondBranch();
            if (!branch && !inst.isCall())
                continue;
            uint64_t target = bi.addr + inst.size() +
                              static_cast<int64_t>(inst.rel);
            if (!exe.containsText(target)) {
                diag(CheckId::PV005, Severity::Error, sym.parentFunction,
                     bi.addr,
                     std::string(inst.isCall() ? "call" : "branch") +
                         " target " + hex(target) +
                         " is outside the text image");
                continue;
            }
            if (inst.isCall()) {
                if (!primaryStarts.count(target)) {
                    diag(CheckId::PV008, Severity::Error,
                         sym.parentFunction, bi.addr,
                         "call target " + hex(target) +
                             " is not a function entry");
                }
                continue;
            }
            const RangeInfo *owner = ownerOf(target);
            if (!owner) {
                diag(CheckId::PV005, Severity::Error, sym.parentFunction,
                     bi.addr,
                     "branch target " + hex(target) +
                         " lands in padding outside every symbol");
                continue;
            }
            if (owner->sym->parentFunction != sym.parentFunction) {
                diag(CheckId::PV007, Severity::Error, sym.parentFunction,
                     bi.addr,
                     "branch target " + hex(target) + " is inside '" +
                         owner->sym->name + "' of a different function");
                continue;
            }
            // Hand-asm ranges are opaque; a failed-decode range already
            // produced PV004 and its boundary set is incomplete.
            if (owner->sym->isHandAsm || !owner->decoded)
                continue;
            if (!isBoundary(target)) {
                diag(CheckId::PV005, Severity::Error, sym.parentFunction,
                     bi.addr,
                     "branch target " + hex(target) +
                         " is not at an instruction boundary");
            }
        }

        // A range whose last instruction can fall through must be
        // followed, byte-adjacent, by a range of the same function (the
        // linker only deletes fall-through jumps to adjacent targets).
        const isa::Instruction &last = info.dis.insts.back().inst;
        if (!last.endsStream()) {
            const RangeInfo *next = ownerOf(sym.end);
            bool same_function =
                next && next->sym->start == sym.end &&
                next->sym->parentFunction == sym.parentFunction;
            if (!same_function) {
                diag(CheckId::PV007, Severity::Error, sym.parentFunction,
                     sym.end,
                     "symbol '" + sym.name +
                         "' can fall through its end at " + hex(sym.end) +
                         " without an adjacent range of the same "
                         "function");
            }
        }
    }
}

void
ExeVerifier::indexAddrMap()
{
    for (size_t m = 0; m < exe.bbAddrMap.size(); ++m) {
        for (const auto &block : exe.bbAddrMap[m].blocks) {
            if (block.size > 0)
                blockStarts.push_back(BlockStart{
                    block.address, static_cast<uint32_t>(m), block.bbId});
        }
    }
    std::stable_sort(blockStarts.begin(), blockStarts.end(),
                     [](const BlockStart &a, const BlockStart &b) {
                         return a.address < b.address;
                     });
}

void
ExeVerifier::checkAddrMap(size_t m, VerifyReport &rep) const
{
    // Reads only shared state that is frozen once every range is
    // decoded; reports into @p rep.  Safe to run concurrently across
    // distinct maps.
    const ExecFuncMap &map = exe.bbAddrMap[m];
    auto diag = [&](CheckId id, uint64_t addr, std::string msg) {
        rep.engine.report(id, Severity::Error, map.function, addr,
                          std::move(msg));
    };

    auto fit = fnRanges.find(map.function);
    if (fit == fnRanges.end() || fit->second.empty()) {
        diag(CheckId::PV009, 0,
             "address map for function without any symbol range");
        return;
    }
    const std::vector<const RangeInfo *> &fn_rs = fit->second;

    // Assign each block to the range containing it; a zero-size block
    // (everything in it was relaxed away) may sit exactly at its range's
    // end.
    std::vector<std::vector<const ExecBlock *>> per_range(fn_rs.size());
    for (const auto &block : map.blocks) {
        size_t owner = fn_rs.size();
        for (size_t k = 0; k < fn_rs.size(); ++k) {
            const FuncRange &sym = *fn_rs[k]->sym;
            if (block.address >= sym.start &&
                (block.address < sym.end ||
                 (block.size == 0 && block.address == sym.end))) {
                owner = k;
                break;
            }
        }
        if (owner == fn_rs.size()) {
            diag(CheckId::PV009, block.address,
                 "block bb" + std::to_string(block.bbId) + " at " +
                     hex(block.address) +
                     " lies outside every range of its function");
            continue;
        }
        const RangeInfo &r = *fn_rs[owner];
        if (r.decoded &&
            !(block.size == 0 && block.address == r.sym->end) &&
            !isBoundary(block.address)) {
            diag(CheckId::PV009, block.address,
                 "block bb" + std::to_string(block.bbId) + " at " +
                     hex(block.address) +
                     " is not at an instruction boundary");
        }
        per_range[owner].push_back(&block);
    }

    // Tiling: within each range the assigned blocks must cover it
    // exactly, in address order, with no gaps or overlaps.
    for (size_t k = 0; k < fn_rs.size(); ++k) {
        std::vector<const ExecBlock *> &blocks = per_range[k];
        if (blocks.empty())
            continue;
        const FuncRange &sym = *fn_rs[k]->sym;
        std::stable_sort(blocks.begin(), blocks.end(),
                         [](const ExecBlock *a, const ExecBlock *b) {
                             return a->address < b->address;
                         });
        uint64_t cursor = sym.start;
        for (const ExecBlock *block : blocks) {
            // A landing-pad section begins with a nop prefix so the pad
            // lands at a nonzero offset (codegen, paper 4.5): tolerate a
            // nop-only gap before the range's first block.
            if (block == blocks.front() && block->address > cursor) {
                bool all_nops = true;
                for (uint64_t a = cursor; a < block->address; ++a)
                    all_nops = all_nops &&
                               exe.text[a - exe.textBase] ==
                                   static_cast<uint8_t>(isa::Opcode::Nop);
                if (all_nops)
                    cursor = block->address;
            }
            if (block->address != cursor) {
                diag(CheckId::PV010, block->address,
                     "block bb" + std::to_string(block->bbId) + " at " +
                         hex(block->address) +
                         (block->address > cursor ? " leaves a gap from "
                                                  : " overlaps back to ") +
                         hex(cursor) + " in '" + sym.name + "'");
            }
            cursor = block->address + block->size;
        }
        if (cursor != sym.end) {
            diag(CheckId::PV010, cursor,
                 "blocks of '" + sym.name + "' end at " + hex(cursor) +
                     ", range ends at " + hex(sym.end));
        }
    }

    // Successor cross-check (v2 metadata only): the decoded terminator
    // of each block must transfer to blocks the compiler declared as
    // successors.
    bool has_v2 = map.functionHash != 0;
    for (const auto &block : map.blocks)
        has_v2 = has_v2 || block.hash != 0;
    if (!has_v2)
        return;
    std::unordered_map<uint32_t, uint64_t> addr_of;
    for (const auto &block : map.blocks)
        addr_of.emplace(block.bbId, block.address);
    for (const auto &block : map.blocks) {
        if (block.size == 0 || map.successors(block).empty())
            continue;
        const RangeInfo *owner = ownerOf(block.address);
        if (!owner || !owner->decoded)
            continue;
        // Last instruction starting inside [address, end).
        const std::vector<bolt::BoltInst> &insts = owner->dis.insts;
        auto after = std::lower_bound(insts.begin(), insts.end(),
                                      block.address + block.size,
                                      instBefore);
        if (after == insts.begin() ||
            std::prev(after)->addr < block.address)
            continue;
        const bolt::BoltInst &last = *std::prev(after);

        auto check_edge = [&](uint64_t target, const char *what) {
            // The first sized block at the target, in map order.
            auto bit = std::lower_bound(
                blockStarts.begin(), blockStarts.end(), target,
                [](const BlockStart &b, uint64_t a) {
                    return b.address < a;
                });
            // Transfers out of this function's blocks are judged by the
            // control-flow checks, not the successor list.
            if (bit == blockStarts.end() || bit->address != target ||
                bit->map != m)
                return;
            // Match successors by address, not id: a declared successor
            // relaxed down to zero bytes sits at the same address as the
            // block physically reached through it.
            for (uint32_t s : map.successors(block))
                if (addr_of.count(s) && addr_of.at(s) == target)
                    return;
            diag(CheckId::PV006, last.addr,
                 std::string(what) + " of bb" + std::to_string(block.bbId) +
                     " reaches bb" + std::to_string(bit->bbId) + " at " +
                     hex(target) + ", which is not a declared successor");
        };

        const isa::Instruction &inst = last.inst;
        uint64_t inst_end = last.addr + inst.size();
        if (inst.isCondBranch() || inst.isUncondBranch())
            check_edge(inst_end + static_cast<int64_t>(inst.rel), "branch");
        if (!inst.endsStream())
            check_edge(inst_end, "fall-through");
    }
}

void
ExeVerifier::checkEhFrame()
{
    if (exe.frames.empty())
        return; // Rewritten binary without regenerated unwind metadata.

    std::unordered_map<std::string, const linker::FrameCoverage *> by_sym;
    for (const auto &frame : exe.frames) {
        if (!by_sym.emplace(frame.sectionSymbol, &frame).second) {
            diag(CheckId::PV011, Severity::Error, frame.sectionSymbol,
                 frame.start,
                 "duplicate unwind coverage for symbol '" +
                     frame.sectionSymbol + "'");
        }
        if (!rangeByName.count(frame.sectionSymbol)) {
            diag(CheckId::PV011, Severity::Error, frame.sectionSymbol,
                 frame.start,
                 "unwind coverage for unknown symbol '" +
                     frame.sectionSymbol + "'");
        }
    }
    for (const auto &info : ranges) {
        if (!info.valid)
            continue;
        const FuncRange &sym = *info.sym;
        auto it = by_sym.find(sym.name);
        if (it == by_sym.end()) {
            diag(CheckId::PV011, Severity::Error, sym.parentFunction,
                 sym.start,
                 "symbol '" + sym.name + "' [" + hex(sym.start) + ", " +
                     hex(sym.end) + ") has no unwind coverage");
            continue;
        }
        if (it->second->start != sym.start || it->second->end != sym.end) {
            diag(CheckId::PV011, Severity::Error, sym.parentFunction,
                 sym.start,
                 "unwind coverage [" + hex(it->second->start) + ", " +
                     hex(it->second->end) + ") does not match symbol '" +
                     sym.name + "' [" + hex(sym.start) + ", " +
                     hex(sym.end) + ")");
        }
    }
}

void
ExeVerifier::checkIntegrity()
{
    for (const auto &check : exe.integrityChecks) {
        const FuncRange *primary = nullptr;
        for (const auto &sym : exe.symbols) {
            if (sym.parentFunction == check.function && sym.isPrimary)
                primary = &sym;
        }
        if (!primary || primary->start >= primary->end ||
            !exe.containsText(primary->start) ||
            primary->end > exe.textEnd()) {
            continue; // PV001/PV003 cover missing or bogus ranges.
        }
        uint64_t actual =
            fnv1a(exe.text.data() + (primary->start - exe.textBase),
                  primary->end - primary->start);
        if (actual != check.expectedHash) {
            diag(CheckId::PV012, Severity::Error, check.function,
                 primary->start,
                 "startup integrity hash mismatch: baked-in " +
                     hex(check.expectedHash) + ", code hashes to " +
                     hex(actual) + " — this binary aborts at startup");
        }
    }
}

void
ExeVerifier::checkSymbolOrder()
{
    if (!opts.expectedOrder)
        return;
    const FuncRange *prev = nullptr;
    for (const auto &name : opts.expectedOrder->symbolOrder) {
        auto it = rangeByName.find(name);
        if (it == rangeByName.end())
            continue; // PV014 lints unknown names pre-link.
        const FuncRange *cur = it->second;
        if (opts.exemptFunctions.count(cur->parentFunction))
            continue; // Deliberately degraded to input order upstream.
        if (prev && cur->start <= prev->start) {
            diag(CheckId::PV015, Severity::Error, cur->parentFunction,
                 cur->start,
                 "symbol '" + cur->name + "' at " + hex(cur->start) +
                     " is ordered after '" + prev->name + "' at " +
                     hex(prev->start) +
                     " but the profile ordering places it later");
        }
        prev = cur;
    }
}

} // namespace

void
VerifyReport::merge(const VerifyReport &other)
{
    for (const auto &d : other.engine.diagnostics())
        engine.report(d.id, d.severity, d.function, d.address, d.message);
    functionsChecked += other.functionsChecked;
    rangesDecoded += other.rangesDecoded;
    handAsmSkipped += other.handAsmSkipped;
    instructionsDecoded += other.instructionsDecoded;
    bytesVerified += other.bytesVerified;
}

VerifyReport
verifyExecutable(const Executable &exe, const VerifyOptions &opts)
{
    ExecutableVerifier v(exe, opts);
    for (size_t r = 0; r < v.rangeCount(); ++r)
        v.decodeRange(r);
    for (size_t r = 0; r < v.rangeCount(); ++r)
        v.checkRange(r);
    for (size_t m = 0; m < v.addrMapCount(); ++m)
        v.checkAddrMap(m);
    return v.finish();
}

struct ExecutableVerifier::Impl
{
    VerifyReport main;
    ExeVerifier v;
    std::vector<VerifyReport> decodeSlots;
    std::vector<VerifyReport> checkSlots;
    std::vector<VerifyReport> mapSlots;

    Impl(const Executable &exe, const VerifyOptions &opts)
        : v(exe, opts, main)
    {
        main.engine.parseSuppressions(opts.suppress);
        v.checkSymbols();
        v.checkEntry();
        if (opts.checkAddrMap)
            v.indexAddrMap();
        decodeSlots.resize(v.ranges.size());
        checkSlots.resize(v.ranges.size());
        mapSlots.resize(exe.bbAddrMap.size());
    }
};

ExecutableVerifier::ExecutableVerifier(const linker::Executable &exe,
                                       const VerifyOptions &opts)
    : impl_(std::make_unique<Impl>(exe, opts))
{
}

ExecutableVerifier::~ExecutableVerifier() = default;

size_t
ExecutableVerifier::rangeCount() const
{
    return impl_->v.ranges.size();
}

uint64_t
ExecutableVerifier::rangeBytes(size_t r) const
{
    const FuncRange &sym = *impl_->v.ranges[r].sym;
    return sym.end > sym.start ? sym.end - sym.start : 0;
}

size_t
ExecutableVerifier::addrMapCount() const
{
    return impl_->mapSlots.size();
}

void
ExecutableVerifier::decodeRange(size_t r)
{
    impl_->v.decodeRange(impl_->v.ranges[r], impl_->decodeSlots[r]);
}

void
ExecutableVerifier::checkRange(size_t r)
{
    impl_->v.checkControlFlowRange(impl_->v.ranges[r],
                                   impl_->checkSlots[r]);
}

void
ExecutableVerifier::checkAddrMap(size_t m)
{
    if (impl_->v.opts.checkAddrMap)
        impl_->v.checkAddrMap(m, impl_->mapSlots[m]);
}

VerifyReport
ExecutableVerifier::finish()
{
    // Deterministic merge: per-range and then per-map findings re-emit
    // in range and map order through the main engine (which owns the
    // suppression set), so the report is byte-identical however the
    // stages were scheduled.
    for (const auto &slot : impl_->decodeSlots)
        impl_->main.merge(slot);
    for (const auto &slot : impl_->checkSlots)
        impl_->main.merge(slot);
    for (const auto &slot : impl_->mapSlots)
        impl_->main.merge(slot);
    if (impl_->v.opts.checkEhFrame)
        impl_->v.checkEhFrame();
    if (impl_->v.opts.checkIntegrity)
        impl_->v.checkIntegrity();
    impl_->v.checkSymbolOrder();
    return std::move(impl_->main);
}

VerifyReport
lintDirectives(const core::CcProfile &cc, const core::LdProfile &ld,
               const Executable &metadata_exe, const VerifyOptions &opts)
{
    VerifyReport report;
    report.engine.parseSuppressions(opts.suppress);
    auto diag = [&](CheckId id, const std::string &fn, std::string msg) {
        report.engine.report(id, Severity::Error, fn, 0, std::move(msg));
    };

    // Block universe per function, from the metadata binary's addr map
    // (identical to the IR universe codegen::sanitizeClusterMap uses).
    std::unordered_map<std::string, const ExecFuncMap *> map_of;
    for (const auto &map : metadata_exe.bbAddrMap)
        map_of.emplace(map.function, &map);

    // ---- cc_prof (PV013): mirror sanitizeClusterMap exactly ------------
    for (const auto &[fn_name, spec] : cc.clusters) {
        ++report.functionsChecked;
        auto mit = map_of.find(fn_name);
        if (mit == map_of.end()) {
            diag(CheckId::PV013, fn_name,
                 "cluster directive for unknown function");
            continue;
        }
        const ExecFuncMap &map = *mit->second;
        if (spec.clusters.empty() || spec.clusters[0].empty()) {
            diag(CheckId::PV013, fn_name,
                 "cluster directive with an empty primary cluster");
            continue;
        }
        if (spec.coldIndex >= static_cast<int>(spec.clusters.size())) {
            diag(CheckId::PV013, fn_name,
                 "cold cluster index " + std::to_string(spec.coldIndex) +
                     " out of range (only " +
                     std::to_string(spec.clusters.size()) + " clusters)");
        }
        std::unordered_set<uint32_t> universe;
        for (const auto &block : map.blocks)
            universe.insert(block.bbId);
        if (!map.blocks.empty() &&
            spec.clusters[0][0] != map.blocks[0].bbId) {
            diag(CheckId::PV013, fn_name,
                 "primary cluster starts with bb" +
                     std::to_string(spec.clusters[0][0]) +
                     " instead of the entry block bb" +
                     std::to_string(map.blocks[0].bbId));
        }
        std::unordered_set<uint32_t> seen;
        size_t listed = 0;
        for (const auto &cluster : spec.clusters) {
            for (uint32_t id : cluster) {
                if (!universe.count(id)) {
                    diag(CheckId::PV013, fn_name,
                         "cluster references unknown block bb" +
                             std::to_string(id));
                } else if (!seen.insert(id).second) {
                    diag(CheckId::PV013, fn_name,
                         "block bb" + std::to_string(id) +
                             " appears in more than one cluster");
                } else {
                    ++listed;
                }
            }
        }
        if (listed < universe.size()) {
            diag(CheckId::PV013, fn_name,
                 "clusters cover " + std::to_string(listed) + " of " +
                     std::to_string(universe.size()) +
                     " blocks (missing blocks would be dropped)");
        }
    }

    // ---- ld_prof (PV014) -----------------------------------------------
    std::unordered_set<std::string> functions;
    for (const auto &sym : metadata_exe.symbols)
        functions.insert(sym.parentFunction);

    std::unordered_set<std::string> seen_symbols;
    for (const auto &name : ld.symbolOrder) {
        if (!seen_symbols.insert(name).second) {
            diag(CheckId::PV014, name,
                 "symbol listed more than once in the ordering");
            continue;
        }
        // Derive "fn" / "fn.cold" / "fn.N" back to the base function.
        std::string base = name;
        int cluster_index = -1;
        bool is_cold = false;
        size_t dot = name.find_last_of('.');
        if (dot != std::string::npos && dot + 1 < name.size()) {
            std::string suffix = name.substr(dot + 1);
            if (suffix == "cold") {
                base = name.substr(0, dot);
                is_cold = true;
            } else if (suffix.find_first_not_of("0123456789") ==
                       std::string::npos) {
                base = name.substr(0, dot);
                cluster_index = std::stoi(suffix);
            }
        }
        if (!functions.count(base)) {
            diag(CheckId::PV014, name,
                 "ordering references unknown function '" + base + "'");
            continue;
        }
        auto cit = cc.clusters.find(base);
        if (cluster_index >= 0 || is_cold) {
            if (cit == cc.clusters.end()) {
                diag(CheckId::PV014, name,
                     "cluster symbol without a cluster directive for '" +
                         base + "'");
            } else if (is_cold && cit->second.coldIndex < 0) {
                diag(CheckId::PV014, name,
                     "cold symbol but '" + base +
                         "' declares no cold cluster");
            } else if (cluster_index >= 0 &&
                       static_cast<size_t>(cluster_index) >=
                           cit->second.clusters.size()) {
                diag(CheckId::PV014, name,
                     "cluster index " + std::to_string(cluster_index) +
                         " out of range for '" + base + "' (" +
                         std::to_string(cit->second.clusters.size()) +
                         " clusters)");
            }
        }
    }
    return report;
}

VerifyReport
lintProfileFlow(const core::WholeProgramDcfg &dcfg,
                const VerifyOptions &opts)
{
    VerifyReport report;
    report.engine.parseSuppressions(opts.suppress);

    for (const auto &fn : dcfg.functions) {
        ++report.functionsChecked;
        std::vector<uint64_t> inflow(fn.nodes.size(), 0);
        std::vector<uint64_t> outflow(fn.nodes.size(), 0);
        std::vector<uint32_t> in_deg(fn.nodes.size(), 0);
        std::vector<uint32_t> out_deg(fn.nodes.size(), 0);
        for (const auto &edge : fn.edges) {
            if (edge.fromNode >= fn.nodes.size() ||
                edge.toNode >= fn.nodes.size())
                continue;
            outflow[edge.fromNode] += edge.weight;
            ++out_deg[edge.fromNode];
            inflow[edge.toNode] += edge.weight;
            ++in_deg[edge.toNode];
        }
        for (size_t n = 0; n < fn.nodes.size(); ++n) {
            if (n == fn.entryNode)
                continue; // Fed by calls, which are not intra-fn edges.
            if (fn.nodes[n].flags & elf::kBbLandingPad)
                continue; // Fed by unwinds.
            if (in_deg[n] == 0 || out_deg[n] == 0)
                continue; // Returns / partially sampled fringes.
            uint64_t hi = std::max(inflow[n], outflow[n]);
            uint64_t lo = std::min(inflow[n], outflow[n]);
            if (hi >= opts.flowMinWeight &&
                static_cast<double>(hi) >
                    opts.flowTolerance * static_cast<double>(lo)) {
                report.engine.report(
                    CheckId::PV016, Severity::Warning, fn.function, 0,
                    "bb" + std::to_string(fn.nodes[n].bbId) +
                        ": in-flow " + std::to_string(inflow[n]) +
                        " vs out-flow " + std::to_string(outflow[n]) +
                        " exceeds the conservation tolerance");
            }
        }
    }
    return report;
}

} // namespace propeller::analysis
