#include "bolt/bolt.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "propeller/ext_tsp.h"
#include "propeller/hfsort.h"

namespace propeller::bolt {

namespace {

using core::ExtTspOptions;
using core::LayoutEdge;
using core::LayoutNode;
using isa::Instruction;
using isa::Opcode;

constexpr uint64_t kHugePage = 2 * 1024 * 1024;

/** Modelled MCPlus annotation bytes per instruction during rewriting. */
constexpr uint64_t kAnnotationBytesPerInst = 48;

uint64_t
alignUp(uint64_t value, uint64_t alignment)
{
    return (value + alignment - 1) / alignment * alignment;
}

/** Per-function profile attribution. */
struct FuncProfile
{
    std::vector<uint64_t> blockFreq;
    // (fromBlock << 32 | toBlock) -> weight, intra-function branches.
    std::unordered_map<uint64_t, uint64_t> edges;
    uint64_t totalSamples = 0;
};

/** Locate the function containing an address via sorted starts. */
class FunctionIndex
{
  public:
    explicit FunctionIndex(const std::vector<BoltFunction> &funcs)
    {
        for (size_t i = 0; i < funcs.size(); ++i)
            starts_.push_back({funcs[i].start, funcs[i].end,
                               static_cast<uint32_t>(i)});
        std::sort(starts_.begin(), starts_.end());
    }

    int
    at(uint64_t addr) const
    {
        auto it = std::upper_bound(
            starts_.begin(), starts_.end(),
            std::tuple<uint64_t, uint64_t, uint32_t>{addr, UINT64_MAX,
                                                     UINT32_MAX});
        if (it == starts_.begin())
            return -1;
        --it;
        if (addr >= std::get<1>(*it))
            return -1;
        return static_cast<int>(std::get<2>(*it));
    }

    /** Function whose body starts exactly at @p addr; -1 otherwise. */
    int
    startingAt(uint64_t addr) const
    {
        auto it = std::lower_bound(
            starts_.begin(), starts_.end(),
            std::tuple<uint64_t, uint64_t, uint32_t>{addr, 0, 0});
        if (it == starts_.end() || std::get<0>(*it) != addr)
            return -1;
        return static_cast<int>(std::get<2>(*it));
    }

  private:
    std::vector<std::tuple<uint64_t, uint64_t, uint32_t>> starts_;
};

/** Attribute aggregated LBR counts to blocks and intra-function edges. */
std::vector<FuncProfile>
attributeProfile(const std::vector<BoltFunction> &funcs,
                 const FunctionIndex &index,
                 const profile::AggregatedProfile &agg)
{
    std::vector<FuncProfile> profiles(funcs.size());
    for (size_t i = 0; i < funcs.size(); ++i)
        profiles[i].blockFreq.assign(funcs[i].blocks.size(), 0);

    std::vector<std::unordered_map<uint64_t, uint64_t>> in(funcs.size());
    std::vector<std::unordered_map<uint64_t, uint64_t>> out(funcs.size());

    auto addFlow = [&](int f, int block, uint64_t w, bool incoming) {
        auto &map = incoming ? in[f] : out[f];
        map[block] += w;
    };

    for (const auto &[key, weight] : agg.branches) {
        uint64_t from = profile::AggregatedProfile::keyFrom(key);
        uint64_t to = profile::AggregatedProfile::keyTo(key);
        int ff = index.at(from);
        int ft = index.at(to);
        if (ff < 0 || ft < 0 || !funcs[ff].ok || !funcs[ft].ok)
            continue;
        int bf = funcs[ff].blockAt(from);
        int bt = funcs[ft].blockAt(to);
        if (bf < 0 || bt < 0)
            continue;
        if (ff == ft && funcs[ft].blocks[bt].start == to) {
            profiles[ff].edges[(static_cast<uint64_t>(bf) << 32) | bt] +=
                weight;
            addFlow(ff, bf, weight, false);
            addFlow(ft, bt, weight, true);
        } else if (ff != ft) {
            // Call or return; counts toward hotness of both endpoints.
            addFlow(ff, bf, weight, false);
            addFlow(ft, bt, weight, true);
        }
    }

    for (const auto &[key, weight] : agg.ranges) {
        uint64_t start = profile::AggregatedProfile::keyFrom(key);
        uint64_t end = profile::AggregatedProfile::keyTo(key);
        int f = index.at(start);
        if (f < 0 || !funcs[f].ok || end < start)
            continue;
        int b = funcs[f].blockAt(start);
        if (b < 0)
            continue;
        addFlow(f, b, weight, true);
        int steps = 0;
        while (static_cast<size_t>(b) + 1 < funcs[f].blocks.size() &&
               end >= funcs[f].blocks[b].end && ++steps < 512) {
            int nb = b + 1;
            if (funcs[f].blocks[nb].start != funcs[f].blocks[b].end)
                break;
            profiles[f].edges[(static_cast<uint64_t>(b) << 32) | nb] +=
                weight;
            addFlow(f, b, weight, false);
            addFlow(f, nb, weight, true);
            b = nb;
        }
    }

    for (size_t f = 0; f < funcs.size(); ++f) {
        for (size_t b = 0; b < funcs[f].blocks.size(); ++b) {
            uint64_t wi = 0;
            uint64_t wo = 0;
            if (auto it = in[f].find(b); it != in[f].end())
                wi = it->second;
            if (auto it = out[f].find(b); it != out[f].end())
                wo = it->second;
            profiles[f].blockFreq[b] = std::max(wi, wo);
            profiles[f].totalSamples += profiles[f].blockFreq[b];
        }
    }
    return profiles;
}

} // namespace

BoltProfile
convertProfile(const linker::Executable &exe, const profile::Profile &prof,
               BoltStats *stats_out, MemoryMeter *meter, bool selective)
{
    BoltStats stats;
    MemoryMeter local;

    // Raw profile buffered and decoded.
    local.charge(prof.sizeInBytes() * 2);

    // The binary itself plus function-oriented linear disassembly —
    // required just to resolve sample addresses (paper section 5.1).
    local.charge(exe.text.size());
    {
        std::vector<BoltFunction> funcs;
        if (selective) {
            // Lightning-BOLT-style selective processing: find the
            // functions containing sample addresses with the symbol
            // table alone, then disassemble only those.
            std::vector<uint64_t> sampled_addrs;
            for (const auto &sample : prof.samples) {
                for (unsigned i = 0; i < sample.count; ++i)
                    sampled_addrs.push_back(sample.records[i].from);
            }
            std::sort(sampled_addrs.begin(), sampled_addrs.end());

            linker::Executable view = exe;
            view.symbols.clear();
            for (const auto &sym : exe.symbols) {
                if (!sym.isPrimary)
                    continue;
                auto it = std::lower_bound(sampled_addrs.begin(),
                                           sampled_addrs.end(), sym.start);
                if (it != sampled_addrs.end() && *it < sym.end)
                    view.symbols.push_back(sym);
            }
            funcs = disassembleBinary(view);
        } else {
            funcs = disassembleBinary(exe);
        }

        uint64_t disasm_bytes = 0;
        for (const auto &fn : funcs) {
            disasm_bytes += fn.footprint();
            stats.disassembledInsts += fn.insts.size();
            if (fn.ok)
                ++stats.functionsProcessed;
            else
                ++stats.functionsSkipped;
        }
        local.charge(disasm_bytes);

        BoltProfile out;
        out.agg = profile::aggregate(prof);
        local.charge((out.agg.branches.size() + out.agg.ranges.size()) *
                     48);

        stats.convertPeakMemory = local.peak();
        if (meter) {
            meter->charge(stats.convertPeakMemory);
            meter->release(stats.convertPeakMemory);
        }
        if (stats_out)
            *stats_out = stats;
        return out;
    }
}

linker::Executable
optimize(const linker::Executable &exe, const BoltProfile &profile,
         const BoltOptions &opts, BoltStats *stats_out, MemoryMeter *meter)
{
    BoltStats stats;
    MemoryMeter local;

    local.charge(exe.text.size()); // Input binary buffered.

    std::vector<BoltFunction> funcs = disassembleBinary(exe);
    FunctionIndex index(funcs);
    uint64_t disasm_bytes = 0;
    for (const auto &fn : funcs) {
        disasm_bytes += fn.footprint();
        stats.disassembledInsts += fn.insts.size();
    }
    local.charge(disasm_bytes);
    // MCPlus annotations for every instruction being rewritten.
    local.charge(stats.disassembledInsts * kAnnotationBytesPerInst);

    std::vector<FuncProfile> profiles =
        attributeProfile(funcs, index, profile.agg);
    {
        uint64_t edge_bytes = 0;
        for (const auto &p : profiles)
            edge_bytes += p.edges.size() * 48 + p.blockFreq.size() * 8;
        local.charge(edge_bytes);
    }

    // ---- Select and order the functions to rewrite ----------------------
    std::vector<uint32_t> processed;
    for (uint32_t f = 0; f < funcs.size(); ++f) {
        if (!funcs[f].ok) {
            ++stats.functionsSkipped;
            continue;
        }
        if (opts.lite && profiles[f].totalSamples == 0)
            continue;
        processed.push_back(f);
    }
    stats.functionsProcessed = static_cast<uint32_t>(processed.size());

    // -reorder-functions=hfsort over the sampled arcs between the
    // rewritten functions.
    std::vector<core::HfsortNode> nodes(processed.size());
    std::unordered_map<uint32_t, uint32_t> local_of;
    for (uint32_t i = 0; i < processed.size(); ++i) {
        uint32_t f = processed[i];
        nodes[i].size = std::max<uint64_t>(funcs[f].end - funcs[f].start, 1);
        nodes[i].samples = profiles[f].totalSamples;
        local_of[f] = i;
    }
    std::vector<core::HfsortArc> arcs;
    for (const auto &[key, weight] : profile.agg.branches) {
        uint64_t from = profile::AggregatedProfile::keyFrom(key);
        uint64_t to = profile::AggregatedProfile::keyTo(key);
        int ff = index.at(from);
        int ft = index.startingAt(to);
        if (ff < 0 || ft < 0 || ff == ft)
            continue;
        auto itf = local_of.find(ff);
        auto itt = local_of.find(ft);
        if (itf == local_of.end() || itt == local_of.end())
            continue;
        arcs.push_back({itf->second, itt->second, weight});
    }
    std::vector<uint32_t> order;
    for (uint32_t p : core::hfsortOrder(nodes, arcs))
        order.push_back(processed[p]);

    // ---- Per-function block layout ---------------------------------------
    // For each processed function: ordered hot blocks + cold block list.
    std::vector<std::vector<uint32_t>> hot_layout(funcs.size());
    std::vector<std::vector<uint32_t>> cold_layout(funcs.size());

    for (uint32_t f : processed) {
        const BoltFunction &fn = funcs[f];
        const FuncProfile &fp = profiles[f];
        size_t nblocks = fn.blocks.size();
        if (fp.totalSamples == 0) {
            for (uint32_t b = 0; b < nblocks; ++b)
                hot_layout[f].push_back(b);
            continue;
        }
        std::vector<char> hot(nblocks, 0);
        for (size_t b = 0; b < nblocks; ++b)
            hot[b] = fp.blockFreq[b] > 0;
        hot[0] = 1; // Entry block anchors the function.
        std::vector<LayoutNode> lnodes;
        std::vector<int> lindex(nblocks, -1);
        std::vector<uint32_t> lblock;
        for (uint32_t b = 0; b < nblocks; ++b) {
            if (!hot[b])
                continue;
            lindex[b] = static_cast<int>(lnodes.size());
            lnodes.push_back(
                {std::max<uint64_t>(fn.blocks[b].end - fn.blocks[b].start,
                                    1),
                 fp.blockFreq[b]});
            lblock.push_back(b);
        }
        std::vector<LayoutEdge> ledges;
        for (const auto &[key, weight] : fp.edges) {
            int a = lindex[key >> 32];
            int b = lindex[key & 0xffffffff];
            if (a >= 0 && b >= 0) {
                ledges.push_back({static_cast<uint32_t>(a),
                                  static_cast<uint32_t>(b), weight});
            }
        }
        std::vector<uint32_t> horder = core::extTspOrder(
            lnodes, ledges, static_cast<uint32_t>(lindex[0]),
            ExtTspOptions{});
        for (uint32_t i : horder)
            hot_layout[f].push_back(lblock[i]);
        for (uint32_t b = 0; b < nblocks; ++b) {
            if (!hot[b])
                cold_layout[f].push_back(b);
        }
    }

    // ---- Emission ---------------------------------------------------------
    struct EmitBlock
    {
        uint32_t func;
        uint32_t block;
        bool firstOfFunc = false;
        // Terminator decision (computed in the sizing pass).
        uint64_t size = 0;
        bool emitJcc = false;
        bool invertJcc = false;
        uint64_t jccTarget = 0; ///< Old address of the Jcc target block.
        bool emitJmp = false;
        uint64_t jmpTarget = 0; ///< Old address of the trailing jump target.
    };

    std::vector<EmitBlock> emit;
    for (uint32_t f : order) {
        bool first = true;
        for (uint32_t b : hot_layout[f]) {
            emit.push_back({f, b, first});
            first = false;
        }
    }
    // Cold zone after all hot parts.
    for (uint32_t f : order) {
        bool first = true;
        for (uint32_t b : cold_layout[f]) {
            emit.push_back({f, b, first});
            first = false;
        }
    }

    // Sizing pass: decide terminator encodings from emission adjacency.
    for (size_t e = 0; e < emit.size(); ++e) {
        EmitBlock &eb = emit[e];
        const BoltFunction &fn = funcs[eb.func];
        const BoltBlock &block = fn.blocks[eb.block];

        uint64_t next_old_start = 0;
        bool has_next_same_func = false;
        if (e + 1 < emit.size() && emit[e + 1].func == eb.func) {
            has_next_same_func = true;
            next_old_start = fn.blocks[emit[e + 1].block].start;
        }

        uint64_t body = 0;
        bool ends_with_branch = false;
        const BoltInst *last = nullptr;
        for (uint32_t i = 0; i < block.numInsts; ++i) {
            const BoltInst &bi = fn.insts[block.firstInst + i];
            bool is_last = (i + 1 == block.numInsts);
            if (is_last && (bi.inst.isCondBranch() ||
                            bi.inst.isUncondBranch())) {
                ends_with_branch = true;
                last = &bi;
            } else {
                body += bi.inst.size();
            }
        }
        eb.size = body;

        if (ends_with_branch && last->inst.isCondBranch()) {
            uint64_t t = last->addr + last->inst.size() +
                         static_cast<int64_t>(last->inst.rel);
            uint64_t fthru = block.end;
            if (has_next_same_func && next_old_start == fthru) {
                eb.emitJcc = true;
                eb.invertJcc = false;
                eb.jccTarget = t;
            } else if (has_next_same_func && next_old_start == t) {
                eb.emitJcc = true;
                eb.invertJcc = true;
                eb.jccTarget = fthru;
            } else {
                eb.emitJcc = true;
                eb.invertJcc = false;
                eb.jccTarget = t;
                eb.emitJmp = true;
                eb.jmpTarget = fthru;
            }
            eb.size += Instruction::sizeOf(Opcode::JccNear);
            if (eb.emitJmp)
                eb.size += Instruction::sizeOf(Opcode::JmpNear);
        } else if (ends_with_branch) {
            uint64_t t = last->addr + last->inst.size() +
                         static_cast<int64_t>(last->inst.rel);
            if (!(has_next_same_func && next_old_start == t)) {
                eb.emitJmp = true;
                eb.jmpTarget = t;
                eb.size += Instruction::sizeOf(Opcode::JmpNear);
            }
        } else {
            // Block falls through (ends at a leader boundary or a
            // ret/halt); returns and halts are part of the body.
            const BoltInst &bi = fn.insts[block.firstInst +
                                          block.numInsts - 1];
            bool terminal = bi.inst.isRet() || bi.inst.op == Opcode::Halt;
            if (!terminal &&
                !(has_next_same_func && next_old_start == block.end)) {
                eb.emitJmp = true;
                eb.jmpTarget = block.end;
                eb.size += Instruction::sizeOf(Opcode::JmpNear);
            }
        }
    }

    // Address assignment.
    uint64_t new_base =
        alignUp(exe.textEnd(), opts.alignTextTo2M ? kHugePage : 4096);
    // Old block address -> new block address, per function.
    std::unordered_map<uint64_t, uint64_t> new_addr;
    uint64_t cursor = new_base;
    for (auto &eb : emit) {
        if (eb.firstOfFunc)
            cursor = alignUp(cursor, 16);
        new_addr[funcs[eb.func].blocks[eb.block].start] = cursor;
        cursor += eb.size;
    }
    uint64_t new_end = cursor;
    stats.newTextBytes = new_end - new_base;
    local.charge(stats.newTextBytes); // Output buffer.

    // New primary entry per processed function.
    std::unordered_map<uint32_t, uint64_t> func_new_start;
    std::unordered_map<uint32_t, uint64_t> func_new_end;
    for (const auto &eb : emit) {
        const BoltFunction &fn = funcs[eb.func];
        uint64_t na = new_addr[fn.blocks[eb.block].start];
        // The primary range covers the hot part only; track its extent.
        bool is_hot_part = false;
        for (uint32_t b : hot_layout[eb.func])
            is_hot_part |= (b == eb.block);
        if (is_hot_part) {
            auto [it, inserted] = func_new_start.emplace(eb.func, na);
            if (!inserted)
                it->second = std::min(it->second, na);
            auto [it2, ins2] = func_new_end.emplace(eb.func, na + eb.size);
            if (!ins2)
                it2->second = std::max(it2->second, na + eb.size);
        }
    }

    auto resolveCall = [&](uint64_t old_target) -> uint64_t {
        int callee = index.startingAt(old_target);
        if (callee < 0)
            return old_target;
        auto it = func_new_start.find(static_cast<uint32_t>(callee));
        if (it == func_new_start.end())
            return old_target; // Skipped function: stays in old text.
        return it->second;
    };

    auto resolveBlock = [&](uint64_t old_block_start) -> uint64_t {
        auto it = new_addr.find(old_block_start);
        assert(it != new_addr.end() && "branch to un-emitted block");
        return it->second;
    };

    // Encoding pass.
    linker::Executable out;
    out.name = exe.name + ".bolt";
    out.textBase = exe.textBase;
    out.hugePagesText = exe.hugePagesText;
    out.text = exe.text;
    out.text.resize(new_end - exe.textBase,
                    static_cast<uint8_t>(Opcode::Nop));

    std::vector<uint8_t> scratch;
    for (const auto &eb : emit) {
        const BoltFunction &fn = funcs[eb.func];
        const BoltBlock &block = fn.blocks[eb.block];
        uint64_t pc = new_addr[block.start];

        auto emitInst = [&](Instruction inst) {
            scratch.clear();
            inst.encode(scratch);
            std::copy(scratch.begin(), scratch.end(),
                      out.text.begin() + (pc - out.textBase));
            pc += scratch.size();
        };

        for (uint32_t i = 0; i < block.numInsts; ++i) {
            const BoltInst &bi = fn.insts[block.firstInst + i];
            bool is_last = (i + 1 == block.numInsts);
            if (is_last &&
                (bi.inst.isCondBranch() || bi.inst.isUncondBranch())) {
                break; // Terminator re-emitted below.
            }
            Instruction inst = bi.inst;
            if (inst.isCall()) {
                uint64_t old_target = bi.addr + inst.size() +
                                      static_cast<int64_t>(inst.rel);
                uint64_t target = resolveCall(old_target);
                inst.rel = static_cast<int32_t>(
                    static_cast<int64_t>(target) -
                    static_cast<int64_t>(pc + inst.size()));
            }
            emitInst(inst);
        }

        if (eb.emitJcc) {
            const BoltInst &last =
                fn.insts[block.firstInst + block.numInsts - 1];
            Instruction jcc = last.inst;
            jcc.op = Opcode::JccNear;
            if (eb.invertJcc)
                jcc.flags ^= isa::kJccInvert;
            uint64_t target = resolveBlock(eb.jccTarget);
            jcc.rel = static_cast<int32_t>(
                static_cast<int64_t>(target) -
                static_cast<int64_t>(pc + jcc.size()));
            emitInst(jcc);
        }
        if (eb.emitJmp) {
            Instruction jmp;
            jmp.op = Opcode::JmpNear;
            uint64_t target = resolveBlock(eb.jmpTarget);
            jmp.rel = static_cast<int32_t>(
                static_cast<int64_t>(target) -
                static_cast<int64_t>(pc + jmp.size()));
            emitInst(jmp);
        }
        assert(pc == new_addr[block.start] + eb.size);
    }

    // ---- Symbols, entry, sizes -------------------------------------------
    for (const auto &sym : exe.symbols) {
        linker::FuncRange range = sym;
        int f = index.startingAt(sym.start);
        if (f >= 0 && sym.isPrimary) {
            auto it = func_new_start.find(static_cast<uint32_t>(f));
            if (it != func_new_start.end()) {
                range.start = it->second;
                range.end = func_new_end[static_cast<uint32_t>(f)];
            }
        }
        out.symbols.push_back(std::move(range));
    }
    // Cold-zone ranges.
    for (uint32_t f : order) {
        if (cold_layout[f].empty())
            continue;
        uint64_t lo = UINT64_MAX;
        uint64_t hi = 0;
        for (const auto &eb : emit) {
            if (eb.func != f)
                continue;
            bool is_cold = false;
            for (uint32_t b : cold_layout[f])
                is_cold |= (b == eb.block);
            if (!is_cold)
                continue;
            uint64_t na = new_addr[funcs[f].blocks[eb.block].start];
            lo = std::min(lo, na);
            hi = std::max(hi, na + eb.size);
        }
        if (lo < hi) {
            out.symbols.push_back({funcs[f].name + ".bolt.cold",
                                   funcs[f].name, lo, hi, false, false});
        }
    }

    int entry_func = index.at(exe.entryAddress);
    assert(entry_func >= 0);
    auto eit = func_new_start.find(static_cast<uint32_t>(entry_func));
    out.entryAddress =
        eit != func_new_start.end() ? eit->second : exe.entryAddress;

    // Integrity-check constants are application data the rewriter cannot
    // regenerate; copied verbatim (section 5.8).
    out.integrityChecks = exe.integrityChecks;

    out.sizes = exe.sizes;
    out.sizes.text = out.text.size();
    out.sizes.relocs = 0; // Consumed during rewriting.
    // Split functions need extra FDEs for their cold fragments (-split-eh).
    uint32_t split_funcs = 0;
    for (uint32_t f : order) {
        if (!cold_layout[f].empty())
            ++split_funcs;
    }
    out.sizes.ehFrame = exe.sizes.ehFrame + split_funcs * 32ull;

    stats.optPeakMemory = local.peak();
    if (meter) {
        meter->charge(stats.optPeakMemory);
        meter->release(stats.optPeakMemory);
    }
    if (stats_out)
        *stats_out = stats;
    return out;
}

} // namespace propeller::bolt
