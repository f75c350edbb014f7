#include "codegen/codegen.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "codegen/fingerprint.h"
#include "support/hash.h"

namespace propeller::codegen {

using elf::BbEntry;
using elf::BbRange;
using elf::BlockMark;
using elf::BranchSite;
using elf::FrameDescriptor;
using elf::FunctionAddrMap;
using elf::ObjectFile;
using elf::Section;
using elf::SectionType;
using elf::Symbol;
using elf::SymbolKind;
using elf::TextPiece;

namespace {

/** Alignment of function (primary) sections. */
constexpr uint32_t kFunctionAlignment = 16;

/** Planned text section: symbol plus ordered blocks. */
struct SectionPlan
{
    std::string symbol;
    bool isPrimary = false;
    uint32_t alignment = 1;
    std::vector<const ir::BasicBlock *> blocks;
};

std::vector<SectionPlan>
planSections(const ir::Function &fn, const Options &opts)
{
    std::vector<SectionPlan> plans;

    auto blockById = [&](uint32_t id) -> const ir::BasicBlock * {
        const ir::BasicBlock *bb = fn.findBlock(id);
        assert(bb && "cluster spec references unknown block");
        return bb;
    };

    const ClusterSpec *spec = nullptr;
    if (opts.bbSections == BbSectionsMode::Clusters && opts.clusters &&
        !fn.isHandAsm) {
        auto it = opts.clusters->find(fn.name);
        if (it != opts.clusters->end())
            spec = &it->second;
    }

    if (spec) {
        assert(!spec->clusters.empty() && !spec->clusters[0].empty());
        assert(spec->clusters[0][0] == fn.entry().id &&
               "primary cluster must start with the entry block");
#ifndef NDEBUG
        std::unordered_set<uint32_t> seen;
        size_t listed = 0;
        for (const auto &cluster : spec->clusters) {
            for (uint32_t id : cluster) {
                assert(seen.insert(id).second &&
                       "block listed in two clusters");
                ++listed;
            }
        }
        assert(listed == fn.blocks.size() &&
               "cluster spec must cover every block exactly once");
#endif
        size_t numeric = 0;
        for (size_t c = 0; c < spec->clusters.size(); ++c) {
            SectionPlan plan;
            bool is_cold = static_cast<int>(c) == spec->coldIndex;
            if (c == 0) {
                plan.symbol = fn.name;
                plan.isPrimary = true;
                plan.alignment = kFunctionAlignment;
            } else if (is_cold) {
                plan.symbol = fn.name + ".cold";
                plan.alignment = 4;
            } else {
                plan.symbol = fn.name + "." + std::to_string(++numeric);
                plan.alignment = 4;
            }
            for (uint32_t id : spec->clusters[c])
                plan.blocks.push_back(blockById(id));
            plans.push_back(std::move(plan));
        }
        return plans;
    }

    if (opts.bbSections == BbSectionsMode::All && !fn.isHandAsm) {
        for (size_t i = 0; i < fn.blocks.size(); ++i) {
            SectionPlan plan;
            if (i == 0) {
                plan.symbol = fn.name;
                plan.isPrimary = true;
                plan.alignment = kFunctionAlignment;
            } else {
                plan.symbol =
                    fn.name + ".b" + std::to_string(fn.blocks[i]->id);
                plan.alignment = 1;
            }
            plan.blocks.push_back(fn.blocks[i].get());
            plans.push_back(std::move(plan));
        }
        return plans;
    }

    // Function sections: one section, original block order.
    SectionPlan plan;
    plan.symbol = fn.name;
    plan.isPrimary = true;
    plan.alignment = kFunctionAlignment;
    for (const auto &bb : fn.blocks)
        plan.blocks.push_back(bb.get());
    plans.push_back(std::move(plan));
    return plans;
}

/** Encode a non-control-flow IR instruction into @p out. */
void
encodeBodyInst(const ir::Inst &inst, std::vector<uint8_t> &out)
{
    isa::Instruction m;
    switch (inst.kind) {
      case ir::InstKind::Work:
        m.op = isa::Opcode::Alu;
        break;
      case ir::InstKind::WorkWide:
        m.op = isa::Opcode::AluWide;
        break;
      case ir::InstKind::Load:
        m.op = isa::Opcode::Load;
        break;
      case ir::InstKind::Store:
        m.op = isa::Opcode::Store;
        break;
      default:
        assert(false && "not a body instruction");
    }
    m.reg = inst.reg;
    m.imm = inst.imm;
    m.encode(out);
}

uint8_t
blockFlags(const ir::BasicBlock &bb)
{
    uint8_t flags = 0;
    if (bb.isLandingPad)
        flags |= elf::kBbLandingPad;
    const ir::Inst &term = bb.terminator();
    if (term.kind == ir::InstKind::Ret)
        flags |= elf::kBbReturns;
    if (term.kind == ir::InstKind::CondBr)
        flags |= elf::kBbFallThrough;
    return flags;
}

/** Bytes of embedded non-code data for hand-written assembly sections. */
std::vector<uint8_t>
handAsmDataBlob(const std::string &fn_name)
{
    uint64_t h = fnv1a(fn_name);
    size_t len = 16 + (h % 48);
    std::vector<uint8_t> blob(len);
    for (size_t i = 0; i < len; ++i) {
        // Bytes from the undefined opcode space so linear disassembly of
        // the blob fails (paper sections 1.1 and 5.8).
        blob[i] = 0x30 + static_cast<uint8_t>((h >> (i % 8)) & 0x0f);
    }
    return blob;
}

/** Emit the machine code for one planned section of @p fn. */
Section
emitSection(const ir::Function &fn, const SectionPlan &plan,
            const std::unordered_map<uint32_t, std::string> &section_of)
{
    Section sec;
    sec.name = ".text." + plan.symbol;
    sec.type = SectionType::Text;
    sec.alignment = plan.alignment;
    sec.isHandAsm = fn.isHandAsm;

    auto nextInSection = [&](size_t i) -> const ir::BasicBlock * {
        return i + 1 < plan.blocks.size() ? plan.blocks[i + 1] : nullptr;
    };

    // Landing-pad sections must not begin with the landing pad itself
    // (paper section 4.5): insert a nop so the pad has a nonzero offset.
    if (!plan.blocks.empty() && plan.blocks.front()->isLandingPad) {
        TextPiece pad;
        isa::Instruction nop;
        nop.op = isa::Opcode::Nop;
        nop.encode(pad.bytes);
        sec.pieces.push_back(std::move(pad));
    }

    for (size_t i = 0; i < plan.blocks.size(); ++i) {
        const ir::BasicBlock &bb = *plan.blocks[i];
        TextPiece piece;
        piece.block = BlockMark{bb.id, blockFlags(bb)};

        auto flush = [&](std::optional<BranchSite> site) {
            piece.site = std::move(site);
            sec.pieces.push_back(std::move(piece));
            piece = TextPiece{};
        };

        for (size_t k = 0; k + 1 < bb.insts.size(); ++k) {
            const ir::Inst &inst = bb.insts[k];
            if (inst.kind == ir::InstKind::Call) {
                BranchSite call;
                call.op = isa::Opcode::Call;
                call.targetSymbol = inst.callee;
                call.targetBb = elf::kSectionStart;
                flush(std::move(call));
            } else {
                encodeBodyInst(inst, piece.bytes);
            }
        }

        const ir::Inst &term = bb.terminator();
        const ir::BasicBlock *next = nextInSection(i);
        switch (term.kind) {
          case ir::InstKind::Ret: {
            isa::Instruction ret;
            ret.op = isa::Opcode::Ret;
            ret.encode(piece.bytes);
            flush(std::nullopt);
            break;
          }
          case ir::InstKind::Br: {
            if (next && next->id == term.target) {
                // Intra-section fall through; no instruction needed.
                flush(std::nullopt);
            } else {
                BranchSite jmp;
                jmp.op = isa::Opcode::JmpNear;
                jmp.targetSymbol = section_of.at(term.target);
                jmp.targetBb = term.target;
                jmp.isFallThrough = true;
                flush(std::move(jmp));
            }
            break;
          }
          case ir::InstKind::CondBr: {
            assert(term.trueTarget != term.falseTarget &&
                   "degenerate conditional branch");
            BranchSite jcc;
            jcc.op = isa::Opcode::JccNear;
            jcc.bias = term.bias;
            jcc.branchId = term.branchId;
            if (term.periodic)
                jcc.flags |= isa::kJccPeriodic;
            uint32_t jcc_target;
            std::optional<uint32_t> explicit_fall;
            if (next && next->id == term.falseTarget) {
                jcc_target = term.trueTarget;
            } else if (next && next->id == term.trueTarget) {
                jcc.flags |= isa::kJccInvert;
                jcc_target = term.falseTarget;
            } else {
                jcc_target = term.trueTarget;
                explicit_fall = term.falseTarget;
            }
            jcc.targetSymbol = section_of.at(jcc_target);
            jcc.targetBb = jcc_target;
            flush(std::move(jcc));
            if (explicit_fall) {
                // Explicit fall-through jump, deletable by relaxation if
                // the linker places the target right after it (4.2).
                TextPiece tail;
                BranchSite jmp;
                jmp.op = isa::Opcode::JmpNear;
                jmp.targetSymbol = section_of.at(*explicit_fall);
                jmp.targetBb = *explicit_fall;
                jmp.isFallThrough = true;
                tail.site = std::move(jmp);
                sec.pieces.push_back(std::move(tail));
            }
            break;
          }
          default:
            assert(false && "block must end in a terminator");
        }
    }

    if (fn.isHandAsm) {
        TextPiece blob;
        blob.bytes = handAsmDataBlob(fn.name);
        sec.pieces.push_back(std::move(blob));
    }
    return sec;
}

/**
 * Compute the provisional (pre-relaxation, all-near-form) address map for
 * one emitted section.
 */
BbRange
provisionalRange(const Section &sec, const std::string &symbol)
{
    BbRange range;
    range.sectionSymbol = symbol;
    uint32_t offset = 0;
    for (const auto &piece : sec.pieces) {
        if (piece.block) {
            if (!range.blocks.empty()) {
                BbEntry &prev = range.blocks.back();
                prev.size = offset - prev.offset;
            }
            BbEntry entry;
            entry.bbId = piece.block->bbId;
            entry.offset = offset;
            entry.flags = piece.block->flags;
            range.blocks.push_back(entry);
        }
        offset += piece.bytes.size();
        if (piece.site)
            offset += isa::Instruction::sizeOf(piece.site->op);
    }
    if (!range.blocks.empty())
        range.blocks.back().size = offset - range.blocks.back().offset;
    return range;
}

} // namespace

std::string
clusterSymbolName(const std::string &fn, size_t index, bool is_cold)
{
    if (index == 0)
        return fn;
    if (is_cold)
        return fn + ".cold";
    return fn + "." + std::to_string(index);
}

ObjectFile
compileModule(const ir::Module &mod, const Options &opts)
{
    ObjectFile obj;
    obj.name = mod.name + ".o";

    uint64_t lsda_bytes = 0;
    std::vector<FunctionAddrMap> addr_maps;

    for (const auto &fn : mod.functions) {
        std::vector<SectionPlan> plans = planSections(*fn, opts);

        // Map every block id to its section symbol for branch targets.
        std::unordered_map<uint32_t, std::string> section_of;
        for (const auto &plan : plans) {
            for (const ir::BasicBlock *bb : plan.blocks)
                section_of.emplace(bb->id, plan.symbol);
        }

        const bool keep_map = opts.emitAddrMapSection && !fn->isHandAsm;
        FunctionAddrMap map;
        map.functionName = fn->name;

        bool has_landing_pads = false;
        size_t call_sites = 0;
        for (const auto &bb : fn->blocks) {
            if (bb->isLandingPad)
                has_landing_pads = true;
            for (const auto &inst : bb->insts) {
                if (inst.kind == ir::InstKind::Call)
                    ++call_sites;
            }
        }

        for (const auto &plan : plans) {
            Section sec = emitSection(*fn, plan, section_of);
            uint32_t section_index =
                static_cast<uint32_t>(obj.sections.size());

            if (keep_map)
                map.ranges.push_back(provisionalRange(sec, plan.symbol));

            FrameDescriptor fde;
            fde.sectionSymbol = plan.symbol;
            fde.codeLength = static_cast<uint32_t>(sec.size());
            fde.savedRegs = static_cast<uint8_t>(fnv1a(fn->name) % 5 + 1);
            obj.frames.push_back(fde);

            Symbol sym;
            sym.name = plan.symbol;
            sym.sectionIndex = section_index;
            sym.kind =
                plan.isPrimary ? SymbolKind::Function : SymbolKind::Cluster;
            sym.parentFunction = fn->name;
            obj.symbols.push_back(std::move(sym));
            obj.sections.push_back(std::move(sec));
        }

        if (keep_map) {
            // Attach the stale-profile fingerprints (v2 metadata): the
            // hashes are a pure function of the IR, so they are identical
            // across every layout codegen can be asked to produce.
            FunctionFingerprint fp = fingerprintFunction(*fn);
            map.functionHash = fp.functionHash;
            for (auto &range : map.ranges) {
                for (auto &entry : range.blocks) {
                    entry.hash = fp.blockHash.at(entry.bbId);
                    map.setSuccessors(
                        entry, fn->findBlock(entry.bbId)->successors());
                }
            }
            addr_maps.push_back(std::move(map));
        }

        if (has_landing_pads) {
            // Call-site table split across ranges (paper section 4.5):
            // base LSDA + one entry per call site + header per range.
            lsda_bytes += 8 + 4 * call_sites + 8 * plans.size();
        }
        if (fn->hasIntegrityCheck)
            obj.integrityCheckedFunctions.push_back(fn->name);
    }

    // Flatten CFI frame descriptors and LSDA tables into .eh_frame bytes.
    uint64_t eh_bytes = lsda_bytes;
    for (const auto &fde : obj.frames)
        eh_bytes += fde.byteSize();
    if (eh_bytes > 0) {
        Section eh;
        eh.name = ".eh_frame";
        eh.type = SectionType::EhFrame;
        eh.alignment = 8;
        eh.bytes.assign(eh_bytes, 0);
        obj.sections.push_back(std::move(eh));
    }

    if (opts.emitDebugInfo) {
        // Debug info scales with code: descriptors per function, range
        // entries per fragment (DW_AT_ranges + two endpoint relocations,
        // paper 4.3), plus line/type payload proportional to text.
        uint64_t text_bytes = 0;
        for (const auto &sec : obj.sections) {
            if (sec.type == SectionType::Text)
                text_bytes += sec.size();
        }
        uint64_t ranges = obj.frames.size();
        uint64_t debug_bytes =
            text_bytes * 22 / 10 + ranges * 24 + mod.functions.size() * 40;
        Section dbg;
        dbg.name = ".debug_info";
        dbg.type = SectionType::Debug;
        dbg.alignment = 1;
        dbg.bytes.assign(debug_bytes, 0);
        obj.sections.push_back(std::move(dbg));
        obj.debugRelocs = static_cast<uint32_t>(
            ranges * 2 + debug_bytes / 26);
    }

    if (!addr_maps.empty()) {
        Section bam;
        bam.name = ".bb_addr_map";
        bam.type = SectionType::BbAddrMap;
        bam.alignment = 1;
        bam.bytes = elf::encodeAddrMaps(addr_maps);
        obj.sections.push_back(std::move(bam));
    }

    if (mod.rodataBytes > 0) {
        Section ro;
        ro.name = ".rodata." + mod.name;
        ro.type = SectionType::RoData;
        ro.alignment = 8;
        ro.bytes.assign(mod.rodataBytes, 0);
        obj.sections.push_back(std::move(ro));
    }

    return obj;
}

std::vector<ObjectFile>
compileProgram(const ir::Program &program, const Options &opts)
{
    std::vector<ObjectFile> objects;
    objects.reserve(program.modules.size());
    for (const auto &mod : program.modules)
        objects.push_back(compileModule(*mod, opts));
    return objects;
}

std::vector<std::string>
sanitizeClusterMap(const ir::Program &program, ClusterMap &clusters)
{
    std::vector<std::string> dropped;
    for (auto it = clusters.begin(); it != clusters.end();) {
        const ClusterSpec &spec = it->second;
        const ir::Function *fn = program.findFunction(it->first);
        bool sane = fn != nullptr && !spec.clusters.empty() &&
                    !spec.clusters[0].empty() &&
                    spec.coldIndex < static_cast<int>(spec.clusters.size());
        if (sane)
            sane = spec.clusters[0][0] == fn->entry().id;
        if (sane) {
            std::unordered_set<uint32_t> seen;
            size_t listed = 0;
            for (const auto &cluster : spec.clusters) {
                for (uint32_t id : cluster) {
                    if (!fn->findBlock(id) || !seen.insert(id).second) {
                        sane = false;
                        break;
                    }
                    ++listed;
                }
                if (!sane)
                    break;
            }
            sane = sane && listed == fn->blocks.size();
        }
        if (sane) {
            ++it;
        } else {
            dropped.push_back(it->first);
            it = clusters.erase(it);
        }
    }
    return dropped;
}

} // namespace propeller::codegen
