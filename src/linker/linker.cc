#include "linker/linker.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "isa/isa.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::linker {

namespace {

using elf::BranchSite;
using elf::ObjectFile;
using elf::Section;
using elf::SectionType;
using isa::Opcode;
using support::ErrorCode;
using support::makeError;

constexpr uint64_t kHugePage = 2 * 1024 * 1024;

uint64_t
alignUp(uint64_t value, uint64_t alignment)
{
    if (alignment <= 1)
        return value;
    return (value + alignment - 1) / alignment * alignment;
}

/** Encoding state of one branch site. */
enum class SiteState : uint8_t { Deleted, Short, Long };

struct Site
{
    const BranchSite *src = nullptr;
    uint32_t sect = 0;   ///< Owning internal section index.
    uint64_t offset = 0; ///< Offset within section (per iteration).
    int32_t targetSect = -1;
    SiteState state = SiteState::Long;

    bool isCall() const { return src->op == Opcode::Call; }

    uint64_t
    encodedSize() const
    {
        switch (state) {
          case SiteState::Deleted:
            return 0;
          case SiteState::Short:
            return isa::Instruction::sizeOf(src->op == Opcode::JccNear
                                                ? Opcode::JccShort
                                                : Opcode::JmpShort);
          case SiteState::Long:
            return isa::Instruction::sizeOf(src->op);
        }
        return 0;
    }
};

/** One flattened content unit of an internal section. */
struct Chunk
{
    int32_t blockSlot = -1;                    ///< Starts this block slot.
    const std::vector<uint8_t> *bytes = nullptr; ///< May be empty.
    int32_t siteIndex = -1;                    ///< Trailing branch site.
};

/** Internal, relaxable representation of one input text section. */
struct Sect
{
    std::string symbol;
    std::string parentFunction;
    std::string objectName;
    bool isPrimary = false;
    bool isHandAsm = false;
    uint32_t alignment = 1;

    std::vector<Chunk> chunks;
    std::vector<uint32_t> blockIds;   ///< Slot -> bb id.
    std::vector<uint8_t> blockFlags;  ///< Slot -> BbFlags.
    std::unordered_map<uint32_t, uint32_t> slotOf;

    // Recomputed each sizing iteration.
    std::vector<uint64_t> blockOffsets;
    uint64_t addr = 0;
    uint64_t size = 0;
};

} // namespace

support::StatusOr<Executable>
linkChecked(const std::vector<ObjectFile> &objects, const Options &opts,
            LinkStats *stats_out)
{
    LinkStats stats;
    MemoryMeter meter;

    // ---- Gather sections and symbols -----------------------------------
    std::vector<Sect> sects;
    std::vector<Site> sites;
    std::unordered_map<std::string, uint32_t> sect_by_symbol;

    for (const auto &obj : objects) {
        stats.inputBytes += obj.sizeInBytes();

        // Map section index -> defining symbol within this object.
        std::unordered_map<uint32_t, const elf::Symbol *> sym_of_section;
        for (const auto &sym : obj.symbols)
            sym_of_section[sym.sectionIndex] = &sym;

        for (size_t si = 0; si < obj.sections.size(); ++si) {
            const Section &sec = obj.sections[si];
            if (sec.type != SectionType::Text)
                continue;
            auto sym_it = sym_of_section.find(static_cast<uint32_t>(si));
            if (sym_it == sym_of_section.end())
                return makeError(ErrorCode::kMalformed,
                                 "object " + obj.name + ": text section " +
                                     sec.name + " has no defining symbol");
            const elf::Symbol *sym = sym_it->second;

            Sect sect;
            sect.symbol = sym->name;
            sect.parentFunction = sym->parentFunction;
            sect.objectName = obj.name;
            sect.isPrimary = sym->kind == elf::SymbolKind::Function;
            sect.isHandAsm = sec.isHandAsm;
            sect.alignment = sec.alignment;

            for (const auto &piece : sec.pieces) {
                Chunk chunk;
                if (piece.block) {
                    chunk.blockSlot =
                        static_cast<int32_t>(sect.blockIds.size());
                    sect.slotOf.emplace(piece.block->bbId,
                                        sect.blockIds.size());
                    sect.blockIds.push_back(piece.block->bbId);
                    sect.blockFlags.push_back(piece.block->flags);
                }
                chunk.bytes = &piece.bytes;
                if (piece.site) {
                    chunk.siteIndex = static_cast<int32_t>(sites.size());
                    Site site;
                    site.src = &*piece.site;
                    site.sect = static_cast<uint32_t>(sects.size());
                    sites.push_back(site);
                }
                sect.chunks.push_back(chunk);
            }
            sect.blockOffsets.resize(sect.blockIds.size(), 0);

            bool inserted =
                sect_by_symbol
                    .emplace(sect.symbol,
                             static_cast<uint32_t>(sects.size()))
                    .second;
            if (!inserted)
                return makeError(ErrorCode::kMalformed,
                                 "duplicate section symbol " + sect.symbol +
                                     " (object " + obj.name + ")");
            sects.push_back(std::move(sect));
        }
    }

    // Resolve every site's target section now that all symbols are known,
    // and validate block-level targets up front so the layout loop below
    // can index without re-checking.
    for (auto &site : sites) {
        auto it = sect_by_symbol.find(site.src->targetSymbol);
        if (it == sect_by_symbol.end())
            return makeError(ErrorCode::kUnresolved,
                             "unresolved symbol " + site.src->targetSymbol +
                                 " (referenced from " +
                                 sects[site.sect].symbol + ")");
        site.targetSect = static_cast<int32_t>(it->second);
        if (site.src->targetBb != elf::kSectionStart &&
            !sects[it->second].slotOf.count(site.src->targetBb))
            return makeError(ErrorCode::kUnresolved,
                             "branch to unmapped block #" +
                                 std::to_string(site.src->targetBb) +
                                 " in " + site.src->targetSymbol);
    }

    // Modelled memory: runtime floor (allocator, string tables, output
    // bookkeeping) + inputs buffered + internal structures.
    meter.charge(192 * 1024);
    meter.charge(stats.inputBytes);
    meter.charge(sects.size() * 160 + sites.size() * 56);
    uint64_t block_count = 0;
    for (const auto &s : sects)
        block_count += s.blockIds.size();
    meter.charge(block_count * 24);

    uint64_t base = opts.textBase;
    if (opts.hugePagesText)
        base = alignUp(base, kHugePage);

    // ---- Layout + relaxation under the overflow quarantine -------------
    //
    // The symbol ordering file can place a function's sections anywhere in
    // the image; at real scale a bad ordering (or a hostile knob setting)
    // can push a branch past its encodable displacement.  Rather than
    // failing the whole link, the offending *function* is quarantined:
    // its sections drop out of the ordered prefix back to input order,
    // and sizing reruns.  Each round quarantines at least one new
    // function, so the loop terminates.
    std::vector<uint32_t> order;
    order.reserve(sects.size());

    auto computeLayout = [&]() {
        uint64_t cursor = base;
        for (uint32_t idx : order) {
            Sect &sect = sects[idx];
            sect.addr = alignUp(cursor, sect.alignment);
            uint64_t off = 0;
            for (const Chunk &chunk : sect.chunks) {
                if (chunk.blockSlot >= 0)
                    sect.blockOffsets[chunk.blockSlot] = off;
                off += chunk.bytes->size();
                if (chunk.siteIndex >= 0) {
                    Site &site = sites[chunk.siteIndex];
                    site.offset = off;
                    off += site.encodedSize();
                }
            }
            sect.size = off;
            cursor = sect.addr + off;
        }
        return cursor;
    };

    auto targetAddress = [&](const Site &site) {
        const Sect &target = sects[site.targetSect];
        if (site.src->targetBb == elf::kSectionStart)
            return target.addr;
        // Validated when sites were resolved above.
        auto it = target.slotOf.find(site.src->targetBb);
        PROPELLER_CHECK(it != target.slotOf.end(),
                        "branch to unmapped block");
        return target.addr + target.blockOffsets[it->second];
    };

    // Displacements the near (rel32) forms can encode, possibly narrowed
    // by the test knob.
    const int64_t max_disp =
        std::min<int64_t>(opts.maxBranchDisplacement, INT32_MAX);

    std::set<std::string> quarantined_fns;
    uint64_t image_end = 0;
    for (;;) {
        // Global layout order (symbol ordering file, paper 3.4), minus
        // quarantined functions.
        order.clear();
        std::vector<bool> placed(sects.size(), false);
        for (const auto &name : opts.symbolOrder) {
            auto it = sect_by_symbol.find(name);
            if (it == sect_by_symbol.end() || placed[it->second])
                continue;
            if (quarantined_fns.count(sects[it->second].parentFunction))
                continue;
            placed[it->second] = true;
            order.push_back(it->second);
        }
        for (uint32_t i = 0; i < sects.size(); ++i) {
            if (!placed[i])
                order.push_back(i);
        }

        // All sites start Long (compiler-emitted near forms).
        for (auto &site : sites)
            site.state = SiteState::Long;
        constexpr int kMaxIterations = 64;
        constexpr int kGrowOnlyAfter = 48;
        bool changed = true;
        int iter = 0;
        while (changed && iter < kMaxIterations) {
            ++iter;
            computeLayout();
            changed = false;
            for (auto &site : sites) {
                if (site.isCall())
                    continue;
                uint64_t site_start = sects[site.sect].addr + site.offset;
                uint64_t target = targetAddress(site);

                SiteState desired = SiteState::Long;
                if (opts.relax) {
                    // Fall-through deletion: the jump lands exactly past
                    // its own encoding, so removing it preserves control
                    // flow.
                    if (site.src->isFallThrough &&
                        target == site_start + site.encodedSize()) {
                        desired = SiteState::Deleted;
                    } else {
                        Opcode short_op = site.src->op == Opcode::JccNear
                                              ? Opcode::JccShort
                                              : Opcode::JmpShort;
                        uint64_t short_size =
                            isa::Instruction::sizeOf(short_op);
                        int64_t disp = static_cast<int64_t>(target) -
                                       static_cast<int64_t>(site_start +
                                                            short_size);
                        desired = isa::fitsRel8(disp) ? SiteState::Short
                                                      : SiteState::Long;
                    }
                }
                if (desired != site.state) {
                    // Late iterations only allow growing, which
                    // guarantees convergence even with alignment-induced
                    // oscillation.
                    if (iter > kGrowOnlyAfter &&
                        desired != SiteState::Long)
                        continue;
                    site.state = desired;
                    changed = true;
                }
            }
        }
        stats.relaxIterations = static_cast<uint32_t>(iter);
        image_end = computeLayout();

        // Scan every surviving site for displacement overflow.  Short
        // forms were verified by fitsRel8 during sizing; near forms
        // (including calls) must fit max_disp.
        std::set<std::string> offenders;
        for (const auto &site : sites) {
            if (site.state != SiteState::Long)
                continue;
            uint64_t site_start = sects[site.sect].addr + site.offset;
            int64_t disp = static_cast<int64_t>(targetAddress(site)) -
                           static_cast<int64_t>(site_start +
                                                site.encodedSize());
            if (disp > max_disp || disp < -max_disp - 1)
                offenders.insert(sects[site.sect].parentFunction);
        }
        if (offenders.empty())
            break;

        bool progress = false;
        for (const auto &fn : offenders)
            progress |= quarantined_fns.insert(fn).second;
        if (!opts.quarantineOnOverflow || !progress)
            return makeError(ErrorCode::kOutOfRange,
                             "branch displacement overflow in function " +
                                 *offenders.begin());
    }
    stats.sectionsLinked = static_cast<uint32_t>(order.size());
    stats.quarantinedFunctions =
        static_cast<uint32_t>(quarantined_fns.size());
    stats.quarantined.assign(quarantined_fns.begin(),
                             quarantined_fns.end());

    for (const auto &site : sites) {
        if (site.state == SiteState::Deleted)
            ++stats.fallThroughsDeleted;
        else if (site.state == SiteState::Short)
            ++stats.branchesShrunk;
    }

    // ---- Emit the final image ------------------------------------------
    Executable exe;
    exe.name = opts.outputName;
    exe.textBase = base;
    exe.hugePagesText = opts.hugePagesText;
    exe.text.assign(image_end - base,
                    static_cast<uint8_t>(Opcode::Nop));
    meter.charge(exe.text.size());

    for (uint32_t idx : order) {
        const Sect &sect = sects[idx];
        uint64_t pos = sect.addr - base;
        std::vector<uint8_t> encoded;
        for (const Chunk &chunk : sect.chunks) {
            std::copy(chunk.bytes->begin(), chunk.bytes->end(),
                      exe.text.begin() + pos);
            pos += chunk.bytes->size();
            if (chunk.siteIndex < 0)
                continue;
            const Site &site = sites[chunk.siteIndex];
            if (site.state == SiteState::Deleted)
                continue;
            isa::Instruction inst;
            switch (site.state) {
              case SiteState::Short:
                inst.op = site.src->op == Opcode::JccNear
                              ? Opcode::JccShort
                              : Opcode::JmpShort;
                break;
              case SiteState::Long:
                inst.op = site.src->op;
                break;
              case SiteState::Deleted:
                break;
            }
            inst.flags = site.src->flags;
            inst.bias = site.src->bias;
            inst.branchId = site.src->branchId;
            uint64_t site_start = sect.addr + site.offset;
            int64_t disp = static_cast<int64_t>(targetAddress(site)) -
                           static_cast<int64_t>(site_start +
                                                site.encodedSize());
            // The overflow scan above guarantees encodability here.
            PROPELLER_CHECK(disp >= INT32_MIN && disp <= INT32_MAX,
                            "branch displacement overflow");
            inst.rel = static_cast<int32_t>(disp);
            encoded.clear();
            inst.encode(encoded);
            PROPELLER_CHECK(encoded.size() == site.encodedSize(),
                            "encoded size mismatch");
            std::copy(encoded.begin(), encoded.end(),
                      exe.text.begin() + pos);
            pos += encoded.size();
        }
        PROPELLER_CHECK(pos == sect.addr - base + sect.size,
                        "section emit cursor mismatch");
    }

    // ---- Symbols, BB map, integrity checks ------------------------------
    std::unordered_map<std::string, size_t> func_map_index;
    std::vector<ExecFuncMap> func_maps;
    std::unordered_map<std::string, bool> addr_map_kept;
    // Decoded from the actual section *bytes*, not the structured
    // ObjectFile field: the bytes are what a cache or disk corruption
    // hits, and decoding them here is what turns that corruption into a
    // per-object metadata rejection instead of silent bad mappings.
    std::unordered_map<std::string, std::vector<elf::FunctionAddrMap>>
        decoded_maps;
    for (const auto &obj : objects) {
        int sect_idx = obj.findSection(".bb_addr_map");
        bool dropped =
            opts.stripAddrMaps ||
            (opts.dropAddrMapsOf && opts.dropAddrMapsOf->count(obj.name));
        bool kept = sect_idx >= 0 && !dropped;
        if (kept) {
            auto maps =
                elf::decodeAddrMapsChecked(obj.sections[sect_idx].bytes);
            if (maps.ok()) {
                decoded_maps[obj.name] = std::move(maps).value();
            } else {
                // Degrade: this object's functions become unprofiled
                // (baseline layout downstream), the relink proceeds.
                kept = false;
                ++stats.addrMapsRejected;
                stats.rejectedAddrMapObjects.push_back(obj.name);
            }
        }
        addr_map_kept[obj.name] = kept;
    }

    // Stale-profile fingerprints live in the object address maps (the
    // emitted sections only carry block marks); index them by function so
    // the final ExecFuncMap can be annotated below.  The decoded maps are
    // link-local, so successor lists move out of them: codegen emits each
    // block of a function once, into exactly one section.
    struct FuncFp
    {
        uint64_t functionHash = 0;
        std::unordered_map<uint32_t, elf::BbEntry *> blocks;
    };
    std::unordered_map<std::string, FuncFp> fp_of;
    for (const auto &obj : objects) {
        if (!addr_map_kept[obj.name])
            continue;
        for (auto &map : decoded_maps[obj.name]) {
            FuncFp &fp = fp_of[map.functionName];
            fp.functionHash = map.functionHash;
            for (auto &range : map.ranges) {
                for (auto &bb : range.blocks)
                    fp.blocks.emplace(bb.bbId, &bb);
            }
        }
    }

    for (uint32_t idx : order) {
        const Sect &sect = sects[idx];
        FuncRange range;
        range.name = sect.symbol;
        range.parentFunction = sect.parentFunction;
        range.start = sect.addr;
        range.end = sect.addr + sect.size;
        range.isPrimary = sect.isPrimary;
        range.isHandAsm = sect.isHandAsm;
        exe.symbols.push_back(std::move(range));

        if (sect.isHandAsm || !addr_map_kept[sect.objectName])
            continue;

        auto [it, inserted] =
            func_map_index.emplace(sect.parentFunction, func_maps.size());
        if (inserted)
            func_maps.push_back(ExecFuncMap{sect.parentFunction, {}});
        ExecFuncMap &map = func_maps[it->second];

        FuncFp *fp = nullptr;
        if (auto fit = fp_of.find(sect.parentFunction); fit != fp_of.end())
            fp = &fit->second;
        if (fp)
            map.functionHash = fp->functionHash;

        for (size_t slot = 0; slot < sect.blockIds.size(); ++slot) {
            ExecBlock block;
            block.bbId = sect.blockIds[slot];
            block.address = sect.addr + sect.blockOffsets[slot];
            uint64_t next = slot + 1 < sect.blockIds.size()
                                ? sect.addr + sect.blockOffsets[slot + 1]
                                : sect.addr + sect.size;
            block.size = static_cast<uint32_t>(next - block.address);
            block.flags = sect.blockFlags[slot];
            if (fp) {
                auto bit = fp->blocks.find(block.bbId);
                if (bit != fp->blocks.end()) {
                    block.hash = bit->second->hash;
                    block.succs = std::move(bit->second->succs);
                }
            }
            map.blocks.push_back(std::move(block));
        }
    }
    exe.bbAddrMap = std::move(func_maps);

    // Re-derive unwind coverage from the *final* layout: the codegen-time
    // FrameDescriptor::codeLength predates relaxation, so each FDE's
    // covered range is the post-relaxation section extent.
    {
        std::unordered_set<std::string> fde_symbols;
        for (const auto &obj : objects) {
            for (const auto &fde : obj.frames)
                fde_symbols.insert(fde.sectionSymbol);
        }
        for (uint32_t idx : order) {
            const Sect &sect = sects[idx];
            if (!fde_symbols.count(sect.symbol))
                continue;
            exe.frames.push_back(FrameCoverage{
                sect.symbol, sect.addr, sect.addr + sect.size});
        }
    }

    // Binary identity: the linked text content plus the section layout.
    // Any relink that moves or changes code — new compiler output, a
    // different cluster assignment, even a pure reordering — produces a
    // different identity, which is exactly when address-based profile
    // mapping stops being sound.
    {
        uint64_t id = fnv1a(exe.text);
        id = hashCombine(id, exe.textBase);
        for (const auto &sym : exe.symbols) {
            id = hashCombine(id, fnv1a(sym.name));
            id = hashCombine(id, sym.start);
            id = hashCombine(id, sym.end);
        }
        exe.identityHash = id;
    }

    // Entry point.
    auto entry_it = sect_by_symbol.find(opts.entrySymbol);
    if (entry_it == sect_by_symbol.end())
        return makeError(ErrorCode::kUnresolved,
                         "entry symbol " + opts.entrySymbol + " not found");
    exe.entryAddress = sects[entry_it->second].addr;

    // Startup integrity checks: hash the primary range of each checked
    // function as it exists in this image.
    for (const auto &obj : objects) {
        for (const auto &fn : obj.integrityCheckedFunctions) {
            auto it = sect_by_symbol.find(fn);
            if (it == sect_by_symbol.end())
                return makeError(ErrorCode::kUnresolved,
                                 "integrity-checked function " + fn +
                                     " has no section symbol");
            const Sect &sect = sects[it->second];
            IntegrityCheck check;
            check.function = fn;
            check.expectedHash =
                fnv1a(exe.text.data() + (sect.addr - base), sect.size);
            exe.integrityChecks.push_back(std::move(check));
        }
    }

    // ---- Size breakdown (Figure 6) --------------------------------------
    exe.sizes.text = exe.text.size();
    for (const auto &obj : objects) {
        for (const auto &sec : obj.sections) {
            switch (sec.type) {
              case SectionType::EhFrame:
                exe.sizes.ehFrame += sec.size();
                break;
              case SectionType::BbAddrMap:
                if (addr_map_kept[obj.name])
                    exe.sizes.bbAddrMap += sec.size();
                break;
              case SectionType::Debug:
                exe.sizes.debug += sec.size();
                break;
              case SectionType::RoData:
              case SectionType::Other:
                exe.sizes.other += sec.size();
                break;
              case SectionType::Text:
                if (opts.emitRelocs) {
                    exe.sizes.relocs +=
                        sec.relocationCount() * elf::kRelaEntrySize;
                }
                break;
            }
        }
        if (opts.emitRelocs)
            exe.sizes.relocs += obj.debugRelocs * elf::kRelaEntrySize;
    }

    stats.peakMemory = meter.peak();
    if (opts.meter) {
        // Pulse the external phase meter with this action's peak.
        opts.meter->charge(stats.peakMemory);
        opts.meter->release(stats.peakMemory);
    }
    if (stats_out)
        *stats_out = stats;
    return exe;
}

Executable
link(const std::vector<ObjectFile> &objects, const Options &opts,
     LinkStats *stats_out)
{
    auto exe = linkChecked(objects, opts, stats_out);
    PROPELLER_CHECK(exe.ok(), exe.status().toString().c_str());
    return std::move(exe).value();
}

} // namespace propeller::linker
