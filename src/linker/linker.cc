#include "linker/linker.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

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

Opcode
relaxedForm(Opcode op)
{
    return op == Opcode::JccNear ? Opcode::JccShort : Opcode::JmpShort;
}

/** Encoding state of one branch site. */
enum class SiteState : uint8_t { Deleted, Short, Long };

/**
 * One branch site, resolved once: its target section and the flat slot
 * of its target block, so sizing and emission never look a name up.
 */
struct Site
{
    const BranchSite *src = nullptr;
    uint32_t sect = 0;       ///< Owning section.
    uint32_t targetSect = 0;
    int32_t targetSlot = -1; ///< Target block slot; -1 = section start.
    uint8_t longSize = 0;
    uint8_t shortSize = 0;
    bool isCall = false;
    bool isFallThrough = false;
    SiteState state = SiteState::Long;
    uint64_t offset = 0; ///< Offset within section (per iteration).

    uint64_t
    encodedSize() const
    {
        switch (state) {
          case SiteState::Deleted:
            return 0;
          case SiteState::Short:
            return shortSize;
          case SiteState::Long:
            return longSize;
        }
        return 0;
    }
};

/** One text piece: a byte run, maybe starting a block, maybe a site. */
struct Chunk
{
    const uint8_t *bytes = nullptr;
    uint64_t size = 0;
    int32_t blockSlot = -1; ///< Block slot this chunk starts.
    int32_t site = -1;      ///< Trailing branch site.
};

/**
 * One input text section.  Its pieces and blocks are contiguous ranges
 * of the link's flat chunk and block-slot arrays.
 */
struct Sect
{
    const elf::Symbol *sym = nullptr;
    const Section *sec = nullptr;
    uint32_t object = 0;
    uint32_t function = 0; ///< Dense id of sym->parentFunction.
    uint32_t chunkBegin = 0;
    uint32_t chunkEnd = 0;
    uint32_t blockBegin = 0;
    uint32_t blockEnd = 0;

    // Recomputed each sizing iteration.
    uint64_t addr = 0;
    uint64_t size = 0;
};

/**
 * Block-id lookup of every function, one flat table of per-function
 * slices.  A function's slice has as many entries as the function has
 * block slots in the text; ids past that bound (and repeats a slice
 * cannot hold) go to a hash map, so no id, however large, sizes an
 * allocation.
 */
template <typename T>
class BlockTable
{
  public:
    BlockTable(const std::vector<uint32_t> &base,
               const std::vector<uint32_t> &count, uint32_t total, T unset)
        : base_(base), count_(count), dense_(total, unset), unset_(unset)
    {
    }

    /** Entry of block @p id in function @p fn's slice, or nullptr. */
    T *
    dense(uint32_t fn, uint32_t id)
    {
        return id < count_[fn] ? &dense_[base_[fn] + id] : nullptr;
    }

    /** Store @p value under @p key unless the key is taken. */
    void spill(uint64_t key, T value) { overflow_.emplace(key, value); }

    /** Value stored under @p key, or the unset value. */
    T
    spilled(uint64_t key) const
    {
        auto it = overflow_.find(key);
        return it == overflow_.end() ? unset_ : it->second;
    }

  private:
    const std::vector<uint32_t> &base_;
    const std::vector<uint32_t> &count_;
    std::vector<T> dense_;
    std::unordered_map<uint64_t, T> overflow_;
    T unset_;
};

uint64_t
pairKey(uint32_t hi, uint32_t lo)
{
    return static_cast<uint64_t>(hi) << 32 | lo;
}

} // namespace

support::StatusOr<Executable>
linkChecked(const std::vector<ObjectFile> &objects, const Options &opts,
            LinkStats *stats_out)
{
    LinkStats stats;
    MemoryMeter meter;

    // ---- Gather sections and symbols into flat arrays -------------------
    std::vector<Sect> sects;
    std::vector<Chunk> chunks;
    std::vector<Site> sites;
    std::vector<uint32_t> block_ids;   ///< Slot -> bb id.
    std::vector<uint8_t> block_flags;  ///< Slot -> BbFlags.
    std::unordered_map<std::string_view, uint32_t> sect_by_symbol;
    std::unordered_map<std::string_view, uint32_t> function_ids;

    size_t text_sections = 0, pieces = 0;
    for (const auto &obj : objects) {
        for (const auto &sec : obj.sections) {
            if (sec.type == SectionType::Text) {
                ++text_sections;
                pieces += sec.pieces.size();
            }
        }
    }
    sects.reserve(text_sections);
    chunks.reserve(pieces);
    sect_by_symbol.reserve(text_sections);

    std::vector<const elf::Symbol *> sym_of_section;
    for (uint32_t oi = 0; oi < objects.size(); ++oi) {
        const ObjectFile &obj = objects[oi];
        stats.inputBytes += obj.sizeInBytes();

        // Section index -> defining symbol within this object (the last
        // symbol naming a section defines it).
        sym_of_section.assign(obj.sections.size(), nullptr);
        for (const auto &sym : obj.symbols) {
            if (sym.sectionIndex < sym_of_section.size())
                sym_of_section[sym.sectionIndex] = &sym;
        }

        for (size_t si = 0; si < obj.sections.size(); ++si) {
            const Section &sec = obj.sections[si];
            if (sec.type != SectionType::Text)
                continue;
            const elf::Symbol *sym = sym_of_section[si];
            if (!sym)
                return makeError(ErrorCode::kMalformed,
                                 "object " + obj.name + ": text section " +
                                     sec.name + " has no defining symbol");

            Sect sect;
            sect.sym = sym;
            sect.sec = &sec;
            sect.object = oi;
            sect.function =
                function_ids
                    .emplace(sym->parentFunction,
                             static_cast<uint32_t>(function_ids.size()))
                    .first->second;
            sect.chunkBegin = static_cast<uint32_t>(chunks.size());
            sect.blockBegin = static_cast<uint32_t>(block_ids.size());
            for (const auto &piece : sec.pieces) {
                Chunk chunk;
                chunk.bytes = piece.bytes.data();
                chunk.size = piece.bytes.size();
                if (piece.block) {
                    chunk.blockSlot = static_cast<int32_t>(block_ids.size());
                    block_ids.push_back(piece.block->bbId);
                    block_flags.push_back(piece.block->flags);
                }
                if (piece.site) {
                    chunk.site = static_cast<int32_t>(sites.size());
                    Site site;
                    site.src = &*piece.site;
                    site.sect = static_cast<uint32_t>(sects.size());
                    site.longSize = static_cast<uint8_t>(
                        isa::Instruction::sizeOf(piece.site->op));
                    site.shortSize = static_cast<uint8_t>(
                        isa::Instruction::sizeOf(
                            relaxedForm(piece.site->op)));
                    site.isCall = piece.site->op == Opcode::Call;
                    site.isFallThrough = piece.site->isFallThrough;
                    sites.push_back(site);
                }
                chunks.push_back(chunk);
            }
            sect.chunkEnd = static_cast<uint32_t>(chunks.size());
            sect.blockEnd = static_cast<uint32_t>(block_ids.size());

            bool inserted =
                sect_by_symbol
                    .emplace(sym->name, static_cast<uint32_t>(sects.size()))
                    .second;
            if (!inserted)
                return makeError(ErrorCode::kMalformed,
                                 "duplicate section symbol " + sym->name +
                                     " (object " + obj.name + ")");
            sects.push_back(sect);
        }
    }
    const uint32_t num_functions =
        static_cast<uint32_t>(function_ids.size());
    const uint32_t num_slots = static_cast<uint32_t>(block_ids.size());

    // Each function's slice of the block tables holds as many ids as the
    // function has block slots.
    std::vector<uint32_t> fn_slot_base(num_functions, 0);
    std::vector<uint32_t> fn_slot_count(num_functions, 0);
    for (const Sect &sect : sects)
        fn_slot_count[sect.function] += sect.blockEnd - sect.blockBegin;
    for (uint32_t f = 1; f < num_functions; ++f)
        fn_slot_base[f] = fn_slot_base[f - 1] + fn_slot_count[f - 1];

    // Block id -> first slot with that id in its section.  A section's
    // first slot of an id is the function's first slot of it unless an
    // earlier section holds the id too; such repeats, and ids past the
    // slice, are keyed by (section, id) instead.
    BlockTable<int32_t> slot_of(fn_slot_base, fn_slot_count, num_slots, -1);
    for (uint32_t si = 0; si < sects.size(); ++si) {
        const Sect &sect = sects[si];
        for (uint32_t slot = sect.blockBegin; slot < sect.blockEnd; ++slot) {
            int32_t *entry = slot_of.dense(sect.function, block_ids[slot]);
            if (entry && *entry < 0)
                *entry = static_cast<int32_t>(slot);
            else
                slot_of.spill(pairKey(si, block_ids[slot]),
                              static_cast<int32_t>(slot));
        }
    }
    auto firstSlot = [&](uint32_t si, uint32_t bb_id) -> int32_t {
        const Sect &sect = sects[si];
        if (const int32_t *entry = slot_of.dense(sect.function, bb_id)) {
            if (*entry >= static_cast<int32_t>(sect.blockBegin) &&
                *entry < static_cast<int32_t>(sect.blockEnd))
                return *entry;
        }
        return slot_of.spilled(pairKey(si, bb_id));
    };

    // Resolve every site's target section and block once, now that all
    // symbols are known; the layout loop below only reads the results.
    // Most branches stay inside their own section, whose symbol needs
    // no lookup.
    for (auto &site : sites) {
        const std::string &target = site.src->targetSymbol;
        if (target == sects[site.sect].sym->name) {
            site.targetSect = site.sect;
        } else {
            auto it = sect_by_symbol.find(target);
            if (it == sect_by_symbol.end())
                return makeError(ErrorCode::kUnresolved,
                                 "unresolved symbol " + target +
                                     " (referenced from " +
                                     sects[site.sect].sym->name + ")");
            site.targetSect = it->second;
        }
        if (site.src->targetBb == elf::kSectionStart)
            continue;
        site.targetSlot = firstSlot(site.targetSect, site.src->targetBb);
        if (site.targetSlot < 0)
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
    meter.charge(uint64_t{num_slots} * 24);

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
    std::vector<uint64_t> block_offsets(num_slots, 0);
    std::vector<uint32_t> order;
    order.reserve(sects.size());

    auto computeLayout = [&]() {
        uint64_t cursor = base;
        for (uint32_t idx : order) {
            Sect &sect = sects[idx];
            sect.addr = alignUp(cursor, sect.sec->alignment);
            uint64_t off = 0;
            for (uint32_t c = sect.chunkBegin; c < sect.chunkEnd; ++c) {
                const Chunk &chunk = chunks[c];
                if (chunk.blockSlot >= 0)
                    block_offsets[chunk.blockSlot] = off;
                off += chunk.size;
                if (chunk.site >= 0) {
                    Site &site = sites[chunk.site];
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
        uint64_t addr = sects[site.targetSect].addr;
        return site.targetSlot < 0 ? addr
                                   : addr + block_offsets[site.targetSlot];
    };

    // Displacements the near (rel32) forms can encode, possibly narrowed
    // by the test knob.
    const int64_t max_disp =
        std::min<int64_t>(opts.maxBranchDisplacement, INT32_MAX);

    // The symbol ordering file, resolved once (paper 3.4).
    std::vector<uint32_t> ordered;
    ordered.reserve(opts.symbolOrder.size());
    for (const auto &name : opts.symbolOrder) {
        auto it = sect_by_symbol.find(name);
        if (it != sect_by_symbol.end())
            ordered.push_back(it->second);
    }

    std::set<std::string_view> quarantined_fns; // Sorted, for reports.
    std::vector<uint8_t> fn_quarantined(num_functions, 0);
    std::vector<uint8_t> placed(sects.size(), 0);
    uint64_t image_end = 0;
    for (;;) {
        // Global layout order, minus quarantined functions.
        order.clear();
        std::fill(placed.begin(), placed.end(), 0);
        for (uint32_t idx : ordered) {
            if (placed[idx] || fn_quarantined[sects[idx].function])
                continue;
            placed[idx] = 1;
            order.push_back(idx);
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
                if (site.isCall)
                    continue;
                uint64_t site_start = sects[site.sect].addr + site.offset;
                uint64_t target = targetAddress(site);

                SiteState desired = SiteState::Long;
                if (opts.relax) {
                    // Fall-through deletion: the jump lands exactly past
                    // its own encoding, so removing it preserves control
                    // flow.
                    if (site.isFallThrough &&
                        target == site_start + site.encodedSize()) {
                        desired = SiteState::Deleted;
                    } else {
                        int64_t disp = static_cast<int64_t>(target) -
                                       static_cast<int64_t>(
                                           site_start + site.shortSize);
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
        std::map<std::string_view, uint32_t> offenders; // Name -> id.
        for (const auto &site : sites) {
            if (site.state != SiteState::Long)
                continue;
            uint64_t site_start = sects[site.sect].addr + site.offset;
            int64_t disp = static_cast<int64_t>(targetAddress(site)) -
                           static_cast<int64_t>(site_start + site.longSize);
            if (disp > max_disp || disp < -max_disp - 1) {
                const Sect &sect = sects[site.sect];
                offenders.emplace(sect.sym->parentFunction, sect.function);
            }
        }
        if (offenders.empty())
            break;

        bool progress = false;
        for (auto [name, f] : offenders) {
            progress |= quarantined_fns.insert(name).second;
            fn_quarantined[f] = 1;
        }
        if (!opts.quarantineOnOverflow || !progress)
            return makeError(ErrorCode::kOutOfRange,
                             "branch displacement overflow in function " +
                                 std::string(offenders.begin()->first));
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

    std::vector<uint8_t> encoded; // One encoding buffer for every site.
    for (uint32_t idx : order) {
        const Sect &sect = sects[idx];
        uint8_t *out = exe.text.data() + (sect.addr - base);
        for (uint32_t c = sect.chunkBegin; c < sect.chunkEnd; ++c) {
            const Chunk &chunk = chunks[c];
            out = std::copy(chunk.bytes, chunk.bytes + chunk.size, out);
            if (chunk.site < 0)
                continue;
            const Site &site = sites[chunk.site];
            if (site.state == SiteState::Deleted)
                continue;
            isa::Instruction inst;
            inst.op = site.state == SiteState::Short
                          ? relaxedForm(site.src->op)
                          : site.src->op;
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
            out = std::copy(encoded.begin(), encoded.end(), out);
        }
        PROPELLER_CHECK(out == exe.text.data() + (sect.addr - base) +
                                   sect.size,
                        "section emit cursor mismatch");
    }

    // ---- Symbols, BB map, integrity checks ------------------------------
    // Decoded from the actual section *bytes*, not the structured
    // ObjectFile field: the bytes are what a cache or disk corruption
    // hits, and decoding them here is what turns that corruption into a
    // per-object metadata rejection instead of silent bad mappings.
    std::vector<uint8_t> addr_map_kept(objects.size(), 0);
    std::vector<std::vector<elf::FunctionAddrMap>> decoded_maps(
        objects.size());
    for (uint32_t oi = 0; oi < objects.size(); ++oi) {
        const ObjectFile &obj = objects[oi];
        int sect_idx = obj.findSection(".bb_addr_map");
        bool dropped =
            opts.stripAddrMaps ||
            (opts.dropAddrMapsOf && opts.dropAddrMapsOf->count(obj.name));
        bool kept = sect_idx >= 0 && !dropped;
        if (kept) {
            auto maps =
                elf::decodeAddrMapsChecked(obj.sections[sect_idx].bytes);
            if (maps.ok()) {
                decoded_maps[oi] = std::move(maps).value();
            } else {
                // Degrade: this object's functions become unprofiled
                // (baseline layout downstream), the relink proceeds.
                kept = false;
                ++stats.addrMapsRejected;
                stats.rejectedAddrMapObjects.push_back(obj.name);
            }
        }
        addr_map_kept[oi] = kept;
    }

    // Stale-profile fingerprints and successor lists live in the object
    // address maps (the emitted sections only carry block marks); index
    // them by function and block id so the final ExecFuncMap can be
    // annotated below.  The first entry of an id wins and a function's
    // hash is its last map's.
    struct MapEntry
    {
        const elf::FunctionAddrMap *map = nullptr;
        const elf::BbEntry *bb = nullptr;
    };
    BlockTable<MapEntry> fp_of(fn_slot_base, fn_slot_count, num_slots, {});
    std::vector<uint64_t> fn_hash(num_functions, 0);
    for (uint32_t oi = 0; oi < objects.size(); ++oi) {
        if (!addr_map_kept[oi])
            continue;
        for (const auto &map : decoded_maps[oi]) {
            auto fit = function_ids.find(map.functionName);
            if (fit == function_ids.end())
                continue; // No section of this function is linked.
            const uint32_t f = fit->second;
            fn_hash[f] = map.functionHash;
            for (const auto &range : map.ranges) {
                for (const auto &bb : range.blocks) {
                    MapEntry *entry = fp_of.dense(f, bb.bbId);
                    if (entry && !entry->bb)
                        *entry = {&map, &bb};
                    else if (!entry)
                        fp_of.spill(pairKey(f, bb.bbId), {&map, &bb});
                }
            }
        }
    }
    auto fingerprint = [&](uint32_t f, uint32_t bb_id) -> MapEntry {
        if (MapEntry *entry = fp_of.dense(f, bb_id))
            return *entry;
        return fp_of.spilled(pairKey(f, bb_id));
    };

    // Blocks each function map will hold, so each is allocated once.
    std::vector<uint32_t> fn_map_blocks(num_functions, 0);
    for (const Sect &sect : sects) {
        if (!sect.sec->isHandAsm && addr_map_kept[sect.object])
            fn_map_blocks[sect.function] += sect.blockEnd - sect.blockBegin;
    }

    std::vector<int32_t> fn_map_index(num_functions, -1);
    std::vector<ExecFuncMap> func_maps;
    exe.symbols.reserve(order.size());
    for (uint32_t idx : order) {
        const Sect &sect = sects[idx];
        FuncRange range;
        range.name = sect.sym->name;
        range.parentFunction = sect.sym->parentFunction;
        range.start = sect.addr;
        range.end = sect.addr + sect.size;
        range.isPrimary = sect.sym->kind == elf::SymbolKind::Function;
        range.isHandAsm = sect.sec->isHandAsm;
        exe.symbols.push_back(std::move(range));

        if (sect.sec->isHandAsm || !addr_map_kept[sect.object])
            continue;

        const uint32_t f = sect.function;
        if (fn_map_index[f] < 0) {
            fn_map_index[f] = static_cast<int32_t>(func_maps.size());
            func_maps.push_back(
                ExecFuncMap{sect.sym->parentFunction, {}, fn_hash[f], {}});
            func_maps.back().blocks.reserve(fn_map_blocks[f]);
        }
        ExecFuncMap &map = func_maps[fn_map_index[f]];

        for (uint32_t slot = sect.blockBegin; slot < sect.blockEnd; ++slot) {
            ExecBlock block;
            block.bbId = block_ids[slot];
            block.address = sect.addr + block_offsets[slot];
            uint64_t next = slot + 1 < sect.blockEnd
                                ? sect.addr + block_offsets[slot + 1]
                                : sect.addr + sect.size;
            block.size = static_cast<uint32_t>(next - block.address);
            block.flags = block_flags[slot];
            std::span<const uint32_t> succs;
            if (const MapEntry entry = fingerprint(f, block.bbId); entry.bb) {
                block.hash = entry.bb->hash;
                succs = entry.map->successors(*entry.bb);
            }
            map.addBlock(block, succs);
        }
    }
    exe.bbAddrMap = std::move(func_maps);

    // Re-derive unwind coverage from the *final* layout: the codegen-time
    // FrameDescriptor::codeLength predates relaxation, so each FDE's
    // covered range is the post-relaxation section extent.
    {
        std::vector<uint8_t> has_fde(sects.size(), 0);
        for (const auto &obj : objects) {
            for (const auto &fde : obj.frames) {
                auto it = sect_by_symbol.find(fde.sectionSymbol);
                if (it != sect_by_symbol.end())
                    has_fde[it->second] = 1;
            }
        }
        for (uint32_t idx : order) {
            const Sect &sect = sects[idx];
            if (!has_fde[idx])
                continue;
            exe.frames.push_back(FrameCoverage{
                sect.sym->name, sect.addr, sect.addr + sect.size});
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
    for (uint32_t oi = 0; oi < objects.size(); ++oi) {
        const ObjectFile &obj = objects[oi];
        for (const auto &sec : obj.sections) {
            switch (sec.type) {
              case SectionType::EhFrame:
                exe.sizes.ehFrame += sec.size();
                break;
              case SectionType::BbAddrMap:
                if (addr_map_kept[oi])
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
