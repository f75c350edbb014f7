#include "sim/machine.h"

#include "isa/isa.h"
#include "sim/branch_pred.h"
#include "sim/caches.h"
#include "sim/itlb.h"
#include "support/check.h"
#include "support/hash.h"
#include "support/rng.h"

namespace propeller::sim {

namespace {

using isa::Instruction;
using isa::Opcode;

/**
 * Microarchitecture parameters.
 *
 * Skylake structures scaled down by roughly the same factor (~1/4 to
 * 1/16) as the synthetic workloads are scaled from the paper's
 * applications (~1/100 in code size), so cache/TLB pressure relative to
 * hot-code footprint matches the paper's regime.  Skylake-sized values
 * are given in the comments.
 */
namespace uarch {
// L1 instruction cache: 8 KiB, 8-way, 64 B lines (Skylake: 32 KiB).
constexpr uint32_t l1iSets = 16;
constexpr uint32_t l1iWays = 8;
// L2 (code side): 256 KiB, 16-way (Skylake: 1 MiB).
constexpr uint32_t l2Sets = 256;
constexpr uint32_t l2Ways = 16;
// iTLB: 48 x 4 KiB entries 4-way (Skylake: 128 x 8-way);
// 2 x 2 MiB entries (Skylake: 8).
constexpr uint32_t itlb4kEntries = 48;
constexpr uint32_t itlb4kWays = 4;
constexpr uint32_t itlb2mEntries = 2;
// STLB: 256 entries, 8-way (Skylake: 1536 x 12-way).
constexpr uint32_t stlbEntries = 256;
constexpr uint32_t stlbWays = 8;
// Branch prediction (Skylake: ~4K-entry BTB, TAGE-class predictor).
constexpr uint32_t ghistBits = 14; ///< log2 of the direction table.
constexpr uint32_t btbSets = 128;
constexpr uint32_t btbWays = 4;
constexpr uint32_t rasDepth = 32;
// DSB: 32 B windows, 32 sets, 4 ways (Skylake: ~1.5K uops).
constexpr uint32_t dsbSets = 32;
constexpr uint32_t dsbWays = 4;

// Timing, in quarter cycles.
constexpr uint32_t baseQuarterCyclesPerInst = 2; ///< Base CPI of 0.5.
constexpr uint32_t l2HitPenalty = 40;      ///< L1i miss, L2 hit: 10 cycles.
constexpr uint32_t memPenalty = 200;       ///< L2 miss: 50 cycles.
constexpr uint32_t stlbHitPenalty = 28;    ///< iTLB miss, STLB hit.
constexpr uint32_t walkPenalty = 120;      ///< Page walk: 30 cycles.
constexpr uint32_t dsbMissPenalty = 4;     ///< Legacy decode path.
constexpr uint32_t mispredictPenalty = 56; ///< 14 cycles.
constexpr uint32_t baclearPenalty = 20;    ///< Front-end resteer: 5 cycles.
} // namespace uarch

/** 32-entry LBR ring buffer. */
class LbrRing
{
  public:
    void
    record(uint64_t from, uint64_t to)
    {
        entries_[head_] = {from, to};
        head_ = (head_ + 1) % profile::kLbrDepth;
        if (filled_ < profile::kLbrDepth)
            ++filled_;
    }

    /** Snapshot into a sample, oldest record first. */
    profile::LbrSample
    snapshot() const
    {
        profile::LbrSample sample;
        sample.count = static_cast<uint8_t>(filled_);
        unsigned start =
            (head_ + profile::kLbrDepth - filled_) % profile::kLbrDepth;
        for (unsigned i = 0; i < filled_; ++i)
            sample.records[i] =
                entries_[(start + i) % profile::kLbrDepth];
        return sample;
    }

  private:
    profile::BranchRecord entries_[profile::kLbrDepth] = {};
    unsigned head_ = 0;
    unsigned filled_ = 0;
};

bool
verifyIntegrity(const linker::Executable &exe)
{
    for (const auto &check : exe.integrityChecks) {
        const linker::FuncRange *range = nullptr;
        for (const auto &sym : exe.symbols) {
            if (sym.isPrimary && sym.name == check.function) {
                range = &sym;
                break;
            }
        }
        if (!range)
            return false;
        uint64_t hash = fnv1a(exe.text.data() + (range->start - exe.textBase),
                              range->end - range->start);
        if (hash != check.expectedHash)
            return false;
    }
    return true;
}

/**
 * The machine loop, instantiated timed (sim::run) and timing-free
 * (sim::collectProfile).  Only the frontend model is conditional: decode,
 * the fault and halt checks, branch directions, the call stack, the LBR
 * ring and the sampler are shared, so both instantiations retire the same
 * stream and take the same samples.  The timing-free one constructs the
 * model's structures but never touches them.
 */
template <bool kTimed>
void
execute(const linker::Executable &exe, const MachineOptions &opts,
        RunResult &result)
{
    // ---- Startup: FIPS-style known-answer integrity checks -------------
    if (!verifyIntegrity(exe)) {
        result.startupOk = false;
        return;
    }

    using namespace uarch;
    SetAssocCache l1i(l1iSets, l1iWays, 6);
    SetAssocCache l2(l2Sets, l2Ways, 6);
    Itlb itlb(itlb4kEntries, itlb4kWays, itlb2mEntries, stlbEntries,
              stlbWays);
    BranchPredictor bp(ghistBits, btbSets, btbWays, rasDepth);
    SetAssocCache dsb(dsbSets, dsbWays, 5);

    LbrRing lbr;
    // Identity of the profiled binary (text content + section layout,
    // computed by the linker); Phase 3 compares it against the binary it
    // is optimizing to detect stale profiles.
    result.profile.binaryHash = exe.identityHash;
    uint64_t next_sample = opts.lbrSamplePeriod;
    Rng sample_jitter(opts.seed ^ 0x5a5a5a5a5a5a5a5aull);

    if (opts.recordHeatMap) {
        result.heatMap.assign(
            opts.heatAddrBuckets,
            std::vector<uint64_t>(opts.heatTimeBuckets, 0));
    }
    uint64_t heat_addr_div =
        exe.text.empty()
            ? 1
            : (exe.text.size() + opts.heatAddrBuckets - 1) /
                  opts.heatAddrBuckets;
    uint64_t heat_time_div =
        (opts.maxInstructions + opts.heatTimeBuckets - 1) /
        opts.heatTimeBuckets;

    Counters &ctr = result.counters;
    std::vector<uint64_t> call_stack;
    call_stack.reserve(256);

    // Per-branch occurrence counters indexed by branch id.
    std::vector<uint32_t> branch_occurrence;
    auto occurrence = [&](uint32_t id) -> uint32_t & {
        if (id >= branch_occurrence.size())
            branch_occurrence.resize(id + 1024, 0);
        return branch_occurrence[id];
    };

    uint64_t pc = exe.entryAddress;
    const uint64_t base = exe.textBase;
    const uint8_t *text = exe.text.data();
    const uint64_t text_size = exe.text.size();

    auto fault = [&](uint64_t at) {
        result.fault = true;
        result.faultPc = at;
    };

    // Decode cache, indexed by text offset (0: not seen, 1: cached,
    // 2: invalid).  A hot loop re-executes the same few offsets for the
    // whole run, so this removes decode from the per-instruction path.
    constexpr uint64_t kMaxCachedText = 64ull << 20;
    const bool use_decode_cache = text_size > 0 && text_size <= kMaxCachedText;
    std::vector<Instruction> decoded_at;
    std::vector<uint8_t> decode_state;
    if (use_decode_cache) {
        decoded_at.resize(text_size);
        decode_state.assign(text_size, 0);
    }

    while (ctr.logicalInstructions < opts.maxInstructions) {
        if (pc < base || pc >= base + text_size) {
            fault(pc);
            break;
        }
        uint64_t offset = pc - base;
        Instruction inst;
        if (use_decode_cache) {
            uint8_t &state = decode_state[offset];
            if (state == 0) {
                auto decoded =
                    isa::decode(text + offset, text_size - offset);
                if (decoded) {
                    decoded_at[offset] = *decoded;
                    state = 1;
                } else {
                    state = 2;
                }
            }
            if (state == 2) {
                fault(pc);
                break;
            }
            inst = decoded_at[offset];
        } else {
            auto decoded = isa::decode(text + offset, text_size - offset);
            if (!decoded) {
                fault(pc);
                break;
            }
            inst = *decoded;
        }
        const uint64_t len = inst.size();

        ++ctr.instructions;
        if (inst.op != Opcode::Nop && !inst.isUncondBranch())
            ++ctr.logicalInstructions;

        // ---- Frontend model ---------------------------------------------
        if constexpr (kTimed) {
            ctr.quarterCycles += baseQuarterCyclesPerInst;

            if (opts.recordHeatMap) {
                uint64_t ab = offset / heat_addr_div;
                uint64_t tb = (ctr.logicalInstructions > 0
                                   ? ctr.logicalInstructions - 1
                                   : 0) /
                              heat_time_div;
                if (ab < opts.heatAddrBuckets && tb < opts.heatTimeBuckets)
                    ++result.heatMap[ab][tb];
            }

            ++ctr.dsbAccesses;
            if (!dsb.access(pc)) {
                ++ctr.dsbMisses;
                ctr.quarterCycles += dsbMissPenalty;
            }

            if (!l1i.access(pc)) {
                ++ctr.l1iMisses;
                if (l2.access(pc)) {
                    ctr.quarterCycles += l2HitPenalty;
                    ctr.fetchStallQC += l2HitPenalty;
                } else {
                    ++ctr.l2CodeMisses;
                    ctr.quarterCycles += memPenalty;
                    ctr.fetchStallQC += memPenalty;
                }
            }
            // An instruction straddling a cache line touches the next line
            // too.
            if ((pc & 63) + len > 64 && !l1i.access(pc + len - 1)) {
                ++ctr.l1iMisses;
                if (l2.access(pc + len - 1)) {
                    ctr.quarterCycles += l2HitPenalty;
                    ctr.fetchStallQC += l2HitPenalty;
                } else {
                    ++ctr.l2CodeMisses;
                    ctr.quarterCycles += memPenalty;
                    ctr.fetchStallQC += memPenalty;
                }
            }

            ItlbResult tlb = itlb.access(pc, exe.hugePagesText);
            if (tlb.l1Miss) {
                ++ctr.itlbMisses;
                if (tlb.stlbMiss) {
                    ++ctr.itlbStallMisses;
                    ctr.quarterCycles += walkPenalty;
                    ctr.fetchStallQC += walkPenalty;
                } else {
                    ctr.quarterCycles += stlbHitPenalty;
                }
            }
        }

        // ---- Execute ----------------------------------------------------
        uint64_t next_pc = pc + len;
        bool taken_transfer = false;
        uint64_t transfer_target = 0;

        switch (inst.op) {
          case Opcode::Nop:
          case Opcode::Alu:
          case Opcode::AluWide:
          case Opcode::Load:
          case Opcode::Store:
            break;
          case Opcode::Halt:
            result.halted = true;
            break;
          case Opcode::Ret: {
            ++ctr.returns;
            if (call_stack.empty()) {
                result.halted = true;
                break;
            }
            transfer_target = call_stack.back();
            call_stack.pop_back();
            taken_transfer = true;
            // Return stack prediction; misses behave like mispredicts.
            if (kTimed && !bp.popReturn(transfer_target)) {
                ++ctr.mispredicts;
                ctr.quarterCycles += mispredictPenalty;
            }
            break;
          }
          case Opcode::Call: {
            ++ctr.calls;
            transfer_target = pc + len + static_cast<int64_t>(inst.rel);
            taken_transfer = true;
            call_stack.push_back(pc + len);
            if constexpr (kTimed) {
                bp.pushReturn(pc + len);
                if (!bp.btbAccess(pc)) {
                    ++ctr.baclears;
                    ctr.quarterCycles += baclearPenalty;
                }
            }
            break;
          }
          case Opcode::JmpShort:
          case Opcode::JmpNear: {
            ++ctr.jumpsRetired;
            transfer_target = pc + len + static_cast<int64_t>(inst.rel);
            taken_transfer = true;
            if (kTimed && !bp.btbAccess(pc)) {
                ++ctr.baclears;
                ctr.quarterCycles += baclearPenalty;
            }
            break;
          }
          case Opcode::JccShort:
          case Opcode::JccNear: {
            ++ctr.condBranches;
            uint32_t &occ = occurrence(inst.branchId);
            bool logical;
            if (inst.flags & isa::kJccPeriodic) {
                // Deterministic loop: taken on all but every bias-th trip.
                uint32_t period = inst.bias < 2 ? 2 : inst.bias;
                logical = (occ + 1) % period != 0;
            } else {
                logical = (mix64(inst.branchId, occ, opts.seed) & 0xff) <
                          inst.bias;
            }
            ++occ;
            bool taken = logical ^ ((inst.flags & isa::kJccInvert) != 0);

            if constexpr (kTimed) {
                if (bp.predictConditional(pc) != taken) {
                    ++ctr.mispredicts;
                    ctr.quarterCycles += mispredictPenalty;
                }
                bp.updateConditional(pc, taken);
            }

            if (taken) {
                ++ctr.condTaken;
                transfer_target =
                    pc + len + static_cast<int64_t>(inst.rel);
                taken_transfer = true;
                if (kTimed && !bp.btbAccess(pc)) {
                    ++ctr.baclears;
                    ctr.quarterCycles += baclearPenalty;
                }
            }
            break;
          }
        }

        if (taken_transfer) {
            ++ctr.takenBranches;
            if (opts.collectLbr)
                lbr.record(pc, transfer_target);
            next_pc = transfer_target;
        }

        if (result.halted)
            break;
        pc = next_pc;

        // ---- Sampling -----------------------------------------------------
        if (opts.collectLbr && ctr.logicalInstructions >= next_sample) {
            result.profile.samples.push_back(lbr.snapshot());
            next_sample = ctr.logicalInstructions + opts.lbrSamplePeriod +
                          sample_jitter.below(opts.lbrSamplePeriod / 8 + 1);
        }
    }

    result.profile.totalRetired = ctr.instructions;
}

} // namespace

RunResult
run(const linker::Executable &exe, const MachineOptions &opts)
{
    RunResult result;
    execute<true>(exe, opts, result);
    return result;
}

profile::Profile
collectProfile(const linker::Executable &exe, const MachineOptions &opts)
{
    PROPELLER_CHECK(!opts.recordHeatMap,
                    "heat maps need sim::run's timing model");
    RunResult result;
    execute<false>(exe, opts, result);
    return std::move(result.profile);
}

} // namespace propeller::sim
