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

    const UarchConfig &uc = opts.uarch;
    SetAssocCache l1i(uc.l1iSets, uc.l1iWays, 6);
    SetAssocCache l2(uc.l2Sets, uc.l2Ways, 6);
    Itlb itlb(uc.itlb4kEntries, uc.itlb4kWays, uc.itlb2mEntries,
              uc.stlbEntries, uc.stlbWays);
    BranchPredictor bp(uc.ghistBits, uc.btbSets, uc.btbWays, uc.rasDepth);
    SetAssocCache dsb(uc.dsbSets, uc.dsbWays, 5);
    SetAssocCache l1d(uc.l1dSets, uc.l1dWays, 6);

    // Per-load-site occurrence counters drive deterministic, layout-
    // invariant data address streams: some sites stream through memory
    // (prefetchable), others are cache-resident.
    std::vector<uint32_t> site_occurrence(65536, 0);
    auto siteStride = [](uint16_t site) -> uint64_t {
        uint64_t r = mix64(site ^ 0xd47aull) & 7;
        if (r == 0)
            return 64; // Streaming: a new cache line every access.
        if (r == 1)
            return 8; // Strided: a new line every 8 accesses.
        return 0; // Resident.
    };
    auto dataAddress = [&](uint16_t site, uint64_t occ) {
        return (static_cast<uint64_t>(site) << 24) +
               siteStride(site) * occ;
    };

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
        if (inst.op != Opcode::Nop && !inst.isUncondBranch() &&
            !inst.isPrefetch()) {
            ++ctr.logicalInstructions;
        }

        // ---- Frontend model ---------------------------------------------
        if constexpr (kTimed) {
            ctr.quarterCycles += uc.baseQuarterCyclesPerInst;

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
                ctr.quarterCycles += uc.dsbMissPenalty;
            }

            if (!l1i.access(pc)) {
                ++ctr.l1iMisses;
                if (l2.access(pc)) {
                    ctr.quarterCycles += uc.l2HitPenalty;
                    ctr.fetchStallQC += uc.l2HitPenalty;
                } else {
                    ++ctr.l2CodeMisses;
                    ctr.quarterCycles += uc.memPenalty;
                    ctr.fetchStallQC += uc.memPenalty;
                }
            }
            // An instruction straddling a cache line touches the next line
            // too.
            if ((pc & 63) + len > 64 && !l1i.access(pc + len - 1)) {
                ++ctr.l1iMisses;
                if (l2.access(pc + len - 1)) {
                    ctr.quarterCycles += uc.l2HitPenalty;
                    ctr.fetchStallQC += uc.l2HitPenalty;
                } else {
                    ++ctr.l2CodeMisses;
                    ctr.quarterCycles += uc.memPenalty;
                    ctr.fetchStallQC += uc.memPenalty;
                }
            }

            ItlbResult tlb = itlb.access(pc, exe.hugePagesText);
            if (tlb.l1Miss) {
                ++ctr.itlbMisses;
                if (tlb.stlbMiss) {
                    ++ctr.itlbStallMisses;
                    ctr.quarterCycles += uc.walkPenalty;
                    ctr.fetchStallQC += uc.walkPenalty;
                } else {
                    ctr.quarterCycles += uc.stlbHitPenalty;
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
            break;
          case Opcode::Load:
          case Opcode::Store: {
            if (!kTimed || !opts.modelDataCache)
                break;
            uint16_t site = static_cast<uint16_t>(inst.imm);
            uint64_t occ = site_occurrence[site]++;
            ++ctr.dcacheAccesses;
            if (!l1d.access(dataAddress(site, occ))) {
                ++ctr.dcacheMisses;
                ctr.quarterCycles += uc.dcacheMissPenalty;
                ctr.dataStallQC += uc.dcacheMissPenalty;
                if (opts.collectMissProfile && inst.op == Opcode::Load &&
                    ctr.dcacheMisses % opts.missSamplePeriod == 0) {
                    ++result.missProfile.siteMisses[site];
                    ++result.missProfile.totalSamples;
                }
            }
            break;
          }
          case Opcode::Prefetch: {
            ++ctr.prefetchesIssued;
            if (kTimed && opts.modelDataCache) {
                // Warm the line the site will touch `reg` accesses from
                // now; non-blocking, no stall.
                uint16_t site = static_cast<uint16_t>(inst.imm);
                l1d.access(dataAddress(
                    site, site_occurrence[site] + inst.reg));
            }
            break;
          }
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
                ctr.quarterCycles += uc.mispredictPenalty;
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
                    ctr.quarterCycles += uc.baclearPenalty;
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
                ctr.quarterCycles += uc.baclearPenalty;
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
                    ctr.quarterCycles += uc.mispredictPenalty;
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
                    ctr.quarterCycles += uc.baclearPenalty;
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
    PROPELLER_CHECK(!opts.recordHeatMap && !opts.modelDataCache &&
                        !opts.collectMissProfile,
                    "heat maps and the data side need sim::run's timing "
                    "model");
    RunResult result;
    execute<false>(exe, opts, result);
    return std::move(result.profile);
}

} // namespace propeller::sim
