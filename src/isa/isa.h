#ifndef PROPELLER_ISA_ISA_H
#define PROPELLER_ISA_ISA_H

/**
 * @file
 * The synthetic target ISA.
 *
 * Substitute for x86-64 (see DESIGN.md).  The properties Propeller's
 * mechanisms depend on are preserved faithfully:
 *
 *  - variable-length instructions (1 to 11 bytes);
 *  - short (rel8) and near (rel32) branch forms, enabling the linker
 *    relaxation pass of paper section 4.2;
 *  - explicit unconditional jumps for fall-through edges between basic
 *    block sections;
 *  - direct calls with rel32 displacements resolved via relocations;
 *  - an undefined-opcode space, so that embedded data in hand-written
 *    assembly misleads disassembly-driven tools (paper sections 1.1, 5.8).
 *
 * Conditional branches additionally carry a layout-invariant identity:
 * a 32-bit branch id plus an 8-bit bias.  The machine simulator derives the
 * branch direction from (branch id, per-branch occurrence counter, run
 * seed), never from the instruction's address, so binaries with different
 * code layouts execute bit-identical logical work and can be compared
 * cycle-for-cycle.  An `invert` flag lets optimizers flip branch polarity
 * (retarget the Jcc at the other successor) without altering semantics.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace propeller::isa {

/** Opcode byte values.  Gaps in the byte space decode as invalid. */
enum class Opcode : uint8_t {
    Nop = 0x90,      ///< 1 byte.  Padding / landing-pad disambiguation.
    Halt = 0xF4,     ///< 1 byte.  Stop the machine.
    Ret = 0xC3,      ///< 1 byte.  Return to caller.
    Alu = 0x01,      ///< 3 bytes: op, reg, imm8.  Generic work.
    AluWide = 0x02,  ///< 6 bytes: op, reg, imm32.  Generic wide work.
    Load = 0x8B,     ///< 4 bytes: op, reg, disp16.
    Store = 0x89,    ///< 4 bytes: op, reg, disp16.
    JmpShort = 0xEB, ///< 2 bytes: op, rel8.
    JmpNear = 0xE9,  ///< 5 bytes: op, rel32.
    JccShort = 0x70, ///< 8 bytes: op, flags, bias, id32, rel8.
    JccNear = 0x71,  ///< 11 bytes: op, flags, bias, id32, rel32.
    Call = 0xE8,     ///< 5 bytes: op, rel32.
};

/** Flag bits in the Jcc flags byte. */
enum JccFlags : uint8_t {
    /** The branch targets the 'false' successor; direction is inverted. */
    kJccInvert = 0x01,

    /**
     * Periodic direction: logically taken except every bias-th
     * occurrence (loop back-edges with deterministic trip counts).
     * Without this flag the direction is a Bernoulli draw with
     * probability bias/256.
     */
    kJccPeriodic = 0x02,
};

/**
 * A decoded (or to-be-encoded) machine instruction.
 *
 * Branch displacements (@ref rel) are relative to the *end* of the
 * instruction, as on x86.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    uint8_t reg = 0;       ///< Register operand for Alu/Load/Store.
    uint8_t flags = 0;     ///< JccFlags for conditional branches.
    uint8_t bias = 0;      ///< P(logical taken) in 1/256 units.
    uint32_t imm = 0;      ///< ALU immediate or displacement.
    int32_t rel = 0;       ///< Branch displacement from end of instruction.
    uint32_t branchId = 0; ///< Layout-invariant conditional-branch identity.

    /** Encoded size in bytes of this instruction. */
    size_t size() const { return sizeOf(op); }

    /** Encoded size in bytes of any instruction with opcode @p op. */
    static size_t sizeOf(Opcode op);

    bool
    isCondBranch() const
    {
        return op == Opcode::JccShort || op == Opcode::JccNear;
    }

    bool
    isUncondBranch() const
    {
        return op == Opcode::JmpShort || op == Opcode::JmpNear;
    }

    bool isCall() const { return op == Opcode::Call; }
    bool isRet() const { return op == Opcode::Ret; }

    /** True for any control transfer (jumps, calls, returns, halt). */
    bool
    isControlFlow() const
    {
        return isCondBranch() || isUncondBranch() || isCall() || isRet() ||
               op == Opcode::Halt;
    }

    /** True if execution never continues at the next instruction. */
    bool
    endsStream() const
    {
        return isUncondBranch() || isRet() || op == Opcode::Halt;
    }

    /** Append this instruction's encoding to @p out. */
    void encode(std::vector<uint8_t> &out) const;

    /** Human-readable rendering, for debugging and the examples. */
    std::string toString() const;

    bool operator==(const Instruction &other) const = default;
};

/** True if @p byte is a defined opcode (gaps decode as embedded data). */
bool isValidOpcode(uint8_t byte);

/**
 * Decode one instruction from @p data (at most @p avail bytes).
 *
 * Returns std::nullopt for invalid opcodes or truncated input — this is the
 * exact failure mode a disassembler hits on embedded data.
 */
std::optional<Instruction> decode(const uint8_t *data, size_t avail);

/** Shortest encodable branch displacement check. */
inline bool
fitsRel8(int64_t displacement)
{
    return displacement >= -128 && displacement <= 127;
}

/** Short-form opcode for a relaxable near branch, if any. */
std::optional<Opcode> shortFormOf(Opcode op);

} // namespace propeller::isa

#endif // PROPELLER_ISA_ISA_H
