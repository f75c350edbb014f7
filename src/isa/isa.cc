#include "isa/isa.h"

#include <cstdio>

#include "support/check.h"

namespace propeller::isa {

namespace {

void
put16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(v & 0xff);
    out.push_back((v >> 8) & 0xff);
}

void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    out.push_back(v & 0xff);
    out.push_back((v >> 8) & 0xff);
    out.push_back((v >> 16) & 0xff);
    out.push_back((v >> 24) & 0xff);
}

uint16_t
get16(const uint8_t *p)
{
    return static_cast<uint16_t>(p[0]) | (static_cast<uint16_t>(p[1]) << 8);
}

uint32_t
get32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

size_t
Instruction::sizeOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
        return 1;
      case Opcode::JmpShort:
        return 2;
      case Opcode::Alu:
        return 3;
      case Opcode::Load:
      case Opcode::Store:
        return 4;
      case Opcode::JmpNear:
      case Opcode::Call:
        return 5;
      case Opcode::AluWide:
        return 6;
      case Opcode::JccShort:
        return 8;
      case Opcode::JccNear:
        return 11;
    }
    // Reaching here means a caller fabricated an Opcode from an unchecked
    // byte; decode() filters input bytes through isValidOpcode() first.
    PROPELLER_CHECK(false, "unknown opcode");
    return 0;
}

void
Instruction::encode(std::vector<uint8_t> &out) const
{
    out.push_back(static_cast<uint8_t>(op));
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
        break;
      case Opcode::Alu:
        out.push_back(reg);
        out.push_back(imm & 0xff);
        break;
      case Opcode::AluWide:
        out.push_back(reg);
        put32(out, imm);
        break;
      case Opcode::Load:
      case Opcode::Store:
        out.push_back(reg);
        put16(out, imm & 0xffff);
        break;
      case Opcode::JmpShort:
        PROPELLER_CHECK(fitsRel8(rel),
                        "short jump displacement out of range");
        out.push_back(static_cast<uint8_t>(static_cast<int8_t>(rel)));
        break;
      case Opcode::JmpNear:
      case Opcode::Call:
        put32(out, static_cast<uint32_t>(rel));
        break;
      case Opcode::JccShort:
        PROPELLER_CHECK(fitsRel8(rel),
                        "short branch displacement out of range");
        out.push_back(flags);
        out.push_back(bias);
        put32(out, branchId);
        out.push_back(static_cast<uint8_t>(static_cast<int8_t>(rel)));
        break;
      case Opcode::JccNear:
        out.push_back(flags);
        out.push_back(bias);
        put32(out, branchId);
        put32(out, static_cast<uint32_t>(rel));
        break;
    }
}

bool
isValidOpcode(uint8_t byte)
{
    switch (static_cast<Opcode>(byte)) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
      case Opcode::Alu:
      case Opcode::AluWide:
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::JmpShort:
      case Opcode::JmpNear:
      case Opcode::JccShort:
      case Opcode::JccNear:
      case Opcode::Call:
        return true;
      default:
        return false;
    }
}

std::optional<Instruction>
decode(const uint8_t *data, size_t avail)
{
    if (avail == 0)
        return std::nullopt;
    if (!isValidOpcode(data[0]))
        return std::nullopt; // Undefined opcode: looks like embedded data.
    auto op = static_cast<Opcode>(data[0]);

    size_t size = Instruction::sizeOf(op);
    if (avail < size)
        return std::nullopt;

    Instruction inst;
    inst.op = op;
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
        break;
      case Opcode::Alu:
        inst.reg = data[1];
        inst.imm = data[2];
        break;
      case Opcode::AluWide:
        inst.reg = data[1];
        inst.imm = get32(data + 2);
        break;
      case Opcode::Load:
      case Opcode::Store:
        inst.reg = data[1];
        inst.imm = get16(data + 2);
        break;
      case Opcode::JmpShort:
        inst.rel = static_cast<int8_t>(data[1]);
        break;
      case Opcode::JmpNear:
      case Opcode::Call:
        inst.rel = static_cast<int32_t>(get32(data + 1));
        break;
      case Opcode::JccShort:
        inst.flags = data[1];
        inst.bias = data[2];
        inst.branchId = get32(data + 3);
        inst.rel = static_cast<int8_t>(data[7]);
        break;
      case Opcode::JccNear:
        inst.flags = data[1];
        inst.bias = data[2];
        inst.branchId = get32(data + 3);
        inst.rel = static_cast<int32_t>(get32(data + 7));
        break;
    }
    return inst;
}

std::optional<Opcode>
shortFormOf(Opcode op)
{
    switch (op) {
      case Opcode::JmpNear:
        return Opcode::JmpShort;
      case Opcode::JccNear:
        return Opcode::JccShort;
      default:
        return std::nullopt;
    }
}

std::string
Instruction::toString() const
{
    char buf[96];
    switch (op) {
      case Opcode::Nop:
        return "nop";
      case Opcode::Halt:
        return "halt";
      case Opcode::Ret:
        return "ret";
      case Opcode::Alu:
        std::snprintf(buf, sizeof(buf), "alu r%u, %u", reg, imm);
        return buf;
      case Opcode::AluWide:
        std::snprintf(buf, sizeof(buf), "aluw r%u, %u", reg, imm);
        return buf;
      case Opcode::Load:
        std::snprintf(buf, sizeof(buf), "load r%u, [%u]", reg, imm);
        return buf;
      case Opcode::Store:
        std::snprintf(buf, sizeof(buf), "store r%u, [%u]", reg, imm);
        return buf;
      case Opcode::JmpShort:
        std::snprintf(buf, sizeof(buf), "jmp.s %+d", rel);
        return buf;
      case Opcode::JmpNear:
        std::snprintf(buf, sizeof(buf), "jmp %+d", rel);
        return buf;
      case Opcode::JccShort:
        std::snprintf(buf, sizeof(buf), "jcc.s %+d (id=%u bias=%u%s)", rel,
                      branchId, bias, (flags & kJccInvert) ? " inv" : "");
        return buf;
      case Opcode::JccNear:
        std::snprintf(buf, sizeof(buf), "jcc %+d (id=%u bias=%u%s)", rel,
                      branchId, bias, (flags & kJccInvert) ? " inv" : "");
        return buf;
      case Opcode::Call:
        std::snprintf(buf, sizeof(buf), "call %+d", rel);
        return buf;
    }
    return "<bad>";
}

} // namespace propeller::isa
