/**
 * @file
 * Unit tests for the synthetic ISA: encoding sizes, encode/decode
 * round-trips, invalid-opcode behaviour and relaxation form mapping.
 */

#include <gtest/gtest.h>

#include "isa/isa.h"

namespace propeller::isa {
namespace {

TEST(IsaSizes, MatchDocumentedEncodings)
{
    EXPECT_EQ(Instruction::sizeOf(Opcode::Nop), 1u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Halt), 1u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Ret), 1u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::JmpShort), 2u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Alu), 3u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Load), 4u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Store), 4u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::JmpNear), 5u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::Call), 5u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::AluWide), 6u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::JccShort), 8u);
    EXPECT_EQ(Instruction::sizeOf(Opcode::JccNear), 11u);
}

/** Build a representative instruction for each opcode. */
Instruction
sample(Opcode op)
{
    Instruction inst;
    inst.op = op;
    switch (op) {
      case Opcode::Alu:
        inst.reg = 5;
        inst.imm = 0x7f;
        break;
      case Opcode::AluWide:
        inst.reg = 15;
        inst.imm = 0xdeadbeef;
        break;
      case Opcode::Load:
      case Opcode::Store:
        inst.reg = 3;
        inst.imm = 0xabcd;
        break;
      case Opcode::JmpShort:
        inst.rel = -100;
        break;
      case Opcode::JmpNear:
        inst.rel = 1 << 20;
        break;
      case Opcode::Call:
        inst.rel = -(1 << 19);
        break;
      case Opcode::JccShort:
        inst.rel = 127;
        inst.flags = kJccInvert;
        inst.bias = 200;
        inst.branchId = 0x12345678;
        break;
      case Opcode::JccNear:
        inst.rel = -(1 << 24);
        inst.flags = kJccPeriodic;
        inst.bias = 17;
        inst.branchId = 0xffffffff;
        break;
      default:
        break;
    }
    return inst;
}

class IsaRoundtrip : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(IsaRoundtrip, EncodeDecodeIsIdentity)
{
    Instruction inst = sample(GetParam());
    std::vector<uint8_t> buf;
    inst.encode(buf);
    ASSERT_EQ(buf.size(), inst.size());
    auto decoded = decode(buf.data(), buf.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, inst);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, IsaRoundtrip,
    ::testing::Values(Opcode::Nop, Opcode::Halt, Opcode::Ret, Opcode::Alu,
                      Opcode::AluWide, Opcode::Load, Opcode::Store,
                      Opcode::JmpShort, Opcode::JmpNear, Opcode::JccShort,
                      Opcode::JccNear, Opcode::Call));

TEST(IsaDecode, InvalidOpcodeFails)
{
    // 0x30..0x3f is in the undefined space used for embedded data; 0x18
    // is undefined too.
    for (uint8_t op : {uint8_t{0x33}, uint8_t{0x18}}) {
        uint8_t data[4] = {op, 0x00, 0x00, 0x00};
        EXPECT_FALSE(isValidOpcode(op)) << int{op};
        EXPECT_FALSE(decode(data, sizeof(data)).has_value()) << int{op};
    }
}

TEST(IsaDecode, TruncatedEncodingFails)
{
    Instruction jcc = sample(Opcode::JccNear);
    std::vector<uint8_t> buf;
    jcc.encode(buf);
    for (size_t len = 1; len < buf.size(); ++len)
        EXPECT_FALSE(decode(buf.data(), len).has_value()) << len;
}

TEST(IsaDecode, EmptyInputFails)
{
    uint8_t byte = 0;
    EXPECT_FALSE(decode(&byte, 0).has_value());
}

TEST(IsaClassify, ControlFlowPredicates)
{
    EXPECT_TRUE(sample(Opcode::JccNear).isCondBranch());
    EXPECT_TRUE(sample(Opcode::JccShort).isCondBranch());
    EXPECT_TRUE(sample(Opcode::JmpNear).isUncondBranch());
    EXPECT_TRUE(sample(Opcode::Call).isCall());
    EXPECT_TRUE(sample(Opcode::Ret).isRet());
    EXPECT_FALSE(sample(Opcode::Alu).isControlFlow());
    EXPECT_TRUE(sample(Opcode::JmpShort).endsStream());
    EXPECT_TRUE(sample(Opcode::Ret).endsStream());
    EXPECT_FALSE(sample(Opcode::JccNear).endsStream());
    EXPECT_FALSE(sample(Opcode::Call).endsStream());
}

TEST(IsaRelax, ShortFormsOfNearBranches)
{
    EXPECT_EQ(shortFormOf(Opcode::JmpNear), Opcode::JmpShort);
    EXPECT_EQ(shortFormOf(Opcode::JccNear), Opcode::JccShort);
    EXPECT_FALSE(shortFormOf(Opcode::Call).has_value());
    EXPECT_FALSE(shortFormOf(Opcode::Alu).has_value());
}

TEST(IsaRelax, Rel8Bounds)
{
    EXPECT_TRUE(fitsRel8(127));
    EXPECT_TRUE(fitsRel8(-128));
    EXPECT_FALSE(fitsRel8(128));
    EXPECT_FALSE(fitsRel8(-129));
}

TEST(IsaToString, RendersReadably)
{
    EXPECT_EQ(sample(Opcode::Ret).toString(), "ret");
    EXPECT_NE(sample(Opcode::JccNear).toString().find("jcc"),
              std::string::npos);
    EXPECT_NE(sample(Opcode::Alu).toString().find("alu r5"),
              std::string::npos);
}

TEST(IsaEncode, NegativeDisplacementsSurvive)
{
    Instruction jmp;
    jmp.op = Opcode::JmpNear;
    jmp.rel = -1;
    std::vector<uint8_t> buf;
    jmp.encode(buf);
    auto decoded = decode(buf.data(), buf.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->rel, -1);
}

} // namespace
} // namespace propeller::isa
