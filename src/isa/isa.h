#pragma once

#include <cstdint>
#include <string>

#include "isa/opcodes.h"
#include "sim/state_io.h"

namespace hht::isa {

/// Architectural register counts (RV32-style: 32 integer, 32 FP; the vector
/// file follows RVV's 32 names though kernels use only a handful).
inline constexpr int kNumXRegs = 32;
inline constexpr int kNumFRegs = 32;
inline constexpr int kNumVRegs = 32;
/// Hardware maximum vector length in 32-bit elements (Table 1: VL = 8).
inline constexpr int kMaxVl = 8;

using Reg = std::uint8_t;

/// RISC-V ABI aliases for readability in kernel builders.
namespace reg {
inline constexpr Reg zero = 0, ra = 1, sp = 2, gp = 3, tp = 4;
inline constexpr Reg t0 = 5, t1 = 6, t2 = 7;
inline constexpr Reg s0 = 8, s1 = 9;
inline constexpr Reg a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
                     a6 = 16, a7 = 17;
inline constexpr Reg s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
                     s8 = 24, s9 = 25, s10 = 26, s11 = 27;
inline constexpr Reg t3 = 28, t4 = 29, t5 = 30, t6 = 31;
// FP registers (separate file; same indices namespace).
inline constexpr Reg ft0 = 0, ft1 = 1, ft2 = 2, ft3 = 3;
inline constexpr Reg fs0 = 8, fs1 = 9;
inline constexpr Reg fa0 = 10, fa1 = 11, fa2 = 12;
// Vector registers.
inline constexpr Reg v0 = 0, v1 = 1, v2 = 2, v3 = 3, v4 = 4, v5 = 5, v6 = 6,
                     v7 = 7, v8 = 8;
}  // namespace reg

/// One decoded instruction. Fields are interpreted per opcode, following the
/// analogous RISC-V instruction's operand roles:
///   rd  — destination (x, f or v file per opcode)
///   rs1 — first source / base address register
///   rs2 — second source / store data / index vector
///   rs3 — third source (fmadd family)
///   imm — immediate; for Branch/JAL it is the *absolute target instruction
///         index* after label resolution (the simulator's PC is an index).
struct Instr {
  Opcode op = Opcode::NOP;
  Reg rd = 0;
  Reg rs1 = 0;
  Reg rs2 = 0;
  Reg rs3 = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// An instruction's snapshot encoding: the core's in-flight instructions
/// and the program identity hash both use it.
inline void io(sim::StateIo& ar, Instr& instr) {
  ar.u8(instr.op, kNumOpcodes, "opcode");
  ar.u8(instr.rd, kNumXRegs, "register");
  ar.u8(instr.rs1, kNumXRegs, "register");
  ar.u8(instr.rs2, kNumXRegs, "register");
  ar.u8(instr.rs3, kNumXRegs, "register");
  ar.u32(instr.imm);
}

/// Human-readable rendering, e.g. "addi t0, t0, 4" or "beq t0, t1, @12".
std::string disassemble(const Instr& instr);

}  // namespace hht::isa
