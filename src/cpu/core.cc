#include "cpu/core.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/error.h"
#include "sim/log.h"

namespace hht::cpu {

using isa::InstrClass;
using isa::instrClass;

Core::Core(const TimingConfig& timing, mem::MemorySystem& memory, int vlmax,
           mem::Requester requester, std::uint32_t tile)
    : timing_(timing),
      mem_(memory),
      vlmax_(vlmax),
      requester_(requester),
      tile_(static_cast<std::uint8_t>(tile)),
      port_(mem::requesterIndex(requester, tile)) {
  if (vlmax < 1 || vlmax > isa::kMaxVl) {
    throw std::invalid_argument("vlmax must be in [1, kMaxVl]");
  }
  c_cycles_ = &stats_.counter("cpu.cycles");
  c_retired_ = &stats_.counter("cpu.retired");
  c_load_stall_ = &stats_.counter("cpu.load_stall_cycles");
  c_vec_mem_ = &stats_.counter("cpu.vec_mem_cycles");
  c_loads_ = &stats_.counter("cpu.loads");
  c_stores_ = &stats_.counter("cpu.stores");
  c_br_taken_ = &stats_.counter("cpu.branches_taken");
  c_br_not_taken_ = &stats_.counter("cpu.branches_not_taken");
  c_gathers_ = &stats_.counter("cpu.vector_gathers");
  c_vector_mem_ = &stats_.counter("cpu.vector_mem");
}

void Core::loadProgram(const Program& program) {
  program_ = &program;
  reset();
}

void Core::reset() {
  x_.fill(0);
  f_.fill(0.0f);
  for (auto& vreg : v_) vreg.fill(0);
  vl_ = vlmax_;
  pc_ = 0;
  next_pc_ = 0;
  halted_ = (program_ == nullptr || program_->size() == 0);
  phase_ = Phase::Ready;
  busy_left_ = 0;
  load_req_ = mem::kInvalidRequest;
  vec_pending_.clear();
  vec_issued_ = 0;
  vec_total_ = 0;
  vec_startup_left_ = 0;
}

void Core::io(sim::StateIo& ar) {
  ar.tag("CORE");
  for (auto& x : x_) ar.u32(x);
  for (auto& f : f_) ar.f32(f);
  for (auto& vreg : v_) {
    for (auto& lane : vreg) ar.u32(lane);
  }
  // VSETVLI with x[rs1] = 0 sets vl to 0, so 0..vlmax are all reachable.
  ar.u32(vl_, static_cast<std::uint64_t>(vlmax_) + 1, "vl");
  ar.u64(pc_);
  ar.b(halted_);
  ar.u8(phase_, sim::after(Phase::VecMem), "pipeline phase");
  ar.u64(busy_left_);
  ar.u64(next_pc_);
  ar.u64(load_req_);
  isa::io(ar, load_instr_);
  ar.u32(load_addr_);
  isa::io(ar, vec_instr_);
  ar.u32(vec_issued_);
  ar.u32(vec_total_, static_cast<std::uint64_t>(vlmax_) + 1, "vector length");
  ar.check(vec_issued_ >= 0 && vec_issued_ <= vec_total_,
           "vector issue count out of range");
  ar.u64(vec_startup_left_);
  ar.seq(vec_pending_, 12, [&](VecElem& e) {
    ar.u64(e.req);
    ar.u32(e.lane, static_cast<std::uint64_t>(vl_), "vector lane");
  });
  stats_.io(ar);
}

float Core::fLane(Reg vr, int lane) const {
  return std::bit_cast<float>(v_[vr][lane]);
}

void Core::setFLane(Reg vr, int lane, float value) {
  v_[vr][lane] = std::bit_cast<std::uint32_t>(value);
}

void Core::tick(Cycle now) {
  if (halted_) return;
  ++*c_cycles_;
  if (trace_ != nullptr) traceCycle(now);
  switch (phase_) {
    case Phase::Ready:
      dispatch(now);
      break;
    case Phase::Busy:
      if (--busy_left_ == 0) phase_ = Phase::Ready;
      break;
    case Phase::LoadWait: {
      ++*c_load_stall_;
      if (auto response = mem_.takeResponse(port_, load_req_)) {
        if (response->poisoned) {
          // Machine check: an ECC-uncorrectable response reached a scalar
          // load. Architectural state must not absorb the corrupt word.
          throw sim::SimError(
              sim::ErrorKind::MachineCheck,
              requester_ == mem::Requester::Cpu ? "cpu" : "uhht-core",
              "uncorrectable memory error on scalar load from addr=" +
                  std::to_string(load_addr_) + " at pc=" +
                  std::to_string(pc_),
              {}, tile_);
        }
        const Instr& in = load_instr_;
        const std::uint32_t raw = response->data;
        switch (in.op) {
          case Opcode::LW: setX(in.rd, raw); break;
          case Opcode::LB:
            setX(in.rd, static_cast<std::uint32_t>(
                            static_cast<std::int32_t>(static_cast<std::int8_t>(raw))));
            break;
          case Opcode::LBU: setX(in.rd, raw & 0xFFu); break;
          case Opcode::LH:
            setX(in.rd, static_cast<std::uint32_t>(
                            static_cast<std::int32_t>(static_cast<std::int16_t>(raw))));
            break;
          case Opcode::LHU: setX(in.rd, raw & 0xFFFFu); break;
          case Opcode::FLW: f_[in.rd] = std::bit_cast<float>(raw); break;
          default: break;
        }
        load_req_ = mem::kInvalidRequest;
        pc_ = next_pc_;
        phase_ = Phase::Ready;
      }
      break;
    }
    case Phase::VecMem:
      tickVecMem(now);
      break;
  }
}

Cycle Core::nextEventCycle(Cycle now) const {
  if (halted_) return sim::kNeverCycle;
  switch (phase_) {
    case Phase::Ready:
      return now + 1;  // dispatch is an event
    case Phase::Busy:
      // Ticks now+1 .. now+busy_left_ only decrement the timer; the flip to
      // Ready happens on the last of them and dispatch on the one after.
      return now + busy_left_ + 1;
    case Phase::LoadWait:
      return mem_.responseReadyCycle(port_, load_req_, now);
    case Phase::VecMem:
      if (vec_startup_left_ > 0) return now + vec_startup_left_ + 1;
      if (vec_issued_ < vec_total_) return now + 1;  // issuing every cycle
      if (vec_pending_.empty()) return now + 1;
      {
        Cycle earliest = sim::kNeverCycle;
        for (const VecElem& e : vec_pending_) {
          earliest =
              std::min(earliest, mem_.responseReadyCycle(port_, e.req, now));
          if (earliest <= now + 1) return earliest;  // can't skip; stop scanning
        }
        return earliest;
      }
  }
  return now + 1;
}

void Core::skipCycles(Cycle n) {
  if (halted_ || n == 0) return;
  *c_cycles_ += n;
  switch (phase_) {
    case Phase::Ready:
      break;  // never skipped across: nextEventCycle() is now + 1
    case Phase::Busy:
      busy_left_ -= n;
      if (busy_left_ == 0) phase_ = Phase::Ready;
      break;
    case Phase::LoadWait:
      *c_load_stall_ += n;
      break;
    case Phase::VecMem:
      *c_vec_mem_ += n;
      vec_startup_left_ -= std::min(vec_startup_left_, n);
      break;
  }
}

// Classify the cycle about to execute into a stall-attribution bucket and
// emit a kPhase event on transitions (coalesced: one event per contiguous
// span, so the stream stays small and deterministic). MMIO-directed waits
// are FIFO waits (the HHT FE's streaming port) — except loads aimed at the
// shared work-queue window, which are queue waits (chunk-claim
// arbitration, DESIGN.md §18); SRAM waits are memory waits. Retires are
// stamped at dispatch, which is where c_retired_ bumps.
void Core::traceCycle(Cycle now) {
  if (!trace_->enabled(obs::Category::kCpu)) return;
  std::uint8_t bucket = obs::kBucketCompute;
  switch (phase_) {
    case Phase::Ready:
    case Phase::Busy:
      bucket = obs::kBucketCompute;
      break;
    case Phase::LoadWait:
      bucket = mem_.isWorkQueue(load_addr_) ? obs::kBucketQueueWait
               : mem_.isMmio(load_addr_)    ? obs::kBucketFifoWait
                                            : obs::kBucketMemWait;
      break;
    case Phase::VecMem:
      bucket = mem_.isMmio(x_[vec_instr_.rs1]) ? obs::kBucketFifoWait
                                               : obs::kBucketMemWait;
      break;
  }
  if (bucket != trace_bucket_) {
    trace_bucket_ = bucket;
    trace_->emit(now, obs::Category::kCpu, trace_component_,
                 obs::EventKind::kPhase, bucket);
  }
  if (phase_ == Phase::Ready) {
    const Instr& in = program_->at(pc_);
    trace_->emit(now, obs::Category::kCpu, trace_component_,
                 obs::EventKind::kRetire, pc_,
                 static_cast<std::uint64_t>(in.op));
  }
}

void Core::dispatch(Cycle now) {
  const Instr& in = program_->at(pc_);
  ++*c_retired_;
  switch (instrClass(in.op)) {
    case InstrClass::Load:
    case InstrClass::FpLoad:
      ++*c_loads_;
      startScalarMemory(in);
      return;
    case InstrClass::Store:
    case InstrClass::FpStore:
      ++*c_stores_;
      startScalarMemory(in);
      return;
    case InstrClass::VecLoad:
    case InstrClass::VecStore:
    case InstrClass::VecGather:
      ++*(in.op == Opcode::VLUXEI32 ? c_gathers_ : c_vector_mem_);
      startVectorMemory(in);
      return;
    default:
      execNonMemory(in, now);
      return;
  }
}

namespace {

std::int32_t asSigned(std::uint32_t v) { return static_cast<std::int32_t>(v); }
std::uint32_t asUnsigned(std::int32_t v) { return static_cast<std::uint32_t>(v); }

}  // namespace

void Core::execNonMemory(const Instr& in, Cycle now) {
  Cycle latency = timing_.int_alu;
  std::size_t next = pc_ + 1;

  const std::uint32_t rs1 = x_[in.rs1];
  const std::uint32_t rs2 = x_[in.rs2];

  switch (in.op) {
    // ----- integer register-register -----
    case Opcode::ADD: setX(in.rd, rs1 + rs2); break;
    case Opcode::SUB: setX(in.rd, rs1 - rs2); break;
    case Opcode::SLL: setX(in.rd, rs1 << (rs2 & 31)); break;
    case Opcode::SLT: setX(in.rd, asSigned(rs1) < asSigned(rs2) ? 1 : 0); break;
    case Opcode::SLTU: setX(in.rd, rs1 < rs2 ? 1 : 0); break;
    case Opcode::XOR: setX(in.rd, rs1 ^ rs2); break;
    case Opcode::SRL: setX(in.rd, rs1 >> (rs2 & 31)); break;
    case Opcode::SRA: setX(in.rd, asUnsigned(asSigned(rs1) >> (rs2 & 31))); break;
    case Opcode::OR: setX(in.rd, rs1 | rs2); break;
    case Opcode::AND: setX(in.rd, rs1 & rs2); break;
    case Opcode::MUL:
      latency = timing_.int_mul;
      setX(in.rd, rs1 * rs2);
      break;
    case Opcode::MULH:
      latency = timing_.int_mul;
      setX(in.rd, static_cast<std::uint32_t>(
                      (static_cast<std::int64_t>(asSigned(rs1)) *
                       static_cast<std::int64_t>(asSigned(rs2))) >> 32));
      break;
    case Opcode::MULHU:
      latency = timing_.int_mul;
      setX(in.rd, static_cast<std::uint32_t>(
                      (static_cast<std::uint64_t>(rs1) *
                       static_cast<std::uint64_t>(rs2)) >> 32));
      break;
    case Opcode::DIV: {
      latency = timing_.int_div;
      const std::int32_t a = asSigned(rs1), b = asSigned(rs2);
      std::int32_t q;
      if (b == 0) {
        q = -1;  // RISC-V: division by zero yields all ones
      } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
        q = a;   // signed overflow wraps to the dividend
      } else {
        q = a / b;
      }
      setX(in.rd, asUnsigned(q));
      break;
    }
    case Opcode::DIVU:
      latency = timing_.int_div;
      setX(in.rd, rs2 == 0 ? ~std::uint32_t{0} : rs1 / rs2);
      break;
    case Opcode::REM: {
      latency = timing_.int_div;
      const std::int32_t a = asSigned(rs1), b = asSigned(rs2);
      std::int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == std::numeric_limits<std::int32_t>::min() && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      setX(in.rd, asUnsigned(r));
      break;
    }
    case Opcode::REMU:
      latency = timing_.int_div;
      setX(in.rd, rs2 == 0 ? rs1 : rs1 % rs2);
      break;

    // ----- integer immediate -----
    case Opcode::ADDI: setX(in.rd, rs1 + asUnsigned(in.imm)); break;
    case Opcode::SLTI: setX(in.rd, asSigned(rs1) < in.imm ? 1 : 0); break;
    case Opcode::SLTIU: setX(in.rd, rs1 < asUnsigned(in.imm) ? 1 : 0); break;
    case Opcode::XORI: setX(in.rd, rs1 ^ asUnsigned(in.imm)); break;
    case Opcode::ORI: setX(in.rd, rs1 | asUnsigned(in.imm)); break;
    case Opcode::ANDI: setX(in.rd, rs1 & asUnsigned(in.imm)); break;
    case Opcode::SLLI: setX(in.rd, rs1 << (in.imm & 31)); break;
    case Opcode::SRLI: setX(in.rd, rs1 >> (in.imm & 31)); break;
    case Opcode::SRAI: setX(in.rd, asUnsigned(asSigned(rs1) >> (in.imm & 31))); break;
    case Opcode::LUI: setX(in.rd, asUnsigned(in.imm)); break;

    // ----- control flow -----
    case Opcode::BEQ:
    case Opcode::BNE:
    case Opcode::BLT:
    case Opcode::BGE:
    case Opcode::BLTU:
    case Opcode::BGEU: {
      bool taken = false;
      switch (in.op) {
        case Opcode::BEQ: taken = rs1 == rs2; break;
        case Opcode::BNE: taken = rs1 != rs2; break;
        case Opcode::BLT: taken = asSigned(rs1) < asSigned(rs2); break;
        case Opcode::BGE: taken = asSigned(rs1) >= asSigned(rs2); break;
        case Opcode::BLTU: taken = rs1 < rs2; break;
        case Opcode::BGEU: taken = rs1 >= rs2; break;
        default: break;
      }
      if (taken) {
        next = static_cast<std::size_t>(in.imm);
        latency = timing_.branch_taken;
        ++*c_br_taken_;
      } else {
        latency = timing_.branch_not_taken;
        ++*c_br_not_taken_;
      }
      break;
    }
    case Opcode::JAL:
      setX(in.rd, static_cast<std::uint32_t>(pc_ + 1));
      next = static_cast<std::size_t>(in.imm);
      latency = timing_.jump;
      break;
    case Opcode::JALR:
      setX(in.rd, static_cast<std::uint32_t>(pc_ + 1));
      next = static_cast<std::size_t>(rs1 + asUnsigned(in.imm));
      latency = timing_.jump;
      break;

    // ----- scalar FP -----
    case Opcode::FADD_S: latency = timing_.fp_alu; f_[in.rd] = f_[in.rs1] + f_[in.rs2]; break;
    case Opcode::FSUB_S: latency = timing_.fp_alu; f_[in.rd] = f_[in.rs1] - f_[in.rs2]; break;
    case Opcode::FMUL_S: latency = timing_.fp_mul; f_[in.rd] = f_[in.rs1] * f_[in.rs2]; break;
    case Opcode::FDIV_S: latency = timing_.fp_div; f_[in.rd] = f_[in.rs1] / f_[in.rs2]; break;
    case Opcode::FMIN_S: latency = timing_.fp_alu; f_[in.rd] = std::fmin(f_[in.rs1], f_[in.rs2]); break;
    case Opcode::FMAX_S: latency = timing_.fp_alu; f_[in.rd] = std::fmax(f_[in.rs1], f_[in.rs2]); break;
    case Opcode::FMADD_S:
      latency = timing_.fp_madd;
      f_[in.rd] = std::fma(f_[in.rs1], f_[in.rs2], f_[in.rs3]);
      break;
    case Opcode::FMSUB_S:
      latency = timing_.fp_madd;
      f_[in.rd] = std::fma(f_[in.rs1], f_[in.rs2], -f_[in.rs3]);
      break;
    case Opcode::FSGNJ_S:
      latency = timing_.fp_move;
      f_[in.rd] = std::copysign(f_[in.rs1], f_[in.rs2]);
      break;
    case Opcode::FEQ_S: latency = timing_.fp_alu; setX(in.rd, f_[in.rs1] == f_[in.rs2] ? 1 : 0); break;
    case Opcode::FLT_S: latency = timing_.fp_alu; setX(in.rd, f_[in.rs1] < f_[in.rs2] ? 1 : 0); break;
    case Opcode::FLE_S: latency = timing_.fp_alu; setX(in.rd, f_[in.rs1] <= f_[in.rs2] ? 1 : 0); break;
    case Opcode::FMV_W_X: latency = timing_.fp_move; f_[in.rd] = std::bit_cast<float>(rs1); break;
    case Opcode::FMV_X_W: latency = timing_.fp_move; setX(in.rd, std::bit_cast<std::uint32_t>(f_[in.rs1])); break;
    case Opcode::FCVT_S_W:
      latency = timing_.fp_move;
      f_[in.rd] = static_cast<float>(asSigned(rs1));
      break;
    case Opcode::FCVT_W_S: {
      latency = timing_.fp_move;
      const float s = f_[in.rs1];
      std::int32_t r;
      if (std::isnan(s)) {
        r = std::numeric_limits<std::int32_t>::max();
      } else if (s >= 2147483648.0f) {
        r = std::numeric_limits<std::int32_t>::max();
      } else if (s < -2147483648.0f) {
        r = std::numeric_limits<std::int32_t>::min();
      } else {
        r = static_cast<std::int32_t>(s);
      }
      setX(in.rd, asUnsigned(r));
      break;
    }

    // ----- vector -----
    case Opcode::VSETVLI: {
      latency = timing_.vec_cfg;
      const std::uint32_t requested = rs1;
      vl_ = static_cast<int>(
          std::min<std::uint32_t>(requested, static_cast<std::uint32_t>(vlmax_)));
      setX(in.rd, static_cast<std::uint32_t>(vl_));
      break;
    }
    case Opcode::VADD_VV:
      latency = timing_.vec_alu;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = v_[in.rs1][i] + v_[in.rs2][i];
      break;
    case Opcode::VMUL_VV:
      latency = timing_.vec_alu;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = v_[in.rs1][i] * v_[in.rs2][i];
      break;
    case Opcode::VAND_VV:
      latency = timing_.vec_alu;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = v_[in.rs1][i] & v_[in.rs2][i];
      break;
    case Opcode::VSLL_VI:
      latency = timing_.vec_alu;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = v_[in.rs1][i] << (in.imm & 31);
      break;
    case Opcode::VFADD_VV:
      latency = timing_.vec_fp;
      for (int i = 0; i < vl_; ++i)
        setFLane(in.rd, i, fLane(in.rs1, i) + fLane(in.rs2, i));
      break;
    case Opcode::VFSUB_VV:
      latency = timing_.vec_fp;
      for (int i = 0; i < vl_; ++i)
        setFLane(in.rd, i, fLane(in.rs1, i) - fLane(in.rs2, i));
      break;
    case Opcode::VFMUL_VV:
      latency = timing_.vec_fp;
      for (int i = 0; i < vl_; ++i)
        setFLane(in.rd, i, fLane(in.rs1, i) * fLane(in.rs2, i));
      break;
    case Opcode::VFMACC_VV:
      latency = timing_.vec_fp;
      for (int i = 0; i < vl_; ++i)
        setFLane(in.rd, i, std::fma(fLane(in.rs1, i), fLane(in.rs2, i), fLane(in.rd, i)));
      break;
    case Opcode::VFREDOSUM: {
      latency = timing_.vec_red;
      // builder: vfredosum(vd, vs2, vs1) -> rs1 = element vector, rs2 = seed
      float acc = fLane(in.rs2, 0);
      for (int i = 0; i < vl_; ++i) acc += fLane(in.rs1, i);
      setFLane(in.rd, 0, acc);
      break;
    }
    case Opcode::VMV_V_I:
      latency = timing_.vec_move;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = asUnsigned(in.imm);
      break;
    case Opcode::VMV_V_X:
      latency = timing_.vec_move;
      for (int i = 0; i < vl_; ++i) v_[in.rd][i] = rs1;
      break;
    case Opcode::VFMV_F_S: latency = timing_.vec_move; f_[in.rd] = fLane(in.rs1, 0); break;
    case Opcode::VFMV_S_F: latency = timing_.vec_move; setFLane(in.rd, 0, f_[in.rs1]); break;

    // ----- system -----
    case Opcode::NOP: break;
    case Opcode::ECALL:
      halted_ = true;
      return;  // no pc advance, no busy cycles
    case Opcode::CSRR_CYCLE:
      setX(in.rd, static_cast<std::uint32_t>(now));
      break;

    default:
      throw std::logic_error("execNonMemory: unexpected opcode " +
                             std::string(isa::mnemonic(in.op)));
  }

  pc_ = next;
  if (latency > 1) {
    busy_left_ = latency - 1;
    phase_ = Phase::Busy;
  } else {
    phase_ = Phase::Ready;
  }
}

void Core::startScalarMemory(const Instr& in) {
  const Addr addr = x_[in.rs1] + asUnsigned(in.imm);
  std::uint32_t size = 4;
  if (in.op == Opcode::LB || in.op == Opcode::LBU || in.op == Opcode::SB) size = 1;
  if (in.op == Opcode::LH || in.op == Opcode::LHU || in.op == Opcode::SH) size = 2;

  const InstrClass cls = instrClass(in.op);
  if (cls == InstrClass::Store || cls == InstrClass::FpStore) {
    std::uint32_t wdata = 0;
    if (in.op == Opcode::FSW) {
      wdata = std::bit_cast<std::uint32_t>(f_[in.rs2]);
    } else {
      wdata = x_[in.rs2];
    }
    mem_.submit({addr, size, /*is_write=*/true, wdata, requester_, tile_});
    // Posted store: occupy the pipe for the issue cycle(s) only.
    pc_ = pc_ + 1;
    if (timing_.store_issue > 1) {
      busy_left_ = timing_.store_issue - 1;
      phase_ = Phase::Busy;
    } else {
      phase_ = Phase::Ready;
    }
    return;
  }

  load_req_ =
      mem_.submit({addr, size, /*is_write=*/false, 0, requester_, tile_});
  load_instr_ = in;
  load_addr_ = addr;
  next_pc_ = pc_ + 1;
  phase_ = Phase::LoadWait;
}

void Core::startVectorMemory(const Instr& in) {
  vec_instr_ = in;
  vec_issued_ = 0;
  vec_total_ = vl_;
  vec_pending_.clear();
  next_pc_ = pc_ + 1;
  if (vec_total_ == 0) {
    // Empty transfer: costs the startup only.
    pc_ = next_pc_;
    if (timing_.vec_mem_issue > 1) {
      busy_left_ = timing_.vec_mem_issue - 1;
      phase_ = Phase::Busy;
    } else {
      phase_ = Phase::Ready;
    }
    return;
  }
  vec_startup_left_ = in.op == Opcode::VLUXEI32
                          ? timing_.vec_mem_issue + timing_.gather_startup
                          : timing_.vec_mem_issue;
  phase_ = Phase::VecMem;
}

void Core::tickVecMem(Cycle now) {
  (void)now;
  ++*c_vec_mem_;
  if (vec_startup_left_ > 0) {
    --vec_startup_left_;
    return;
  }

  const Instr& in = vec_instr_;
  const bool gather = in.op == Opcode::VLUXEI32;
  const bool store = in.op == Opcode::VSE32;
  const Addr base = x_[in.rs1];
  const bool fifo_port = mem_.isMmio(base);  // HHT FE: fixed buffer address

  // Issue element transactions at the class rate.
  std::uint32_t rate = gather ? timing_.gather_issue_per_cycle
                              : std::max<std::uint32_t>(1, timing_.vec_bus_bytes / 4);
  while (rate-- > 0 && vec_issued_ < vec_total_) {
    const int lane = vec_issued_++;
    Addr addr;
    if (gather) {
      addr = base + v_[in.rs2][lane];  // byte offsets, as in RVV vluxei32
    } else if (fifo_port) {
      addr = base;  // streaming FIFO interface (§3.1)
    } else {
      addr = base + static_cast<Addr>(lane) * 4;
    }
    if (store) {
      mem_.submit({addr, 4, true, v_[in.rs2][lane], requester_, tile_});
    } else {
      const mem::RequestId id =
          mem_.submit({addr, 4, false, 0, requester_, tile_});
      vec_pending_.push_back({id, lane});
    }
  }

  // Collect load responses. One lane-emptiness load gates the whole scan:
  // with no completed response on this requester's lane, no element poll
  // can succeed, and the per-pending takeResponse scans are skipped.
  if (!vec_pending_.empty() && mem_.hasResponses(requester_, tile_)) {
    std::erase_if(vec_pending_, [&](const VecElem& e) {
      if (auto response = mem_.takeResponse(port_, e.req)) {
        if (response->poisoned) {
          throw sim::SimError(
              sim::ErrorKind::MachineCheck,
              requester_ == mem::Requester::Cpu ? "cpu" : "uhht-core",
              "uncorrectable memory error on vector element load, lane " +
                  std::to_string(e.lane) + " at pc=" + std::to_string(pc_),
              {}, tile_);
        }
        v_[in.rd][e.lane] = response->data;
        return true;
      }
      return false;
    });
  }

  if (vec_issued_ == vec_total_ && vec_pending_.empty()) {
    pc_ = next_pc_;
    phase_ = Phase::Ready;
  }
}

}  // namespace hht::cpu
