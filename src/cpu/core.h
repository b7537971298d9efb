#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/timing.h"
#include "isa/program.h"
#include "mem/memory_system.h"
#include "obs/trace.h"
#include "sim/state_io.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::cpu {

using isa::Instr;
using isa::Opcode;
using isa::Program;
using isa::Reg;
using sim::Addr;
using sim::Cycle;
using sim::StatSet;

/// Cycle-stepped in-order RV32-flavoured core with an RVV-style vector unit.
///
/// One instruction is in flight at a time (3-stage in-order pipeline folded
/// into per-instruction occupancy, as in the paper's extended Spike):
/// non-memory instructions occupy the pipe for their class latency; loads
/// stall until the memory system responds; vector memory operations issue
/// element transactions at the configured rates. Functional execution is
/// exact — kernels compute real results in simulated SRAM, which tests
/// compare against the sparse library's reference kernels.
class Core {
 public:
  /// `vlmax` is the hardware vector length in 32-bit elements (Table 1:
  /// 8; Fig. 8 sweeps {1, 4, 8}). Must be 1..isa::kMaxVl.
  /// `requester` tags this core's memory traffic for arbitration and
  /// statistics: the primary core is Requester::Cpu; the programmable
  /// HHT's micro-core (§7) runs as Requester::Hht. `tile` identifies the
  /// {CPU+HHT} tile this core belongs to in a multi-tile system (0 in the
  /// paper's single-tile machine).
  Core(const TimingConfig& timing, mem::MemorySystem& memory, int vlmax,
       mem::Requester requester = mem::Requester::Cpu,
       std::uint32_t tile = 0);

  /// Install a program and reset architectural + pipeline state.
  void loadProgram(const Program& program);
  void reset();

  /// Install a program WITHOUT resetting state — the checkpoint-restore
  /// path: a restoring io() supplies every architectural and pipeline field,
  /// and the caller has already verified the program's identity against
  /// the snapshot header.
  void installProgram(const Program& program) { program_ = &program; }

  /// Checkpoint hook: full architectural + pipeline state. The program
  /// itself is not in the snapshot (host-owned); System records its
  /// identity.
  void io(sim::StateIo& ar);

  /// Advance one cycle. No-op once halted.
  void tick(Cycle now);

  /// Earliest future cycle (> now) at which this core can change state or
  /// perform an event, assuming nothing else in the system acts first.
  /// Returns sim::kNeverCycle when halted (quiescence protocol, DESIGN.md
  /// §11). A return of now + 1 means "not quiescent — tick me".
  Cycle nextEventCycle(Cycle now) const;

  /// Bulk-credit `n` skipped cycles: exactly the counter bumps and timer
  /// decrements the pure-stall ticks would have performed, with no other
  /// side effects. Only valid for n < nextEventCycle(now) - now - 1.
  void skipCycles(Cycle n);

  bool halted() const { return halted_; }
  /// True when the core has more work this cycle (used by run loops
  /// together with MemorySystem::idle()).
  bool busy() const { return !halted_; }

  // Architectural state access (harness setup / test inspection).
  std::uint32_t getX(Reg r) const { return x_[r]; }
  void setX(Reg r, std::uint32_t v) { if (r != 0) x_[r] = v; }
  float getF(Reg r) const { return f_[r]; }
  void setF(Reg r, float v) { f_[r] = v; }
  std::uint32_t getVLane(Reg vr, int lane) const { return v_[vr][lane]; }
  int vl() const { return vl_; }
  int vlmax() const { return vlmax_; }
  std::size_t pc() const { return pc_; }

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  const TimingConfig& timing() const { return timing_; }

  /// Attach a structured trace sink (obs layer). Host-side observation
  /// only: never serialized, never consulted by architectural logic, so a
  /// traced run is bit-identical to an untraced one. `component` labels
  /// this core's events (primary core vs the micro-HHT's embedded core).
  void setTraceSink(obs::TraceSink* sink, obs::Component component) {
    trace_ = sink;
    trace_component_ = component;
    trace_bucket_ = obs::kNoBucket;
  }

  /// Cycles retired so far attribute totals; convenience accessors for the
  /// counters the paper reports.
  std::uint64_t retiredInstructions() const { return stats_.value("cpu.retired"); }

 private:
  enum class Phase {
    Ready,     ///< fetch/dispatch a new instruction this cycle
    Busy,      ///< multi-cycle non-memory instruction draining
    LoadWait,  ///< scalar load waiting on the memory response
    VecMem,    ///< vector load/store/gather issuing + waiting on elements
  };

  void dispatch(Cycle now);
  void traceCycle(Cycle now);
  void execNonMemory(const Instr& instr, Cycle now);
  void startScalarMemory(const Instr& instr);
  void startVectorMemory(const Instr& instr);
  void tickVecMem(Cycle now);
  void retire();

  float fLane(Reg vr, int lane) const;
  void setFLane(Reg vr, int lane, float v);

  TimingConfig timing_;
  mem::MemorySystem& mem_;
  int vlmax_;
  mem::Requester requester_;
  std::uint8_t tile_;
  std::uint32_t port_;  ///< mem::requesterIndex(requester_, tile_)

  const Program* program_ = nullptr;

  // Architectural state.
  std::array<std::uint32_t, isa::kNumXRegs> x_{};
  std::array<float, isa::kNumFRegs> f_{};
  std::array<std::array<std::uint32_t, isa::kMaxVl>, isa::kNumVRegs> v_{};
  int vl_ = 0;
  std::size_t pc_ = 0;
  bool halted_ = true;

  // Pipeline state.
  Phase phase_ = Phase::Ready;
  Cycle busy_left_ = 0;          ///< extra cycles after the current one
  std::size_t next_pc_ = 0;

  // Scalar load in flight.
  mem::RequestId load_req_ = mem::kInvalidRequest;
  Instr load_instr_{};
  Addr load_addr_ = 0;  ///< for the machine-check diagnostic

  // Vector memory operation in flight.
  struct VecElem {
    mem::RequestId req = mem::kInvalidRequest;
    int lane = 0;
  };
  Instr vec_instr_{};
  int vec_issued_ = 0;           ///< elements issued so far
  int vec_total_ = 0;            ///< elements to transfer (= vl at dispatch)
  Cycle vec_startup_left_ = 0;
  std::vector<VecElem> vec_pending_;

  StatSet stats_;

  // Host-only trace state (not serialized; resumed runs re-announce their
  // first bucket, which tests normalize by expanding to per-cycle values).
  obs::TraceSink* trace_ = nullptr;
  obs::Component trace_component_ = obs::Component::kCpu;
  std::uint8_t trace_bucket_ = obs::kNoBucket;

  // Hot-path counters cached once (StatSet references are stable).
  std::uint64_t* c_cycles_;
  std::uint64_t* c_retired_;
  std::uint64_t* c_load_stall_;
  std::uint64_t* c_vec_mem_;
  std::uint64_t* c_loads_;
  std::uint64_t* c_stores_;
  std::uint64_t* c_br_taken_;
  std::uint64_t* c_br_not_taken_;
  std::uint64_t* c_gathers_;
  std::uint64_t* c_vector_mem_;
};

}  // namespace hht::cpu
