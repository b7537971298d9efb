#pragma once

#include <memory>

#include "core/buffers.h"
#include "core/config.h"
#include "core/device.h"
#include "core/mmr.h"
#include "cpu/core.h"
#include "mem/memory_system.h"

namespace hht::core {

/// The *programmable* Hardware Helper Thread proposed in the paper's
/// conclusions (§7): instead of the fixed-function gather/merge pipelines,
/// a minimal scalar RISC-V-like micro-core ("very few integer instructions,
/// very few integer registers, very small caches") runs *firmware* that
/// performs the metadata walk in software and feeds the same CPU-side
/// buffers through a push port.
///
/// The CPU-facing register map is identical to the ASIC HHT's, so the
/// primary core runs the same consumer kernels unchanged; only the engine
/// behind the buffers differs. Firmware talks to the front-end via the
/// kFw* offsets: a blocking read of kFwSpace (free buffer slots — the
/// flow-control the ASIC's control unit does in hardware) followed by a
/// posted write of the element to one of the push offsets.
///
/// The flexibility/performance trade-off the paper anticipates shows up
/// directly: `bench/paper --only=abl_programmable` measures the slowdown of
/// firmware metadata processing versus the ASIC pipelines.
class MicroHht final : public HhtDevice {
 public:
  MicroHht(const HhtConfig& config, mem::MemorySystem& memory,
           const cpu::TimingConfig& micro_timing = cpu::TimingConfig{});

  /// Install the firmware the micro-core will run on the next START pulse.
  /// The program must end in ECALL (firmware halts when the stream is
  /// fully pushed).
  void setFirmware(const isa::Program& firmware);

  void tick(sim::Cycle now) override;
  bool busy() const override;

  /// Quiescence protocol (DESIGN.md §11): the front-end has no autonomous
  /// per-cycle work, so skippability delegates to the micro-core (whose
  /// Busy stretches — long divides in address arithmetic — are exactly the
  /// firmware's dead cycles).
  sim::Cycle nextEventCycle(sim::Cycle now) const override;
  void skipCycles(sim::Cycle n) override;

  mem::MmioReadResult mmioRead(Addr offset, std::uint32_t size,
                               mem::Requester who) override;
  void mmioWrite(Addr offset, std::uint32_t size, std::uint32_t value,
                 mem::Requester who) override;

  sim::StatSet& stats() override { return stats_; }
  const sim::StatSet& stats() const override { return stats_; }
  std::uint64_t cpuWaitCycles() const override {
    return stats_.value("hht.cpu_wait_cycles");
  }
  std::uint64_t hhtWaitCycles() const override {
    return stats_.value("hht.fw_space_wait_cycles");
  }

  const MmrFile& mmrs() const { return mmr_; }
  cpu::Core& microCore() { return *micro_core_; }
  const cpu::Core& microCore() const { return *micro_core_; }

  // ---- observability surface (HhtDevice) ----
  // Host-only, never serialized: forwards to the embedded micro-core as
  // Component::kMicroCore so firmware compute/stall phases show up as
  // their own trace track alongside the front-end FIFO events.
  void setTraceSink(obs::TraceSink* sink) override {
    trace_ = sink;
    trace_bucket_ = obs::kNoBucket;
    micro_core_->setTraceSink(sink, obs::Component::kMicroCore);
  }

  // ---- fault surface (HhtDevice) ----
  void setFaultInjector(sim::FaultInjector* injector) override;
  std::uint64_t progressSignal() const override;
  void reset() override;
  std::string describeState() const override;

  // ---- checkpoint surface (HhtDevice) ----
  // The programmable variant borrows its firmware by reference and cannot
  // prove a restored program matches; checkpointing it is a documented
  // limitation (DESIGN.md §10) until firmware lives in simulated memory.
  void io(sim::StateIo&) override {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "uhht",
                        "the programmable HHT does not support checkpoints "
                        "(firmware is borrowed host state)");
  }

 private:
  void start();
  mem::MmioReadResult cpuRead(Addr offset);
  mem::MmioReadResult firmwareRead(Addr offset);
  void firmwareWrite(Addr offset, std::uint32_t value);

  HhtConfig cfg_;
  MmrFile mmr_;
  BufferPool buffers_;
  std::unique_ptr<cpu::Core> micro_core_;
  const isa::Program* firmware_ = nullptr;
  bool started_ = false;
  /// FE-side running stream CRC (e2e_check; the CHECK_FE MMR). The BE side
  /// lives in the pool: firmware pushes funnel through BufferPool::push,
  /// the single fold chokepoint — so the channel covers firmware streams
  /// with no firmware changes.
  std::uint32_t fe_crc_ = 0;
  bool mmr_parity_ok_ = true;
  sim::FaultInjector* injector_ = nullptr;
  // Host-only observability state (never serialized; see DESIGN.md §12).
  // MMIO handlers run during the memory tick, after this device's tick at
  // the same cycle, so FIFO/firmware-port events are stamped with the
  // cycle recorded at tick() entry.
  obs::TraceSink* trace_ = nullptr;
  std::uint8_t trace_bucket_ = obs::kNoBucket;
  sim::Cycle last_tick_cycle_ = 0;
  sim::StatSet stats_;
  std::uint64_t* fifo_pops_ = nullptr;  ///< cached "hht.fifo_pops"
  // Hot-path counters cached once (StatSet references are stable).
  std::uint64_t* c_active_cycles_ = nullptr;
  std::uint64_t* c_cpu_wait_cycles_ = nullptr;
  std::uint64_t* c_elements_delivered_ = nullptr;
  std::uint64_t* c_fw_space_wait_ = nullptr;
  std::uint64_t* c_fw_pushes_ = nullptr;
  std::uint64_t* c_fw_row_ends_ = nullptr;
};

}  // namespace hht::core
