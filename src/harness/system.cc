#include "harness/system.h"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "harness/run_loop.h"
#include "sim/state_io.h"

namespace hht::harness {

namespace {
constexpr Addr kArenaBase = 0x1000;  // keep address 0 unmapped-looking

/// Pre-construction validation hook: members are built from `config`, so
/// the checks must run before the initializer list touches it.
const SystemConfig& validated(const SystemConfig& config) {
  config.validate();
  return config;
}

// --- snapshot identity ---
//
// A snapshot only replays correctly on a System built from an *identical*
// SystemConfig running the *identical* program (same name and encoded
// instructions). Rather than serialize and diff whole configs, both sides
// are reduced to FNV-1a fingerprints over a canonical byte serialization;
// restore() rejects any mismatch with SimError(Checkpoint).

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

void writeTiming(sim::StateWriter& w, const cpu::TimingConfig& t) {
  w.u64(t.int_alu).u64(t.int_mul).u64(t.int_div);
  w.u64(t.branch_not_taken).u64(t.branch_taken).u64(t.jump);
  w.u64(t.fp_alu).u64(t.fp_mul).u64(t.fp_madd).u64(t.fp_div).u64(t.fp_move);
  w.u64(t.load_issue).u64(t.store_issue);
  w.u64(t.vec_cfg).u64(t.vec_alu).u64(t.vec_fp).u64(t.vec_red).u64(t.vec_move);
  w.u64(t.vec_mem_issue).u64(t.gather_startup);
  w.u32(t.vec_bus_bytes).u32(t.gather_issue_per_cycle);
  w.u64(std::bit_cast<std::uint64_t>(t.clock_hz));
}

cpu::TimingConfig readTiming(sim::StateReader& r) {
  cpu::TimingConfig t;
  t.int_alu = r.u64();
  t.int_mul = r.u64();
  t.int_div = r.u64();
  t.branch_not_taken = r.u64();
  t.branch_taken = r.u64();
  t.jump = r.u64();
  t.fp_alu = r.u64();
  t.fp_mul = r.u64();
  t.fp_madd = r.u64();
  t.fp_div = r.u64();
  t.fp_move = r.u64();
  t.load_issue = r.u64();
  t.store_issue = r.u64();
  t.vec_cfg = r.u64();
  t.vec_alu = r.u64();
  t.vec_fp = r.u64();
  t.vec_red = r.u64();
  t.vec_move = r.u64();
  t.vec_mem_issue = r.u64();
  t.gather_startup = r.u64();
  t.vec_bus_bytes = r.u32();
  t.gather_issue_per_cycle = r.u32();
  t.clock_hz = std::bit_cast<double>(r.u64());
  return t;
}
}  // namespace

std::uint64_t configFingerprint(const SystemConfig& cfg) {
  sim::StateWriter w;
  writeSystemConfig(w, cfg);
  return fnv1a(w.data().data(), w.size());
}

std::uint64_t programHash(const isa::Program& program) {
  sim::StateWriter w;
  w.str(program.name());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const isa::Instr& instr = program.at(i);
    w.u8(static_cast<std::uint8_t>(instr.op));
    w.u8(instr.rd).u8(instr.rs1).u8(instr.rs2).u8(instr.rs3);
    w.u32(static_cast<std::uint32_t>(instr.imm));
  }
  return fnv1a(w.data().data(), w.size());
}

void writeSystemConfig(sim::StateWriter& w, const SystemConfig& cfg) {
  writeTiming(w, cfg.timing);
  const mem::MemorySystemConfig& m = cfg.memory;
  w.u64(m.sram_bytes).u64(m.sram_latency).u32(m.grants_per_cycle);
  w.u8(static_cast<std::uint8_t>(m.policy));
  w.u32(m.num_tiles).u32(m.cpu_starvation_limit);
  w.b(m.cpu_cache_enabled).b(m.hht_cache_enabled);
  w.u32(m.cache.size_bytes).u32(m.cache.line_bytes).u32(m.cache.ways);
  w.u64(m.cache.hit_latency).u64(m.cache.miss_penalty);
  w.u64(m.cache.writeback_penalty);
  w.b(m.prefetch_enabled).u32(m.prefetch_degree);
  w.u32(m.mmio_base).u32(m.mmio_size);
  w.b(m.work_queue_enabled);
  const mem::TopologyConfig& topo = m.topology;
  w.u32(topo.channels).u32(topo.interleave_bytes);
  w.u64(topo.link_latency).u32(topo.link_bandwidth);
  w.b(topo.tile_l1_enabled);
  w.u32(topo.tile_l1.size_bytes).u32(topo.tile_l1.line_bytes);
  w.u32(topo.tile_l1.ways);
  w.u64(topo.tile_l1.hit_latency).u64(topo.tile_l1.miss_penalty);
  w.u64(topo.tile_l1.writeback_penalty);
  w.b(topo.hht_prefetch_enabled);
  w.u32(topo.hht_prefetch_degree).u32(topo.hht_prefetch_queue);
  w.u32(static_cast<std::uint32_t>(topo.nodes.size()));
  for (const mem::TopologyNodeConfig& node : topo.nodes) {
    w.u32(node.grants_per_cycle).u64(node.extra_latency);
  }
  const core::HhtConfig& h = cfg.hht;
  w.u32(h.num_buffers).u32(h.buffer_len).u32(h.be_issue_per_cycle);
  w.u32(h.cmp_per_cycle).u32(h.cmp_recurrence).u32(h.emit_per_cycle);
  w.u32(h.prefetch_queue).u32(h.emission_queue);
  w.u64(h.test_flip_element);
  w.u32(static_cast<std::uint32_t>(cfg.vlmax));
  w.b(cfg.programmable_hht);
  writeTiming(w, cfg.micro_timing);
  const sim::FaultConfig& f = cfg.faults;
  w.b(f.enabled).u64(f.seed);
  w.u64(std::bit_cast<std::uint64_t>(f.sram_read_flip_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.drop_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.delay_rate));
  w.u64(f.delay_cycles);
  w.u64(std::bit_cast<std::uint64_t>(f.mmr_glitch_rate));
  w.u64(std::bit_cast<std::uint64_t>(f.fifo_corrupt_rate));
  w.u32(f.ecc_retry_limit).u64(f.drop_penalty_cycles);
  w.u64(cfg.watchdog_cycles);
}

SystemConfig readSystemConfig(sim::StateReader& r) {
  SystemConfig cfg;
  cfg.timing = readTiming(r);
  mem::MemorySystemConfig& m = cfg.memory;
  m.sram_bytes = static_cast<std::size_t>(r.u64());
  m.sram_latency = r.u64();
  m.grants_per_cycle = r.u32();
  m.policy = static_cast<mem::ArbiterPolicy>(r.u8());
  m.num_tiles = r.u32();
  m.cpu_starvation_limit = r.u32();
  m.cpu_cache_enabled = r.b();
  m.hht_cache_enabled = r.b();
  m.cache.size_bytes = r.u32();
  m.cache.line_bytes = r.u32();
  m.cache.ways = r.u32();
  m.cache.hit_latency = r.u64();
  m.cache.miss_penalty = r.u64();
  m.cache.writeback_penalty = r.u64();
  m.prefetch_enabled = r.b();
  m.prefetch_degree = r.u32();
  m.mmio_base = r.u32();
  m.mmio_size = r.u32();
  m.work_queue_enabled = r.b();
  mem::TopologyConfig& topo = m.topology;
  topo.channels = r.u32();
  topo.interleave_bytes = r.u32();
  topo.link_latency = r.u64();
  topo.link_bandwidth = r.u32();
  topo.tile_l1_enabled = r.b();
  topo.tile_l1.size_bytes = r.u32();
  topo.tile_l1.line_bytes = r.u32();
  topo.tile_l1.ways = r.u32();
  topo.tile_l1.hit_latency = r.u64();
  topo.tile_l1.miss_penalty = r.u64();
  topo.tile_l1.writeback_penalty = r.u64();
  topo.hht_prefetch_enabled = r.b();
  topo.hht_prefetch_degree = r.u32();
  topo.hht_prefetch_queue = r.u32();
  topo.nodes.resize(r.u32());
  for (mem::TopologyNodeConfig& node : topo.nodes) {
    node.grants_per_cycle = r.u32();
    node.extra_latency = r.u64();
  }
  core::HhtConfig& h = cfg.hht;
  h.num_buffers = r.u32();
  h.buffer_len = r.u32();
  h.be_issue_per_cycle = r.u32();
  h.cmp_per_cycle = r.u32();
  h.cmp_recurrence = r.u32();
  h.emit_per_cycle = r.u32();
  h.prefetch_queue = r.u32();
  h.emission_queue = r.u32();
  h.test_flip_element = r.u64();
  cfg.vlmax = static_cast<int>(r.u32());
  cfg.programmable_hht = r.b();
  cfg.micro_timing = readTiming(r);
  sim::FaultConfig& f = cfg.faults;
  f.enabled = r.b();
  f.seed = r.u64();
  f.sram_read_flip_rate = std::bit_cast<double>(r.u64());
  f.drop_rate = std::bit_cast<double>(r.u64());
  f.delay_rate = std::bit_cast<double>(r.u64());
  f.delay_cycles = r.u64();
  f.mmr_glitch_rate = std::bit_cast<double>(r.u64());
  f.fifo_corrupt_rate = std::bit_cast<double>(r.u64());
  f.ecc_retry_limit = r.u32();
  f.drop_penalty_cycles = r.u64();
  cfg.watchdog_cycles = r.u64();
  return cfg;
}

namespace {
/// System models exactly one {CPU+HHT} tile; MultiTileSystem owns the
/// N-tile topology. Catch the mismatch before components are built on a
/// memory system whose extra arbiter ports nothing would ever drive.
const SystemConfig& singleTileOnly(const SystemConfig& config) {
  if (config.memory.num_tiles != 1) {
    throw sim::SimError(sim::ErrorKind::Config, "system",
                        "System is single-tile; memory.num_tiles=" +
                            std::to_string(config.memory.num_tiles) +
                            " requires harness::MultiTileSystem");
  }
  return config;
}
}  // namespace

System::System(const SystemConfig& config)
    : config_(validated(singleTileOnly(config))),
      injector_(config.faults.enabled
                    ? std::make_unique<sim::FaultInjector>(config.faults)
                    : nullptr),
      mem_(std::make_unique<mem::MemorySystem>(config.memory)),
      cpu_(std::make_unique<cpu::Core>(config.timing, *mem_, config.vlmax)),
      arena_(kArenaBase, config.memory.sram_bytes - kArenaBase) {
  if (config.programmable_hht) {
    auto micro = std::make_unique<core::MicroHht>(config.hht, *mem_,
                                                  config.micro_timing);
    micro_hht_ = micro.get();
    hht_ = std::move(micro);
  } else {
    auto asic = std::make_unique<core::Hht>(config.hht, *mem_);
    asic_hht_ = asic.get();
    hht_ = std::move(asic);
  }
  mem_->attachMmioDevice(hht_.get());
  if (injector_) {
    mem_->setFaultInjector(injector_.get());
    hht_->setFaultInjector(injector_.get());
  }
  if (config.trace_sink != nullptr) {
    cpu_->setTraceSink(config.trace_sink, obs::Component::kCpu);
    mem_->setTraceSink(config.trace_sink);
    hht_->setTraceSink(config.trace_sink);
  }
}

RunResult System::run(const isa::Program& program, Addr y_addr,
                      std::uint32_t y_len, Cycle max_cycles,
                      const isa::Program* fallback, RunObserver* observer) {
  cpu_->loadProgram(program);
  host_skipped_cycles_ = 0;
  return runPrimary(program, y_addr, y_len, 0, max_cycles, fallback,
                    observer);
}

RunResult System::resume(const isa::Program& program, Addr y_addr,
                         std::uint32_t y_len, Cycle start_cycle,
                         Cycle max_cycles, const isa::Program* fallback,
                         RunObserver* observer) {
  cpu_->installProgram(program);
  host_skipped_cycles_ = 0;
  if (!degraded_active_) {
    return runPrimary(program, y_addr, y_len, start_cycle, max_cycles,
                      fallback, observer);
  }
  // The snapshot was taken mid-degraded-fallback: `program` is the
  // fallback the machine was re-running. Finish that rerun — injection
  // stays detached, exactly as in the uninterrupted degraded rerun.
  runDegraded(program, start_cycle, max_cycles, observer);
  RunResult result;
  result.degraded = true;
  result.fault_cause = degraded_cause_;
  result.fault_detail = degraded_detail_;
  finishResult(result, y_addr, y_len);
  return result;
}

LoopOutcome System::runCycles(Cycle start_cycle, Cycle max_cycles,
                              RunObserver* observer, bool degraded) {
  // An observer (per-run or registered) is entitled to see every executed
  // cycle — the differential oracle samples FIFO occupancy, checkpoint
  // triggers fire at exact cycles — and a trace must record every executed
  // cycle's phase.
  const LoopOptions options{
      .every_cycle = !config_.host_fastforward || observer != nullptr ||
                     !observers_.empty() || config_.trace_sink != nullptr,
      .watchdog_cycles = degraded ? 0 : config_.watchdog_cycles,
      .poll_faults = !degraded};
  // Typed on the concrete device (both are final), so the per-cycle
  // dispatch inlines.
  const auto loop = [&](auto& device) {
    using Device = std::remove_reference_t<decltype(device)>;
    struct View {
      System& sys;
      Device& dev;
      RunObserver* observer;
      // Progress = retired instructions + SRAM grants + HHT FIFO pops /
      // firmware retirement.
      const std::uint64_t* retired;
      const std::uint64_t* grants;
      Device& device(std::uint32_t) { return dev; }
      cpu::Core& core(std::uint32_t) { return *sys.cpu_; }
      std::uint64_t progress(std::uint32_t) const {
        return *retired + *grants + dev.progressSignal();
      }
      bool watched(std::uint32_t) const { return true; }
      void onCycle(Cycle now) {
        if (observer != nullptr) observer->onCycle(sys, now);
        for (RunObserver* o : sys.observers_) o->onCycle(sys, now);
      }
      std::string dump(Cycle now) const { return sys.dumpDiagnostics(now); }
      void beforeMemTick(Cycle) {}
    } view{*this, device, observer, &cpu_->stats().counter("cpu.retired"),
           &mem_->stats().counter("mem.grants")};
    return RunLoop<Device, View>(view, *mem_, 1, options)
        .run(start_cycle, max_cycles, host_skipped_cycles_);
  };
  return asic_hht_ != nullptr ? loop(*asic_hht_) : loop(*micro_hht_);
}

RunResult System::runPrimary(const isa::Program& program, Addr y_addr,
                             std::uint32_t y_len, Cycle start_cycle,
                             Cycle max_cycles, const isa::Program* fallback,
                             RunObserver* observer) {
  RunResult result;
  const LoopOutcome out =
      runCycles(start_cycle, max_cycles, observer, /*degraded=*/false);
  if (out.stop == RunStop::Timeout) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "simulation exceeded max_cycles running " +
                            program.name(),
                        dumpDiagnostics(out.now));
  }
  if (out.stop == RunStop::Fault) {
    // Host-side poll of the FAULT MMR (zero simulated cost): the run can
    // never complete with silently wrong data past this point.
    result.fault_cause = hht_->faultCause();
    result.fault_detail = hht_->faultDetail();
    if (fallback == nullptr) {
      throw sim::SimError(
          sim::ErrorKind::DeviceFault, "hht",
          std::string("HHT raised fault [") +
              sim::faultCauseName(result.fault_cause) +
              "] with no degradation fallback installed: " +
              result.fault_detail,
          dumpDiagnostics(out.now));
    }
    degraded_cause_ = result.fault_cause;
    degraded_detail_ = result.fault_detail;
    // Quiesce: stop injecting (the recovery run must succeed), drop every
    // in-flight access (stale responses must not leak into the rerun) and
    // return the device to its reset state.
    mem_->setFaultInjector(nullptr);
    hht_->setFaultInjector(nullptr);
    mem_->cancelAll();
    hht_->reset();
    cpu_->loadProgram(*fallback);
    runDegraded(*fallback, 0, max_cycles, observer);
    result.degraded = true;
  }
  if (config_.trace_sink != nullptr &&
      config_.trace_sink->enabled(obs::Category::kSystem)) {
    // Horizon marker: the run executed cycles [start_cycle, now], so the
    // profiler's total-cycle denominator is now + 1.
    config_.trace_sink->emit(out.now, obs::Category::kSystem,
                             obs::Component::kSystem, obs::EventKind::kRunEnd,
                             out.now + 1);
  }
  finishResult(result, y_addr, y_len);
  return result;
}

void System::finishResult(RunResult& result, Addr y_addr,
                          std::uint32_t y_len) {
  result.cycles = cpu_->stats().value("cpu.cycles");
  result.retired = cpu_->stats().value("cpu.retired");
  result.cpu_wait_cycles = hht_->cpuWaitCycles();
  result.hht_wait_cycles = hht_->hhtWaitCycles();
  result.hht_residual_busy = hht_->busy();
  result.y = sparse::DenseVector(
      mem_->sram().peekArray<float>(y_addr, y_len));

  mem_->finalizeStats();
  result.stats.absorb(cpu_->stats(), "");
  result.stats.absorb(mem_->stats(), "");
  result.stats.absorb(hht_->stats(), "");
  if (injector_) result.stats.absorb(injector_->stats(), "");
}

std::vector<std::uint8_t> System::checkpoint(const isa::Program& program,
                                             Cycle next_cycle) const {
  sim::StateWriter w;
  w.tag("HHTS");
  w.u32(kSnapshotVersion);
  w.u64(configFingerprint(config_));
  w.str(program.name());
  w.u64(programHash(program));
  w.u64(next_cycle);
  // v4: degraded-mode continuation state. When taken mid-fallback-rerun the
  // recorded program IS the fallback, and restore()+resume() must land in
  // the degraded loop (injection detached) rather than the primary one.
  w.b(degraded_active_);
  if (degraded_active_) {
    w.u8(static_cast<std::uint8_t>(degraded_cause_));
    w.str(degraded_detail_);
  }
  w.b(injector_ != nullptr);
  if (injector_) injector_->serialize(w);
  mem_->serialize(w);
  hht_->serialize(w);
  cpu_->serialize(w);
  return w.data();
}

Cycle System::restore(const std::vector<std::uint8_t>& snapshot,
                      const isa::Program& program) {
  sim::StateReader r(snapshot);
  r.expectTag("HHTS");
  const std::uint32_t version = r.u32();
  if (version > kSnapshotVersion) {
    // Forward compatibility is explicitly NOT attempted: a newer writer may
    // have added fields this binary cannot even skip safely (sections are
    // length-free), so best-effort reading would deserialize garbage into
    // live component state. Fail structurally instead.
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot version " + std::to_string(version) +
                            " is newer than this binary's supported version " +
                            std::to_string(kSnapshotVersion) +
                            "; refusing best-effort restore (upgrade the "
                            "binary that restores, not the snapshot)");
  }
  if (version != kSnapshotVersion) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot version " + std::to_string(version) +
                            " != supported version " +
                            std::to_string(kSnapshotVersion));
  }
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != configFingerprint(config_)) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot was taken under a different SystemConfig "
                        "(fingerprint mismatch)");
  }
  const std::string prog_name = r.str();
  const std::uint64_t prog_hash = r.u64();
  if (prog_name != program.name() || prog_hash != programHash(program)) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot records program '" + prog_name +
                            "', got '" + program.name() +
                            "' (or the code differs)");
  }
  const Cycle next_cycle = r.u64();
  degraded_active_ = r.b();
  if (degraded_active_) {
    degraded_cause_ = static_cast<sim::FaultCause>(r.u8());
    degraded_detail_ = r.str();
  } else {
    degraded_cause_ = sim::FaultCause::None;
    degraded_detail_.clear();
  }
  const bool has_injector = r.b();
  if (has_injector != (injector_ != nullptr)) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        "snapshot fault-injector presence does not match "
                        "this System");
  }
  if (injector_) injector_->deserialize(r);
  mem_->deserialize(r);
  hht_->deserialize(r);
  cpu_->deserialize(r);
  if (!r.atEnd()) {
    throw sim::SimError(sim::ErrorKind::Checkpoint, "system",
                        std::to_string(r.remaining()) +
                            " trailing bytes after snapshot payload");
  }
  if (degraded_active_) {
    // Mid-fallback snapshot: the rerun executes with injection detached;
    // resume() re-arms it once the degraded loop completes.
    mem_->setFaultInjector(nullptr);
    hht_->setFaultInjector(nullptr);
  }
  cpu_->installProgram(program);
  return next_cycle;
}

void System::runDegraded(const isa::Program& fallback, Cycle start_cycle,
                         Cycle max_cycles, RunObserver* observer) {
  // The fallback run restarts its cycle numbering at 0 and never injects
  // or polls the FAULT MMR (the device was reset; the fallback is
  // CPU-only). Observers still see every executed cycle — that is what
  // lets a mid-degraded checkpoint fire at an exact degraded cycle —
  // with degradedActive() distinguishing these cycles from primary ones.
  degraded_active_ = true;
  const LoopOutcome out =
      runCycles(start_cycle, max_cycles, observer, /*degraded=*/true);
  if (out.stop == RunStop::Timeout) {
    throw sim::SimError(sim::ErrorKind::Watchdog, "system",
                        "degraded fallback run exceeded max_cycles running " +
                            fallback.name(),
                        dumpDiagnostics(out.now));
  }
  // Re-arm injection for any subsequent run on this System.
  if (injector_) {
    mem_->setFaultInjector(injector_.get());
    hht_->setFaultInjector(injector_.get());
  }
  degraded_active_ = false;
}

std::string System::dumpDiagnostics(Cycle now) const {
  std::ostringstream os;
  os << "diagnostic dump at cycle " << now << "\n";
  os << "cpu: halted=" << cpu_->halted() << " pc=" << cpu_->pc()
     << " retired=" << cpu_->stats().value("cpu.retired")
     << " load_stalls=" << cpu_->stats().value("cpu.load_stall_cycles")
     << "\n";
  os << hht_->describeState() << "\n";
  os << mem_->describeState();
  return os.str();
}

kernels::SpmvLayout loadSpmv(mem::Arena& arena, mem::Sram& sram,
                             const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmv: vector length != matrix columns");
  }
  kernels::SpmvLayout layout;
  layout.num_rows = m.numRows();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmvLayout loadSpmv(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseVector& v) {
  return loadSpmv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::SpmspvLayout loadSpmspv(mem::Arena& arena, mem::Sram& sram,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadSpmspv: vector length != matrix columns");
  }
  kernels::SpmspvLayout layout;
  layout.num_rows = m.numRows();
  layout.v_nnz = v.nnz();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  layout.vidx = arena.place<sim::Index>(sram, v.indices());
  layout.vvals = arena.place<float>(sram, v.vals());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmspvLayout loadSpmspv(System& sys, const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v) {
  return loadSpmspv(sys.arena(), sys.memory().sram(), m, v);
}

kernels::HierLayout loadHier(System& sys, const sparse::HierBitmapMatrix& m,
                             const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadHier: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  // uint64 words laid out little-endian: the engine's 32-bit reads see
  // bits [i*32, i*32+32) at word offset i, as it expects.
  layout.l1 = arena.place<std::uint64_t>(sram, m.level1(), 8);
  layout.leaves = arena.place<std::uint64_t>(sram, m.leaves(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

kernels::SpmmLayout loadSpmm(System& sys, const sparse::CsrMatrix& m,
                             const sparse::DenseMatrix& b) {
  if (b.numRows() != m.numCols()) {
    throw std::invalid_argument("loadSpmm: B rows != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::SpmmLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.k = b.numCols();
  layout.rows = arena.place<sim::Index>(sram, m.rowPtr());
  layout.cols = arena.place<sim::Index>(sram, m.cols());
  layout.vals = arena.place<float>(sram, m.vals());
  // Column-major copy of B.
  std::vector<float> colmajor(static_cast<std::size_t>(b.numRows()) * b.numCols());
  for (sim::Index j = 0; j < b.numCols(); ++j) {
    for (sim::Index i = 0; i < b.numRows(); ++i) {
      colmajor[static_cast<std::size_t>(j) * b.numRows() + i] = b.at(i, j);
    }
  }
  layout.b = arena.place<float>(sram, colmajor);
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * b.numCols() * 4);
  return layout;
}

kernels::HierLayout loadFlatBitmap(System& sys, const sparse::BitVectorMatrix& m,
                                   const sparse::DenseVector& v) {
  if (v.size() != m.numCols()) {
    throw std::invalid_argument("loadFlatBitmap: vector length != matrix columns");
  }
  mem::Arena& arena = sys.arena();
  mem::Sram& sram = sys.memory().sram();
  kernels::HierLayout layout;
  layout.num_rows = m.numRows();
  layout.num_cols = m.numCols();
  layout.l1 = 0;  // unused in flat mode
  layout.leaves = arena.place<std::uint64_t>(sram, m.words(), 8);
  layout.packed_vals = arena.place<float>(sram, m.vals());
  layout.v = arena.place<float>(sram, v.data());
  layout.y = arena.allocate(static_cast<std::size_t>(m.numRows()) * 4);
  return layout;
}

}  // namespace hht::harness
