// Fault layer tests: config validation, MMIO protocol misuse, structured
// watchdog errors, the HHT's architectural fault detection (FAULT/CAUSE
// MMRs), ECC recovery, machine checks, and graceful degradation.
#include <gtest/gtest.h>

#include <memory>

#include "core/hht.h"
#include "harness/experiment.h"
#include "mem/layout.h"
#include "sparse/reference.h"
#include "workload/synthetic.h"

namespace hht {
namespace {

using namespace isa::reg;
using core::Hht;
using core::HhtConfig;
using core::Mode;
using harness::RunResult;
using harness::System;
using harness::SystemConfig;
using harness::defaultConfig;
using sim::ErrorKind;
using sim::FaultCause;
using sim::SimError;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::SparseVector;
using harness::Kernel;

/// Scalar HHT SpMV with the scalar baseline as its degradation fallback.
constexpr harness::RunSpec kResilientSpmv{.kernel = Kernel::kSpmvScalarHht,
                                          .fallback = true};

std::int32_t bits(sim::Addr a) { return static_cast<std::int32_t>(a); }

/// Run `fn`, which must throw SimError; return the error for inspection.
template <typename Fn>
SimError capture(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a SimError";
  return SimError(ErrorKind::Config, "test", "missing");
}

void expectSameY(const DenseVector& got, const DenseVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (sim::Index i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.at(i), want.at(i)) << "y[" << i << "]";
  }
}

// ---------------------------------------------------------------------------
// Configuration validation (SimError kind Config)
// ---------------------------------------------------------------------------

TEST(ConfigValidation, FaultRatesMustBeProbabilities) {
  sim::FaultConfig fc;
  fc.sram_read_flip_rate = 1.5;
  EXPECT_EQ(capture([&] { fc.validate(); }).kind(), ErrorKind::Config);
  fc.sram_read_flip_rate = -0.1;
  EXPECT_THROW(fc.validate(), SimError);
}

TEST(ConfigValidation, EnabledRatesNeedNonzeroCycleCosts) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.delay_rate = 0.5;
  fc.delay_cycles = 0;
  EXPECT_EQ(capture([&] { fc.validate(); }).kind(), ErrorKind::Config);
  fc.delay_cycles = 16;
  fc.drop_rate = 0.5;
  fc.drop_penalty_cycles = 0;
  EXPECT_THROW(fc.validate(), SimError);
}

TEST(ConfigValidation, SystemCtorRejectsBrokenConfigs) {
  {
    SystemConfig cfg = defaultConfig();
    cfg.vlmax = 0;
    const SimError e = capture([&] { System sys(cfg); });
    EXPECT_EQ(e.kind(), ErrorKind::Config);
    EXPECT_EQ(e.component(), "system");
  }
  {
    SystemConfig cfg = defaultConfig();
    cfg.hht.num_buffers = 0;
    EXPECT_EQ(capture([&] { System sys(cfg); }).component(), "hht");
  }
  {
    SystemConfig cfg = defaultConfig();
    cfg.memory.grants_per_cycle = 0;
    EXPECT_EQ(capture([&] { System sys(cfg); }).component(), "mem");
  }
  {
    SystemConfig cfg = defaultConfig();
    cfg.memory.prefetch_enabled = true;  // requires cpu_cache_enabled
    EXPECT_EQ(capture([&] { System sys(cfg); }).kind(), ErrorKind::Config);
  }
  {
    SystemConfig cfg = defaultConfig();
    cfg.faults.mmr_glitch_rate = 2.0;
    EXPECT_EQ(capture([&] { System sys(cfg); }).component(), "faults");
  }
}

// ---------------------------------------------------------------------------
// MMIO wiring and access validation (kinds Mmio / Memory)
// ---------------------------------------------------------------------------

TEST(MmioAttach, SecondDeviceAndNullDeviceRejected) {
  mem::MemorySystemConfig mc;
  mem::MemorySystem ms(mc);
  Hht first{HhtConfig{}, ms};
  Hht second{HhtConfig{}, ms};
  ms.attachMmioDevice(&first);
  EXPECT_EQ(capture([&] { ms.attachMmioDevice(&second); }).kind(),
            ErrorKind::Mmio);
  mem::MemorySystem fresh(mc);
  EXPECT_EQ(capture([&] { fresh.attachMmioDevice(nullptr); }).kind(),
            ErrorKind::Mmio);
}

TEST(SubmitValidation, MalformedAccessesThrowAtSubmit) {
  mem::MemorySystemConfig mc;
  mem::MemorySystem ms(mc);
  const auto kindOf = [&](mem::MemAccess a) {
    return capture([&] { ms.submit(a); }).kind();
  };
  // Unsupported size.
  EXPECT_EQ(kindOf({.addr = 0x1000, .size = 3}), ErrorKind::Memory);
  // Misaligned for its size.
  EXPECT_EQ(kindOf({.addr = 0x1002, .size = 4}), ErrorKind::Memory);
  // Past the end of SRAM.
  EXPECT_EQ(kindOf({.addr = static_cast<sim::Addr>(mc.sram_bytes), .size = 4}),
            ErrorKind::Memory);
  // MMIO access crossing the end of the device window.
  EXPECT_EQ(kindOf({.addr = mc.mmio_base + mc.mmio_size - 2, .size = 4}),
            ErrorKind::Memory);
  // Error message names the requester for triage.
  const SimError e =
      capture([&] { ms.submit({.addr = 0x1001, .size = 4,
                               .requester = mem::Requester::Hht}); });
  EXPECT_EQ(e.component(), "hht");
}

// ---------------------------------------------------------------------------
// Direct-device fault harness (no CPU)
// ---------------------------------------------------------------------------

class FaultHarness {
 public:
  explicit FaultHarness(sim::FaultConfig fc = {})
      : mem_(memConfig()), hht_(HhtConfig{}, mem_), arena_(0x1000, 0x7E000) {
    mem_.attachMmioDevice(&hht_);
    if (fc.enabled) {
      injector_ = std::make_unique<sim::FaultInjector>(fc);
      mem_.setTileFaultInjector(0, injector_.get());
      hht_.setFaultInjector(injector_.get());
    }
  }

  static mem::MemorySystemConfig memConfig() {
    mem::MemorySystemConfig cfg;
    cfg.sram_bytes = 1u << 19;
    return cfg;
  }

  void write(sim::Addr offset, std::uint32_t value) {
    hht_.mmioWrite(offset, 4, value, mem::Requester::Cpu);
  }
  std::uint32_t readNow(sim::Addr offset) {
    const mem::MmioReadResult r = hht_.mmioRead(offset, 4, mem::Requester::Cpu);
    EXPECT_TRUE(r.ready) << "expected a non-blocking MMR at " << offset;
    return r.data;
  }

  void tickOnce() {
    hht_.tick(now_);
    mem_.tick(now_);
    ++now_;
  }

  /// Tick until the device latches a fault (or the limit expires).
  bool tickUntilFault(int limit = 100000) {
    for (int i = 0; i < limit && !hht_.faultRaised(); ++i) tickOnce();
    return hht_.faultRaised();
  }

  /// Place a random n x n CSR matrix + dense vector and program a gather.
  void programSpmv(sim::Index n, double sparsity, std::uint64_t seed) {
    sim::Rng rng(seed);
    m_ = workload::randomCsr(rng, n, n, sparsity);
    vec_ = workload::randomDenseVector(rng, n);
    rows_ = arena_.place<sim::Index>(mem_.sram(), m_.rowPtr());
    cols_ = arena_.place<sim::Index>(mem_.sram(), m_.cols());
    v_ = arena_.place<float>(mem_.sram(), vec_.data());
    write(core::mmr::kMNumRows, m_.numRows());
    write(core::mmr::kMRowsBase, rows_);
    write(core::mmr::kMColsBase, cols_);
    write(core::mmr::kVBase, v_);
    write(core::mmr::kElementSize, 4);
    write(core::mmr::kMode, static_cast<std::uint32_t>(Mode::SpmvGather));
  }

  mem::MemorySystem& mem() { return mem_; }
  Hht& hht() { return hht_; }
  const CsrMatrix& matrix() const { return m_; }
  sim::Addr vBase() const { return v_; }

 private:
  mem::MemorySystem mem_;
  Hht hht_;
  mem::Arena arena_;
  std::unique_ptr<sim::FaultInjector> injector_;
  sim::Cycle now_ = 0;
  CsrMatrix m_;
  DenseVector vec_;
  sim::Addr rows_ = 0, cols_ = 0, v_ = 0;
};

TEST(HhtMmio, WrongRequesterIsRejected) {
  FaultHarness h;
  EXPECT_EQ(capture([&] {
              h.hht().mmioRead(core::mmr::kStatus, 4, mem::Requester::Hht);
            }).kind(),
            ErrorKind::Mmio);
  EXPECT_EQ(capture([&] {
              h.hht().mmioWrite(core::mmr::kMNumRows, 4, 1,
                                mem::Requester::Hht);
            }).kind(),
            ErrorKind::Mmio);
}

TEST(HhtFaultMmrs, BadProgramLatchesAndClears) {
  FaultHarness h;
  h.programSpmv(8, 0.0, 0xF1);
  h.write(core::mmr::kElementSize, 8);  // BE pipelines are 32-bit
  h.write(core::mmr::kStart, 1);
  EXPECT_EQ(h.readNow(core::mmr::kFault), 1u);
  EXPECT_EQ(h.readNow(core::mmr::kCause),
            static_cast<std::uint32_t>(FaultCause::BadProgram));
  EXPECT_NE(h.hht().faultDetail().find("ELEMENT_SIZE"), std::string::npos);
  // A faulted device halts: ticking changes nothing.
  for (int i = 0; i < 10; ++i) h.tickOnce();
  EXPECT_EQ(h.readNow(core::mmr::kFault), 1u);
  // FAULT_CLEAR re-arms.
  h.write(core::mmr::kFaultClear, 1);
  EXPECT_EQ(h.readNow(core::mmr::kFault), 0u);
  EXPECT_EQ(h.readNow(core::mmr::kCause),
            static_cast<std::uint32_t>(FaultCause::None));
}

TEST(HhtFaultMmrs, RowPointerArrayOutsideSramIsBadProgram) {
  FaultHarness h;
  h.programSpmv(8, 0.0, 0xF2);
  h.write(core::mmr::kMRowsBase, (1u << 19) - 8);  // 9 words needed
  h.write(core::mmr::kStart, 1);
  EXPECT_EQ(h.hht().faultCause(), FaultCause::BadProgram);
}

TEST(HhtFaultMmrs, BitmapWithoutNumColsIsBadProgram) {
  FaultHarness h;
  h.write(core::mmr::kMode, static_cast<std::uint32_t>(Mode::FlatBitmap));
  h.write(core::mmr::kNumCols, 0);
  h.write(core::mmr::kStart, 1);
  EXPECT_EQ(h.hht().faultCause(), FaultCause::BadProgram);
}

TEST(HhtFaultMmrs, MmrGlitchFailsParityCheckAtStart) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 7;
  fc.mmr_glitch_rate = 1.0;  // every latched config write is glitched
  FaultHarness h(fc);
  h.programSpmv(8, 0.5, 0xF3);
  h.write(core::mmr::kStart, 1);  // command pulse, itself not glitchable
  EXPECT_EQ(h.hht().faultCause(), FaultCause::MmrParity);
}

TEST(HhtFaultMmrs, MNnzExtentViolationIsMalformedMeta) {
  FaultHarness h;
  h.programSpmv(8, 0.0, 0xF4);  // dense: rows[1] = 8 > cap
  h.write(core::mmr::kMNnz, 1);
  h.write(core::mmr::kStart, 1);
  ASSERT_TRUE(h.tickUntilFault());
  EXPECT_EQ(h.hht().faultCause(), FaultCause::MalformedMeta);
}

TEST(HhtFaultMmrs, VLenExtentViolationIsAddrOutOfBounds) {
  FaultHarness h;
  h.programSpmv(8, 0.0, 0xF5);  // dense: column indices reach 7
  h.write(core::mmr::kVLen, 1);
  h.write(core::mmr::kStart, 1);
  ASSERT_TRUE(h.tickUntilFault());
  EXPECT_EQ(h.hht().faultCause(), FaultCause::AddrOutOfBounds);
}

TEST(HhtFaultMmrs, GatherAddressOutsideSramIsAddrOutOfBounds) {
  FaultHarness h;
  h.programSpmv(8, 0.0, 0xF6);
  // v[] parked on the last SRAM word: any column index >= 1 walks off.
  h.write(core::mmr::kVBase, (1u << 19) - 4);
  h.write(core::mmr::kStart, 1);
  ASSERT_TRUE(h.tickUntilFault());
  EXPECT_EQ(h.hht().faultCause(), FaultCause::AddrOutOfBounds);
}

TEST(HhtFaultMmrs, FifoCorruptionIsCaughtAtPop) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 11;
  fc.fifo_corrupt_rate = 1.0;
  FaultHarness h(fc);
  h.programSpmv(8, 0.0, 0xF7);
  h.write(core::mmr::kStart, 1);
  // Wait for the first element, pop it: the parity check fires on delivery.
  std::uint32_t popped = 0;
  for (int i = 0; i < 100000; ++i) {
    const mem::MmioReadResult r =
        h.hht().mmioRead(core::mmr::kBufData, 4, mem::Requester::Cpu);
    if (r.ready) {
      popped = r.data;
      break;
    }
    h.tickOnce();
  }
  (void)popped;  // corrupt word is delivered, but FAULT is already visible
  EXPECT_EQ(h.readNow(core::mmr::kFault), 1u);
  EXPECT_EQ(h.hht().faultCause(), FaultCause::FifoParity);
}

// ---------------------------------------------------------------------------
// Watchdog and max_cycles (kind Watchdog)
// ---------------------------------------------------------------------------

TEST(Watchdog, MaxCyclesIsAStructuredError) {
  System sys(defaultConfig());
  isa::ProgramBuilder b("spin");
  isa::Label loop = b.newLabel();
  b.bind(loop);
  b.j(loop);  // retires every cycle: forward progress, so only the ceiling fires
  const isa::Program p = b.build();
  const SimError e =
      capture([&] { sys.run(p, 0x1000, 0, /*max_cycles=*/5000); });
  EXPECT_EQ(e.kind(), ErrorKind::Watchdog);
  EXPECT_NE(e.message().find("max_cycles"), std::string::npos);
  EXPECT_NE(e.message().find("spin"), std::string::npos);
  EXPECT_FALSE(e.diagnostic().empty());
}

TEST(Watchdog, DeadlockedFifoReadIsCaughtEarlyWithDump) {
  SystemConfig cfg = defaultConfig();
  cfg.watchdog_cycles = 2000;
  System sys(cfg);
  // Blocking pop of BUF_DATA without ever writing START: the FE never has
  // data, the CPU retries the MMIO read forever — zero forward progress.
  isa::ProgramBuilder b("orphan_pop");
  b.li(a0, bits(cfg.memory.mmio_base + core::mmr::kBufData));
  b.lw(t0, a0, 0);
  b.ecall();
  const isa::Program p = b.build();
  const SimError e =
      capture([&] { sys.run(p, 0x1000, 0, /*max_cycles=*/10000); });
  EXPECT_EQ(e.kind(), ErrorKind::Watchdog);
  EXPECT_EQ(e.component(), "watchdog");  // the period, not the ceiling, fired
  EXPECT_NE(e.message().find("no forward progress"), std::string::npos);
  // The dump names each component's state for triage.
  EXPECT_NE(e.diagnostic().find("cpu:"), std::string::npos);
  EXPECT_NE(e.diagnostic().find("hht:"), std::string::npos);
  EXPECT_NE(e.diagnostic().find("mem:"), std::string::npos);

  // Same error, cycle and dump whichever run-loop mode ran.
  SystemConfig naive_cfg = cfg;
  naive_cfg.host_fastforward = false;
  System naive(naive_cfg);
  const SimError n =
      capture([&] { naive.run(p, 0x1000, 0, /*max_cycles=*/10000); });
  EXPECT_EQ(n.component(), e.component());
  EXPECT_EQ(n.message(), e.message());
  EXPECT_EQ(n.diagnostic(), e.diagnostic());
  EXPECT_EQ(n.tile(), e.tile());
}

TEST(Watchdog, JumpedStallFiresAtTheNaiveCycleWithTheNaiveDump) {
  // One load on a 100k-cycle SRAM: nothing retires, nothing is granted and
  // no component has work until the response, so the event-scheduled loop
  // jumps — but only as far as the watchdog's firing sample, where it must
  // throw exactly what the every-cycle loop throws.
  const auto stall = [](bool fastforward, std::uint64_t& skipped) {
    SystemConfig cfg = defaultConfig();
    cfg.watchdog_cycles = 2000;
    cfg.memory.sram_latency = 100'000;
    cfg.host_fastforward = fastforward;
    System sys(cfg);
    isa::ProgramBuilder b("slow_load");
    b.li(a0, 0x2000);
    b.lw(t0, a0, 0);
    b.ecall();
    const isa::Program p = b.build();
    const SimError e = capture([&] { sys.run(p, 0x1000, 0); });
    skipped = sys.hostSkippedCycles();
    return e;
  };
  std::uint64_t naive_skipped = 0;
  std::uint64_t event_skipped = 0;
  const SimError n = stall(false, naive_skipped);
  const SimError e = stall(true, event_skipped);
  EXPECT_EQ(naive_skipped, 0u);
  EXPECT_GT(event_skipped, 1000u) << "the stall was not jumped";
  EXPECT_EQ(n.component(), "watchdog");
  EXPECT_EQ(e.component(), n.component());
  EXPECT_EQ(e.message(), n.message());
  EXPECT_EQ(e.diagnostic(), n.diagnostic());
}

// ---------------------------------------------------------------------------
// Full-system recovery paths
// ---------------------------------------------------------------------------

SystemConfig faultyConfig(std::uint64_t seed) {
  SystemConfig cfg = defaultConfig();
  cfg.faults.enabled = true;
  cfg.faults.seed = seed;
  return cfg;
}

TEST(Recovery, EccCorrectsSramFlipsTransparently) {
  SystemConfig cfg = faultyConfig(42);
  cfg.faults.sram_read_flip_rate = 2e-3;
  sim::Rng rng(21);
  const CsrMatrix m = workload::randomCsr(rng, 48, 48, 0.3);
  const DenseVector v = workload::randomDenseVector(rng, 48);
  const RunResult r = harness::run(cfg, kResilientSpmv, {&m, &v});
  EXPECT_FALSE(r.degraded);
  EXPECT_GE(r.stats.value("faults.sram_read_flips"), 1u);
  EXPECT_GE(r.stats.value("mem.ecc_corrected"), 1u);
  EXPECT_EQ(r.stats.value("mem.ecc_uncorrectable"), 0u);
  expectSameY(r.y, sparse::spmvCsr(m, v));
}

TEST(Recovery, FifoFaultDegradesToScalarBaselineWithCorrectResult) {
  SystemConfig cfg = faultyConfig(43);
  cfg.faults.fifo_corrupt_rate = 1.0;
  sim::Rng rng(22);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 24);
  const RunResult r = harness::run(cfg, kResilientSpmv, {&m, &v});
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.fault_cause, FaultCause::FifoParity);
  EXPECT_FALSE(r.fault_detail.empty());
  expectSameY(r.y, sparse::spmvCsr(m, v));
}

TEST(Recovery, SpmspvDegradationAlsoRecovers) {
  SystemConfig cfg = faultyConfig(44);
  cfg.faults.fifo_corrupt_rate = 1.0;
  sim::Rng rng(23);
  const CsrMatrix m = workload::randomCsr(rng, 24, 24, 0.4);
  const SparseVector v = workload::randomSparseVector(rng, 24, 0.5);
  const RunResult r = harness::run(
      cfg, {.kernel = Kernel::kSpmspvHhtV2Scalar, .fallback = true},
      {.m = &m, .sv = &v});
  EXPECT_TRUE(r.degraded);
  expectSameY(r.y, sparse::spmspvMerge(m, v));
}

TEST(Recovery, FaultWithoutFallbackIsADeviceFaultError) {
  SystemConfig cfg = faultyConfig(45);
  cfg.faults.fifo_corrupt_rate = 1.0;
  sim::Rng rng(24);
  const CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 16);
  const SimError e =
      capture([&] { harness::run(cfg, {Kernel::kSpmvScalarHht}, {&m, &v}); });
  EXPECT_EQ(e.kind(), ErrorKind::DeviceFault);
  EXPECT_NE(e.message().find("fifo-parity"), std::string::npos);
  EXPECT_FALSE(e.diagnostic().empty());
}

TEST(Recovery, UncorrectableLoadIsAMachineCheck) {
  SystemConfig cfg = faultyConfig(46);
  cfg.faults.sram_read_flip_rate = 1.0;  // every read and every retry flips
  sim::Rng rng(25);
  const CsrMatrix m = workload::randomCsr(rng, 8, 8, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 8);
  const SimError e = capture([&] {
    harness::run(cfg, {Kernel::kSpmvScalarBaseline}, {&m, &v});
  });
  EXPECT_EQ(e.kind(), ErrorKind::MachineCheck);
  EXPECT_EQ(e.component(), "cpu");
}

TEST(Recovery, ResilientSpmvMatchesReferenceUnderEveryFaultKind) {
  // The degradation contract, stated as the differential oracle would: no
  // matter which fault kind fires (or whether the run degrades at all),
  // the resilient driver's output is bit-identical to the functional
  // model. Small-integer operands make == exact.
  struct Knob {
    const char* name;
    void (*apply)(sim::FaultConfig&);
  };
  const Knob knobs[] = {
      {"sram-read-flip",
       [](sim::FaultConfig& fc) { fc.sram_read_flip_rate = 5e-3; }},
      {"fifo-corrupt",
       [](sim::FaultConfig& fc) { fc.fifo_corrupt_rate = 0.05; }},
      {"mmr-glitch",
       [](sim::FaultConfig& fc) { fc.mmr_glitch_rate = 1.0; }},
      {"response-delay", [](sim::FaultConfig& fc) {
         fc.delay_rate = 0.05;
         fc.delay_cycles = 16;
       }},
      {"response-drop", [](sim::FaultConfig& fc) {
         fc.drop_rate = 0.05;
         fc.drop_penalty_cycles = 32;
       }},
  };
  sim::Rng rng(29);
  const CsrMatrix m = workload::randomCsr(rng, 32, 32, 0.35);
  const DenseVector v = workload::randomDenseVector(rng, 32);
  const DenseVector ref = sparse::spmvCsr(m, v);
  for (const Knob& knob : knobs) {
    SystemConfig cfg = faultyConfig(0x50 + (&knob - knobs));
    knob.apply(cfg.faults);
    const RunResult r = harness::run(cfg, kResilientSpmv, {&m, &v});
    SCOPED_TRACE(knob.name);
    EXPECT_GE(r.stats.value("faults.total_injected"), 1u);
    expectSameY(r.y, ref);
  }
}

TEST(Recovery, SeededCampaignsAreDeterministic) {
  SystemConfig cfg = faultyConfig(47);
  cfg.faults.sram_read_flip_rate = 1e-3;
  cfg.faults.drop_rate = 1e-3;
  cfg.faults.delay_rate = 1e-3;
  cfg.faults.fifo_corrupt_rate = 2e-3;
  sim::Rng rng(26);
  const CsrMatrix m = workload::randomCsr(rng, 32, 32, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 32);
  const RunResult a = harness::run(cfg, kResilientSpmv, {&m, &v});
  const RunResult b = harness::run(cfg, kResilientSpmv, {&m, &v});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.fault_cause, b.fault_cause);
  EXPECT_EQ(a.stats.value("faults.total_injected"),
            b.stats.value("faults.total_injected"));
  expectSameY(a.y, b.y);
  expectSameY(a.y, sparse::spmvCsr(m, v));
}

TEST(Recovery, DisabledInjectionIsCycleIdentical) {
  sim::Rng rng(27);
  const CsrMatrix m = workload::randomCsr(rng, 32, 32, 0.4);
  const DenseVector v = workload::randomDenseVector(rng, 32);
  SystemConfig off = defaultConfig();
  off.faults.seed = 99;  // knobs set but master switch off: zero cost
  off.faults.sram_read_flip_rate = 0.5;
  off.faults.fifo_corrupt_rate = 0.5;
  const RunResult base =
      harness::run(defaultConfig(), {Kernel::kSpmvVectorHht}, {&m, &v});
  const RunResult gated = harness::run(off, {Kernel::kSpmvVectorHht}, {&m, &v});
  EXPECT_EQ(base.cycles, gated.cycles);
  EXPECT_EQ(base.retired, gated.retired);
  EXPECT_EQ(gated.stats.value("faults.total_injected"), 0u);
  expectSameY(base.y, gated.y);
}

TEST(Recovery, AbandonedDeviceReportsResidualBusy) {
  System sys(defaultConfig());
  sim::Rng rng(28);
  const CsrMatrix m = workload::randomCsr(rng, 16, 16, 0.5);
  const DenseVector v = workload::randomDenseVector(rng, 16);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const sim::Addr mmio = sys.config().memory.mmio_base;
  // Configure and START the gather, then ECALL without consuming a single
  // element: the device parks with published-but-unread buffers.
  isa::ProgramBuilder b("start_and_abandon");
  b.li(s11, bits(mmio));
  const auto mmrw = [&](sim::Addr off, std::uint32_t val) {
    b.li(t1, static_cast<std::int32_t>(val));
    b.sw(t1, s11, static_cast<std::int32_t>(off));
  };
  mmrw(core::mmr::kMNumRows, layout.num_rows);
  mmrw(core::mmr::kMRowsBase, layout.rows);
  mmrw(core::mmr::kMColsBase, layout.cols);
  mmrw(core::mmr::kVBase, layout.v);
  mmrw(core::mmr::kElementSize, 4);
  mmrw(core::mmr::kMode, static_cast<std::uint32_t>(Mode::SpmvGather));
  mmrw(core::mmr::kStart, 1);
  b.ecall();
  const RunResult r = sys.run(b.build(), layout.y, layout.num_rows);
  EXPECT_TRUE(r.hht_residual_busy);
}

}  // namespace
}  // namespace hht
