#include "core/hht.h"

#include <sstream>
#include <stdexcept>

#include "core/gather_engine.h"
#include "core/hier_engine.h"
#include "core/merge_engine.h"
#include "core/stream_engine.h"
#include "sim/log.h"

namespace hht::core {

Hht::Hht(const HhtConfig& config, mem::MemorySystem& memory,
         std::uint32_t tile)
    : cfg_(config),
      mem_(memory),
      tile_(static_cast<std::uint8_t>(tile)),
      buffers_(config),
      emit_(config.emission_queue) {
  fifo_pops_ = &stats_.counter("hht.fifo_pops");
  c_active_cycles_ = &stats_.counter("hht.active_cycles");
  c_stall_buffers_full_ = &stats_.counter("hht.stall_buffers_full");
  c_cpu_wait_cycles_ = &stats_.counter("hht.cpu_wait_cycles");
  c_elements_delivered_ = &stats_.counter("hht.elements_delivered");
}

void Hht::start() {
  // Config registers are checked at their single architectural use point:
  // writes are posted, so START is the first moment the device can act on
  // (and therefore vet) the programmed state.
  if (!mmr_parity_ok_) {
    raiseFault(sim::FaultCause::MmrParity,
               "a configuration register failed its parity check at START");
    return;
  }
  if (mmr_.element_size != 4) {
    raiseFault(sim::FaultCause::BadProgram,
               "ELEMENT_SIZE=" + std::to_string(mmr_.element_size) +
                   " unsupported (BE pipelines are 32-bit)");
    return;
  }
  const bool csr = mmr_.mode == Mode::SpmvGather ||
                   mmr_.mode == Mode::SpmspvV1 || mmr_.mode == Mode::SpmspvV2;
  if (csr) {
    const std::uint64_t rows_bytes =
        (static_cast<std::uint64_t>(mmr_.m_num_rows) + 1) * 4u;
    if (!mem_.sram().inBounds(mmr_.m_rows_base,
                              static_cast<std::size_t>(rows_bytes))) {
      raiseFault(sim::FaultCause::BadProgram,
                 "CSR row-pointer array [M_Rows_Base, +" +
                     std::to_string(rows_bytes) + ") falls outside SRAM");
      return;
    }
  }
  if ((mmr_.mode == Mode::HierBitmap || mmr_.mode == Mode::FlatBitmap) &&
      mmr_.num_cols == 0) {
    raiseFault(sim::FaultCause::BadProgram,
               "bitmap walk requires NUM_COLS >= 1");
    return;
  }
  buffers_.reset();
  emit_.reset();
  finished_flush_done_ = false;
  fe_crc_ = 0;
  engine_ = makeEngine();
  HHT_LOG_AT(Info, "hht", "start mode=%u rows=%u buffers=%u blen=%u",
             static_cast<unsigned>(mmr_.mode), mmr_.m_num_rows,
             cfg_.num_buffers, cfg_.buffer_len);
}

std::unique_ptr<Engine> Hht::makeEngine() {
  const EngineContext ctx{cfg_,   mmr_, mem_,   buffers_, emit_,
                          stats_, this, trace_, tile_};
  switch (mmr_.mode) {
    case Mode::SpmvGather:
      return std::make_unique<GatherEngine>(ctx);
    case Mode::SpmspvV1:
      return std::make_unique<MergeEngine>(ctx);
    case Mode::SpmspvV2:
      return std::make_unique<StreamEngine>(ctx);
    case Mode::HierBitmap:
      return std::make_unique<HierBitmapEngine>(ctx);
    case Mode::FlatBitmap:
      return std::make_unique<HierBitmapEngine>(ctx, /*flat=*/true);
  }
  throw std::invalid_argument("HHT started with invalid MODE register");
}

void Hht::tick(sim::Cycle now) {
  last_tick_cycle_ = now;
  if (trace_ != nullptr && trace_->enabled(obs::Category::kPipe)) {
    // BE occupancy, coalesced to transitions: active while the engine is
    // producing, drained otherwise (faulted, unstarted, or done).
    const std::uint8_t bucket =
        (!faultRaised() && engine_ && !engine_->done()) ? obs::kBucketActive
                                                        : obs::kBucketDrained;
    if (bucket != trace_bucket_) {
      trace_bucket_ = bucket;
      trace_->emit(now, obs::Category::kPipe, obs::Component::kHhtBe,
                   obs::EventKind::kPhase, bucket);
    }
  }
  // A faulted device halts: no further production, no buffer movement. The
  // FAULT/CAUSE MMRs stay readable (the non-blocking poll path below).
  if (faultRaised()) return;
  if (!engine_) return;
  if (!engine_->done()) {
    ++*c_active_cycles_;
    // Control-unit throttle accounting: the BE has produced data it cannot
    // place because every buffer is owned by unconsumed CPU data.
    if (!emit_.empty() && buffers_.freeCapacity() == 0) {
      ++*c_stall_buffers_full_;
      if (trace_ != nullptr && trace_->enabled(obs::Category::kFifo)) {
        trace_->emit(now, obs::Category::kFifo, obs::Component::kHhtFe,
                     obs::EventKind::kFifoFull);
      }
    }
  }
  // Tick even when done: prefetch streams may still have speculative reads
  // in flight (e.g. vector indices fetched past the last match) whose
  // responses must be drained from the memory system.
  engine_->tick(now);
  const std::uint32_t pushed = emit_.drainTo(buffers_, cfg_.emit_per_cycle);
  if (pushed > 0 && trace_ != nullptr &&
      trace_->enabled(obs::Category::kFifo)) {
    trace_->emit(now, obs::Category::kFifo, obs::Component::kHhtFe,
                 obs::EventKind::kFifoPush, pushed);
  }
  if (engine_->done() && !finished_flush_done_) {
    buffers_.finish();  // publish any partial tail buffer
    finished_flush_done_ = true;
  }
}

sim::Cycle Hht::nextEventCycle(sim::Cycle now) const {
  // Any observer needs real per-cycle ticks (delivery/event timestamps).
  if (!taps_.empty() || trace_ != nullptr) return now + 1;
  if (faultRaised() || !engine_) return sim::kNeverCycle;
  // A tick acts when the engine can, when the emission queue can drain
  // into the pool, or when a done stream's tail buffer is unpublished.
  if (!engine_->done() && !engine_->stalledOnMemory()) return now + 1;
  if (emit_.headFilled() && buffers_.canPush()) return now + 1;
  if (!finished_flush_done_ && engine_->done()) return now + 1;
  // Otherwise only a response reaching this tile's BE port wakes it (a
  // done engine still claims its speculative reads' responses, e.g.
  // vector indices fetched past the last match), or a CPU pop freeing the
  // pool, which the run loop sees as MMIO and re-asks after.
  return mem_.requesterReadyCycle(mem::Requester::Hht, tile_, now);
}

void Hht::skipCycles(sim::Cycle n) {
  // Exactly what the skipped ticks would have done: stamp the tick cycle
  // (tick assigns, so advancing by n lands on the same value), count a
  // sleeping live engine's active (and buffer-throttled) cycles, and
  // advance any free-running engine state (the comparator recurrence
  // phase).
  last_tick_cycle_ += n;
  if (!engine_ || faultRaised()) return;
  if (!engine_->done()) {
    *c_active_cycles_ += n;
    if (!emit_.empty() && buffers_.freeCapacity() == 0) {
      *c_stall_buffers_full_ += n;
    }
  }
  engine_->creditSkippedCycles(n);
}

void Hht::skipRefusedReads(Addr offset, std::uint64_t n) {
  // Only BUF_DATA and VALID refuse, and each refusal is one CPU-wait cycle.
  (void)offset;
  *c_cpu_wait_cycles_ += n;
}

bool Hht::busy() const {
  return engine_ && (!engine_->done() || !emit_.empty() || buffers_.hasUnread());
}

mem::MmioReadResult Hht::mmioRead(Addr offset, std::uint32_t size,
                                  mem::Requester who) {
  if (who != mem::Requester::Cpu) {
    // The ASIC HHT has no firmware-side port; only the programmable
    // variant accepts Requester::Hht (core/micro_hht.h).
    throw sim::SimError(sim::ErrorKind::Mmio, "hht",
                        "device-side (Requester::Hht) read from the ASIC "
                        "HHT's CPU-facing register file, offset " +
                            std::to_string(offset));
  }
  if (size != 4) {
    throw std::invalid_argument("HHT FE supports 32-bit reads only");
  }
  switch (offset) {
    case mmr::kBufData: {
      if (!buffers_.hasFront()) {
        if (engine_ && engine_->done() && !busy()) {
          throw std::logic_error(
              "kernel bug: CPU load from HHT BUF_DATA past end of stream");
        }
        ++*c_cpu_wait_cycles_;
        if (trace_ != nullptr && trace_->enabled(obs::Category::kFifo)) {
          trace_->emit(last_tick_cycle_, obs::Category::kFifo,
                       obs::Component::kHhtFe, obs::EventKind::kFifoNotReady,
                       offset);
        }
        return {false, 0};
      }
      if (buffers_.front().is_row_end) {
        throw std::logic_error(
            "kernel bug: CPU read BUF_DATA where VALID would return 0");
      }
      Slot slot = buffers_.pop();
      ++*fifo_pops_;
      if (slot.poisoned) {
        // Poison containment: the uncorrectable value fetch flowed through
        // the FIFOs in order and faults exactly here, at its delivery
        // point — the CPU gets a zero this cycle with FAULT already up.
        raiseFault(sim::FaultCause::MemUncorrectable,
                   "poisoned element reached BUF_DATA delivery "
                   "(uncorrectable value fetch, contained in-stream)");
      } else if (!slot.parity_ok) {
        // Deliver *and* latch the fault: the CPU gets the (corrupt) word
        // this cycle, but FAULT is already visible — the harness's
        // same-cycle poll guarantees the run never ends silently wrong.
        raiseFault(sim::FaultCause::FifoParity,
                   "buffer entry failed its parity check at BUF_DATA pop");
      }
      std::uint64_t& delivered = *c_elements_delivered_;
      if (cfg_.test_flip_element == delivered) {
        // Verification-layer self-test hook: silent single-bit corruption of
        // the Nth delivered element (parity stays good on purpose).
        slot.bits ^= 1u;
      }
      ++delivered;
      if (cfg_.e2e_check) {
        // Fold what is actually delivered (after any delivery-port flip) so
        // the check covers the full path up to the architectural boundary.
        fe_crc_ = sim::crcFoldSlot(fe_crc_, slot.bits, false);
        if (slot.has_check && fe_crc_ != slot.check) {
          raiseFault(sim::FaultCause::StreamCheck,
                     "stream CRC mismatch at BUF_DATA delivery: fe=" +
                         std::to_string(fe_crc_) +
                         " be-tag=" + std::to_string(slot.check));
        }
      }
      taps_.onDelivered(last_tick_cycle_, false, slot.bits);
      if (trace_ != nullptr && trace_->enabled(obs::Category::kFifo)) {
        trace_->emit(last_tick_cycle_, obs::Category::kFifo,
                     obs::Component::kHhtFe, obs::EventKind::kFifoPop,
                     slot.bits, 0);
      }
      return {true, slot.bits};
    }
    case mmr::kValid: {
      if (!buffers_.hasFront()) {
        if (engine_ && engine_->done() && !busy()) {
          throw std::logic_error(
              "kernel bug: CPU read VALID past end of stream");
        }
        ++*c_cpu_wait_cycles_;
        if (trace_ != nullptr && trace_->enabled(obs::Category::kFifo)) {
          trace_->emit(last_tick_cycle_, obs::Category::kFifo,
                       obs::Component::kHhtFe, obs::EventKind::kFifoNotReady,
                       offset);
        }
        return {false, 0};
      }
      if (buffers_.front().is_row_end) {
        const Slot slot = buffers_.pop();
        ++*fifo_pops_;
        if (cfg_.e2e_check) {
          // Row-end markers are part of the checked stream (the BE folds
          // them), and a buffer's closing check tag may ride on one.
          fe_crc_ = sim::crcFoldSlot(fe_crc_, slot.bits, true);
          if (slot.has_check && fe_crc_ != slot.check) {
            raiseFault(sim::FaultCause::StreamCheck,
                       "stream CRC mismatch at VALID row-end delivery: fe=" +
                           std::to_string(fe_crc_) +
                           " be-tag=" + std::to_string(slot.check));
          }
        }
        taps_.onDelivered(last_tick_cycle_, true, 0);
        if (trace_ != nullptr && trace_->enabled(obs::Category::kFifo)) {
          trace_->emit(last_tick_cycle_, obs::Category::kFifo,
                       obs::Component::kHhtFe, obs::EventKind::kFifoPop, 0,
                       1);
        }
        return {true, 0};
      }
      return {true, 1};
    }
    case mmr::kStatus:
      return {true, busy() ? 1u : 0u};
    case mmr::kCheckBe:
      return {true, buffers_.beCrc()};
    case mmr::kCheckFe:
      return {true, fe_crc_};
    case mmr::kFault:
      return {true, faultRaised() ? 1u : 0u};
    case mmr::kCause:
      return {true, static_cast<std::uint32_t>(faultCause())};
    default:
      throw std::invalid_argument("HHT FE read from unknown MMR offset " +
                                  std::to_string(offset));
  }
}

void Hht::mmioWrite(Addr offset, std::uint32_t size, std::uint32_t value,
                    mem::Requester who) {
  if (who != mem::Requester::Cpu) {
    throw sim::SimError(sim::ErrorKind::Mmio, "hht",
                        "device-side (Requester::Hht) write to the ASIC "
                        "HHT's CPU-facing register file, offset " +
                            std::to_string(offset));
  }
  if (size != 4) {
    throw std::invalid_argument("HHT FE supports 32-bit writes only");
  }
  // MMR glitch injection point: the value is corrupted as it is latched
  // into the register cell (commands — START, FAULT_CLEAR — are pulse
  // wires, not latches, and are not subject to it).
  if (injector_ != nullptr && offset != mmr::kStart &&
      offset != mmr::kFaultClear && injector_->glitchMmrValue(value)) {
    mmr_parity_ok_ = false;
  }
  if (trace_ != nullptr && trace_->enabled(obs::Category::kMmr)) {
    trace_->emit(last_tick_cycle_, obs::Category::kMmr,
                 obs::Component::kHhtFe, obs::EventKind::kMmrWrite, offset,
                 value);
  }
  switch (offset) {
    case mmr::kMNumRows: mmr_.m_num_rows = value; break;
    case mmr::kMRowsBase: mmr_.m_rows_base = value; break;
    case mmr::kMColsBase: mmr_.m_cols_base = value; break;
    case mmr::kMValsBase: mmr_.m_vals_base = value; break;
    case mmr::kVBase: mmr_.v_base = value; break;
    case mmr::kVIdxBase: mmr_.v_idx_base = value; break;
    case mmr::kVValsBase: mmr_.v_vals_base = value; break;
    case mmr::kVNnz: mmr_.v_nnz = value; break;
    case mmr::kElementSize: mmr_.element_size = value; break;
    case mmr::kMode: mmr_.mode = static_cast<Mode>(value); break;
    case mmr::kNumCols: mmr_.num_cols = value; break;
    case mmr::kL1Base: mmr_.l1_base = value; break;
    case mmr::kLeavesBase: mmr_.leaves_base = value; break;
    case mmr::kMNnz: mmr_.m_nnz = value; break;
    case mmr::kVLen: mmr_.v_len = value; break;
    case mmr::kStart:
      if (value != 0) start();
      break;
    case mmr::kFaultClear:
      if (value != 0) clearFault();
      break;
    default:
      throw std::invalid_argument("HHT FE write to unknown MMR offset " +
                                  std::to_string(offset));
  }
}

void Hht::setFaultInjector(sim::FaultInjector* injector) {
  injector_ = injector;
  buffers_.setFaultInjector(injector);
}

void Hht::reset() {
  buffers_.reset();
  emit_.reset();
  engine_.reset();
  finished_flush_done_ = false;
  fe_crc_ = 0;
  mmr_ = MmrFile{};
  mmr_parity_ok_ = true;
  clearFault();
}

void Hht::io(sim::StateIo& ar) {
  ar.tag("HHTD");
  ar.u32(mmr_.m_num_rows);
  ar.u32(mmr_.m_rows_base);
  ar.u32(mmr_.m_cols_base);
  ar.u32(mmr_.m_vals_base);
  ar.u32(mmr_.v_base);
  ar.u32(mmr_.v_idx_base);
  ar.u32(mmr_.v_vals_base);
  ar.u32(mmr_.v_nnz);
  ar.u32(mmr_.element_size);
  ar.u32(mmr_.mode, sim::after(Mode::FlatBitmap), "MODE register");
  ar.u32(mmr_.num_cols);
  ar.u32(mmr_.l1_base);
  ar.u32(mmr_.leaves_base);
  ar.u32(mmr_.m_nnz);
  ar.u32(mmr_.v_len);
  buffers_.io(ar);
  emit_.io(ar);
  ar.u32(fe_crc_);  // snapshot v5
  ar.b(finished_flush_done_);
  ar.b(mmr_parity_ok_);
  ar.u32(fault_cause_, sim::after(sim::FaultCause::StreamCheck), "fault cause");
  ar.str(fault_detail_);
  ar.u64(last_tick_cycle_);
  stats_.io(ar);
  bool has_engine = engine_ != nullptr;
  ar.b(has_engine);
  // The engine is rebuilt from the MMRs just read, then reads its state.
  if (ar.reading()) engine_ = has_engine ? makeEngine() : nullptr;
  if (engine_) engine_->io(ar);
}

std::string Hht::describeState() const {
  std::ostringstream os;
  os << "hht: mode=" << static_cast<unsigned>(mmr_.mode)
     << " engine=" << (engine_ ? (engine_->done() ? "done" : "active") : "none")
     << " staged=" << buffers_.stagedSlots()
     << " published_buffers=" << buffers_.publishedBuffers()
     << " emit_pending=" << (emit_.empty() ? 0 : 1)
     << " fifo_pops=" << *fifo_pops_;
  if (faultRaised()) {
    os << "\n  FAULT cause=" << sim::faultCauseName(faultCause()) << ": "
       << faultDetail();
  }
  return os.str();
}

}  // namespace hht::core
