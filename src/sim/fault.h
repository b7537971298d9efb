#pragma once

#include <cstdint>
#include <string>

#include "sim/error.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hht::sim {

/// Architectural fault causes the HHT latches into its CAUSE MMR when it
/// detects an error (core/mmr.h: kFault / kCause). Mirrors how streaming
/// register designs expose stream-bounds faults as architectural state.
enum class FaultCause : std::uint32_t {
  None = 0,
  MmrParity = 1,        ///< a configuration register failed its parity check
  BadProgram = 2,       ///< MMR program rejected at START (extents, mode data)
  AddrOutOfBounds = 3,  ///< BE-generated address outside the programmed extents
  MalformedMeta = 4,    ///< inconsistent metadata (e.g. rows[r+1] < rows[r])
  FifoParity = 5,       ///< CPU-side buffer entry failed its parity check
  MemUncorrectable = 6, ///< ECC-uncorrectable memory response reached the BE
  StreamCheck = 7,      ///< end-to-end stream checksum mismatch at delivery
};

inline const char* faultCauseName(FaultCause cause) {
  switch (cause) {
    case FaultCause::None: return "none";
    case FaultCause::MmrParity: return "mmr-parity";
    case FaultCause::BadProgram: return "bad-program";
    case FaultCause::AddrOutOfBounds: return "addr-out-of-bounds";
    case FaultCause::MalformedMeta: return "malformed-metadata";
    case FaultCause::FifoParity: return "fifo-parity";
    case FaultCause::MemUncorrectable: return "mem-uncorrectable";
    case FaultCause::StreamCheck: return "stream-check";
  }
  return "?";
}

/// Receiver of detected faults. The HHT device implements this; back-end
/// engines and walkers report through it instead of throwing, so a detected
/// hardware error becomes pollable architectural state (FAULT/CAUSE MMRs)
/// rather than a host-level crash.
class FaultSink {
 public:
  virtual ~FaultSink() = default;
  virtual void raiseFault(FaultCause cause, std::string detail) = 0;
};

/// Per-run fault-injection knobs, carried in SystemConfig. All rates are
/// per-opportunity probabilities in [0, 1]; everything is driven by one
/// seeded Rng, so a campaign with a fixed seed is bit-reproducible.
struct FaultConfig {
  bool enabled = false;         ///< master switch; false = zero-cost
  std::uint64_t seed = 1;       ///< injector PRNG seed

  double sram_read_flip_rate = 0.0;  ///< bit flip per granted SRAM read
  double drop_rate = 0.0;            ///< response lost; controller re-requests
  double delay_rate = 0.0;           ///< response delayed by delay_cycles
  Cycle delay_cycles = 16;           ///< extra latency per delayed response
  double mmr_glitch_rate = 0.0;      ///< bit flip per latched MMR config write
  double fifo_corrupt_rate = 0.0;    ///< bit flip per slot pushed to a buffer

  /// ECC bounded-retry budget: how many times the memory controller re-reads
  /// on a detected flip before delivering a poisoned response.
  std::uint32_t ecc_retry_limit = 3;
  /// Cycles a dropped response costs before the controller's re-request
  /// completes (timeout + reissue).
  Cycle drop_penalty_cycles = 64;

  /// Sentinel for the silent-SDC ordinals below: no injection.
  static constexpr std::uint64_t kNoSdc = ~std::uint64_t{0};

  /// Silent-data-corruption mode for the SDC coverage campaign: flip bit
  /// `sdc_fifo_bit` of the Nth data slot pushed into a CPU-side buffer
  /// *without* marking its parity tag bad — the flip evades every modeled
  /// detection site and can only be caught by the end-to-end stream
  /// checksum (or the host-side reference diff). Deterministic (ordinal
  /// counting, no PRNG draw), so enabling it never perturbs the seeded
  /// fault stream of the probabilistic injectors above.
  std::uint64_t sdc_fifo_ordinal = kNoSdc;
  std::uint32_t sdc_fifo_bit = 0;

  void validate() const {
    const double rates[] = {sram_read_flip_rate, drop_rate, delay_rate,
                            mmr_glitch_rate, fifo_corrupt_rate};
    for (double r : rates) {
      if (r < 0.0 || r > 1.0) {
        throw SimError(ErrorKind::Config, "faults",
                       "injection rates must be within [0, 1]");
      }
    }
    if (enabled && delay_rate > 0.0 && delay_cycles == 0) {
      throw SimError(ErrorKind::Config, "faults",
                     "delay_rate > 0 requires delay_cycles > 0");
    }
    if (enabled && drop_rate > 0.0 && drop_penalty_cycles == 0) {
      throw SimError(ErrorKind::Config, "faults",
                     "drop_rate > 0 requires drop_penalty_cycles > 0");
    }
  }
};

/// Deterministic, seed-driven fault injector shared by the memory system
/// and the HHT device. Each maybe* call draws from the injector's own PRNG
/// in simulation order, so identical (config, workload) pairs produce
/// identical fault streams — the property the fault campaign relies on.
///
/// The injector only *creates* faults; detection and recovery live in the
/// components (ECC retry in mem::MemorySystem, parity and bounds checks in
/// the HHT). Counters under "faults." record every injection.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }

  /// Maybe flip one random bit of a granted SRAM read response. Returns
  /// true when a flip happened (the model's "parity/ECC detected" signal).
  bool corruptReadData(std::uint32_t& data);
  /// Should this response be dropped (forcing a controller re-request)?
  bool dropResponse();
  /// Should this response be delayed by config().delay_cycles?
  bool delayResponse();
  /// Maybe flip one bit of a value being latched into an MMR. Returns true
  /// when glitched (the device then fails its MMR parity check at START).
  bool glitchMmrValue(std::uint32_t& value);
  /// Maybe flip one bit of a slot entering a CPU-side buffer. Returns true
  /// when corrupted (the slot's parity tag goes bad).
  bool corruptFifoSlot(std::uint32_t& bits);
  /// Parity-evading flip of the configured Nth buffer push (FaultConfig::
  /// sdc_fifo_ordinal). Returns true when this push is the target; the
  /// caller leaves the parity tag GOOD — the corruption is silent.
  bool silentFifoFlip(std::uint32_t& bits);

  /// Total injections of any type so far.
  std::uint64_t injected() const { return *c_total_; }

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }

  /// Checkpoint hook. The config is not in the snapshot: the restoring
  /// side rebuilds the injector from the (fingerprint-checked)
  /// SystemConfig; only the PRNG position and injection counters are run
  /// state.
  void io(StateIo& ar) {
    ar.tag("FINJ");
    rng_.io(ar);
    stats_.io(ar);
    ar.u64(sdc_fifo_seen_);  // snapshot v5
  }

 private:
  bool flipOneBit(std::uint32_t& word, double rate, std::uint64_t* counter);

  FaultConfig cfg_;
  Rng rng_;
  StatSet stats_;
  std::uint64_t sdc_fifo_seen_ = 0;  ///< buffer pushes observed so far
  std::uint64_t* c_flips_;
  std::uint64_t* c_drops_;
  std::uint64_t* c_delays_;
  std::uint64_t* c_glitches_;
  std::uint64_t* c_fifo_;
  std::uint64_t* c_silent_;
  std::uint64_t* c_total_;
};

}  // namespace hht::sim
