#pragma once

#include <cstdint>

#include "mem/request.h"
#include "sim/types.h"

namespace hht::mem {

using sim::Addr;
using sim::Cycle;

/// Result of an MMIO read attempt. A device may refuse to answer this cycle
/// (`ready == false`), in which case the memory system keeps the load
/// pending and retries it until the device accepts (at the device's
/// mmioReadyCycle) — this is exactly the HHT front-end's "stall the CPU
/// load until a buffer is ready" behaviour (§3.1).
struct MmioReadResult {
  bool ready = false;
  std::uint32_t data = 0;
};

/// A memory-mapped device occupying an address window.
///
/// Offsets passed to the hooks are relative to the device's base address.
/// Writes are posted (always accepted, complete in one cycle) — the MMRs of
/// §3.1 are plain configuration registers.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  /// Attempt a read of `size` bytes at `offset`. Return ready=false to
  /// stall the requester; the call is repeated until ready.
  /// `who` distinguishes the primary core from a device-side micro-core
  /// (the programmable HHT's firmware talks to the FE through the same
  /// window).
  virtual MmioReadResult mmioRead(Addr offset, std::uint32_t size,
                                  Requester who) = 0;

  /// Posted write of `size` bytes at `offset`.
  virtual void mmioWrite(Addr offset, std::uint32_t size, std::uint32_t value,
                         Requester who) = 0;

  /// Quiescence protocol (DESIGN.md §11), asked after a memory tick in
  /// which this device refused a read: the first cycle (> now) at whose
  /// memory tick a retry could be accepted. The memory system skips the
  /// retries before it. The default (retry next cycle) is always correct.
  virtual Cycle mmioReadyCycle(Cycle now) const { return now + 1; }

  /// Exactly the side effects of `n` refusals of the read at `offset`,
  /// whose retries the memory system skipped before mmioReadyCycle(). A
  /// device that keeps the default mmioReadyCycle is retried every cycle
  /// and never asked.
  virtual void skipRefusedReads(Addr offset, std::uint64_t n) {
    (void)offset;
    (void)n;
  }
};

}  // namespace hht::mem
