#pragma once

#include "core/engine.h"
#include "core/walkers.h"

namespace hht::core {

/// SpMV indexed-gather engine — the paper's primary HHT pipeline (Fig. 3).
///
/// Stage 1 walks the CSR row pointers; stage 2 streams the row's column
/// indices into the column-index buffer; stage 3 turns each index k into
/// the address V_Base + k * elem_size; stage 4 reads V and fills the
/// CPU-side buffer. Buffers are published full or at row boundaries, so
/// the CPU's fixed-address loads always see exactly the current row's
/// gathered operands.
class GatherEngine : public Engine {
 public:
  explicit GatherEngine(const EngineContext& ctx);

  void tick(Cycle now) override;
  bool done() const override;
  bool stalledOnMemory() const override;

  void io(sim::StateIo& ar) override {
    Engine::io(ar);
    rows_.io(ar);
    cols_.io(ar);
    vfetch_.io(ar);
    ar.b(row_stream_ready_);
  }

 private:
  void configureRowStream();

  RowPtrWalker rows_;
  IndexStream cols_;
  ValueFetchQueue vfetch_;
  bool row_stream_ready_ = false;  ///< cols_ targets the current row
  std::uint64_t* c_values_requested_;
};

}  // namespace hht::core
