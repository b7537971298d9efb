#pragma once

#include <bit>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/system.h"
#include "sim/probe.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/hier_bitmap.h"
#include "sparse/bitvector.h"
#include "sparse/sparse_vector.h"

namespace hht::verify {

/// One element the HHT front-end is expected to deliver to the CPU, in
/// stream order: either a data element (the 32 bits a BUF_DATA pop must
/// return) or a row-end marker (a VALID=0 pop).
struct StreamEvent {
  bool row_end = false;
  std::uint32_t bits = 0;

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// First point where the simulated device's behaviour departed from the
/// functional model, with enough context to aim a waveform-level debug
/// session: the ordinal of the divergent element and the cycle window
/// [prev_cycle, cycle] between the previous delivery and the divergent one.
struct Divergence {
  std::uint64_t element_index = 0;  ///< 0-based ordinal in the delivery stream
  bool expected_row_end = false;
  bool actual_row_end = false;
  std::uint32_t expected_bits = 0;
  std::uint32_t actual_bits = 0;
  sim::Cycle prev_cycle = 0;  ///< cycle of the previous delivered element
  sim::Cycle cycle = 0;       ///< cycle of the divergent element (or check)
  std::string detail;         ///< human-readable classification

  std::string describe() const;
};

// --- expected-stream builders (the functional model of each engine) ---

/// SpmvGather: one data element per stored non-zero, row-major —
/// bit_cast(v[cols[k]]). The gather engine emits no row-end markers (the
/// consumer walks rowPtr itself).
std::vector<StreamEvent> expectedGatherStream(const sparse::CsrMatrix& m,
                                              const sparse::DenseVector& v);

/// SpmspvV1: per index match of row r with the sparse vector, the matrix
/// value then the vector value; after every row (including empty ones)
/// exactly one row-end marker.
std::vector<StreamEvent> expectedMergeV1Stream(const sparse::CsrMatrix& m,
                                               const sparse::SparseVector& v);

/// SpmspvV2: one data element per stored matrix non-zero — the matching
/// vector value, or literal 0.0f bits when the column is absent from the
/// sparse vector. No markers.
std::vector<StreamEvent> expectedStreamV2Stream(const sparse::CsrMatrix& m,
                                                const sparse::SparseVector& v);

// Shard-restricted variants: the expected stream of one tile of an N-tile
// System running the corresponding *Shard kernel — exactly the
// full-matrix stream with the row loop clamped to the shard (the tile
// streams of a run concatenate, in tile order, into the full stream).
std::vector<StreamEvent> expectedGatherStreamShard(
    const sparse::CsrMatrix& m, const sparse::DenseVector& v,
    const kernels::RowShard& shard);
std::vector<StreamEvent> expectedMergeV1StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard);
std::vector<StreamEvent> expectedStreamV2StreamShard(
    const sparse::CsrMatrix& m, const sparse::SparseVector& v,
    const kernels::RowShard& shard);

/// HierBitmap: gathered v[col] per set position in row-major position
/// order, plus one row-end marker per row (trailing empty rows close at
/// the end of the walk).
std::vector<StreamEvent> expectedHierStream(const sparse::HierBitmapMatrix& m,
                                            const sparse::DenseVector& v);

/// FlatBitmap: same contract as the hierarchical walk over the one-level
/// bit-vector format.
std::vector<StreamEvent> expectedFlatStream(const sparse::BitVectorMatrix& m,
                                            const sparse::DenseVector& v);

/// Differential co-simulation oracle, for a System of any tile count.
///
/// Runs in lockstep with the machine via two hooks:
///  - one sim::StreamTap per tile (installed on each ASIC HHT by attach()):
///    every element tile t's FE delivers to its CPU is compared against
///    tile t's expected stream; the first mismatch is latched per tile as a
///    Divergence with its cycle window.
///  - harness::RunObserver (pass to System::run or addObserver): every
///    `check_interval` cycles each tile's FIFO occupancy invariants are
///    checked against the configured hardware sizes (staging <= BLEN,
///    published buffers <= N, emission queue <= its depth); in chunk-queue
///    mode it also folds the claim log into the expected streams.
///
/// After the run, checkFinal() verifies every tile's delivered-element
/// count, then the shared output vector bit-exactly, once. The oracle
/// never throws on divergence — it latches and keeps observing, so a
/// campaign driver can always collect the full report.
class DifferentialOracle : public harness::RunObserver {
 public:
  /// Builds the expected events of one claimed row window [row_begin,
  /// row_begin + row_count) — wrap the matching expected*StreamShard
  /// builder (e.g. expectedGatherStreamShard with a {begin, end, 0} shard).
  using RowStreamFn = std::function<std::vector<StreamEvent>(
      std::uint32_t row_begin, std::uint32_t row_count)>;

  /// The 1-tile machine: one expected stream. check_interval gates the
  /// occupancy sampling (0 disables it).
  explicit DifferentialOracle(std::vector<StreamEvent> expected,
                              sim::Cycle check_interval = 64);

  /// One expected stream per tile; the count must equal the system's tile
  /// count at attach().
  explicit DifferentialOracle(
      std::vector<std::vector<StreamEvent>> expected_per_tile,
      sim::Cycle check_interval = 64);

  /// Per-row dynamic mode for chunk-queue runs: every tile starts with an
  /// empty expected stream, and onCycle drains the work-queue claim log,
  /// appending `row_stream(row_begin, row_count)` to the claiming tile's
  /// stream — so the expectation follows whatever row->tile mapping the
  /// arbiter produced. Requires the system to have a work queue and a
  /// fresh (not restored mid-run) claim log.
  DifferentialOracle(std::uint32_t num_tiles, RowStreamFn row_stream,
                     sim::Cycle check_interval = 64);

  /// Install tile t's stream tap on sys.asicHht(t) (the programmable HHT
  /// has no tap surface and is skipped). Pair with detach() before the
  /// system (or this oracle) is destroyed.
  void attach(harness::System& sys);
  void detach(harness::System& sys);

  void onCycle(harness::System& sys, sim::Cycle now) override;

  /// Post-run checks: every tile's whole expected stream was delivered,
  /// and the shared output vector matches the reference bit-for-bit.
  void checkFinal(const sparse::DenseVector& actual_y,
                  const sparse::DenseVector& expected_y);

  bool diverged() const;
  bool diverged(std::uint32_t tile) const {
    return streams_.at(tile).divergence.has_value();
  }
  /// The first latched divergence: the lowest diverged tile's, else the
  /// output vector's.
  std::optional<Divergence> divergence() const;
  /// Elements delivered, over all tiles or by one tile.
  std::uint64_t delivered() const;
  std::uint64_t delivered(std::uint32_t tile) const {
    return streams_.at(tile).delivered;
  }
  /// All latched divergences, one line per tile, for a campaign report.
  std::string describe() const;

 private:
  /// One tile's expected stream and the tap that checks it.
  struct Stream : sim::StreamTap {
    std::vector<StreamEvent> expected;
    std::uint64_t delivered = 0;
    sim::Cycle last_cycle = 0;
    std::optional<Divergence> divergence;

    void onDelivered(sim::Cycle now, bool is_row_end,
                     std::uint32_t bits) override;
    void checkOccupancy(const core::Hht& hht, sim::Cycle now);
    void latch(Divergence d) {
      if (!divergence) divergence = std::move(d);
    }
  };

  std::vector<Stream> streams_;  ///< stable: sized once in the ctor
  sim::Cycle check_interval_;
  std::optional<Divergence> y_divergence_;
  RowStreamFn row_stream_;      ///< set = per-row dynamic mode
  std::size_t next_claim_ = 0;  ///< claim-log drain cursor (dynamic mode)
};

}  // namespace hht::verify
