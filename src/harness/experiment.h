#pragma once

#include <optional>
#include <vector>

#include "harness/system.h"

namespace hht::harness {

/// Baseline Table-1 system configuration (1.1 GHz RV32 with VL=8 vector
/// unit, 1 MB SRAM, ASIC HHT with N buffers of 8 elements).
SystemConfig defaultConfig(std::uint32_t num_buffers = 2, int vlmax = 8);

// --- one dispatch surface: RunSpec + Operands in, RunResult out ---

/// The consumer program a run executes: one of the single-tile kernels
/// kernels:: builds, named after its builder.
enum class Kernel : std::uint8_t {
  kSpmvScalarBaseline,   ///< Algorithm 1 (Fig. 8's VL=1 baseline)
  kSpmvVectorBaseline,   ///< indexed-load vector baseline (Fig. 4)
  kSpmvScalarHht,
  kSpmvVectorHht,        ///< the Fig. 4 configuration
  kSpmspvScalarBaseline, ///< two-pointer merge (Fig. 5 baseline)
  kSpmspvHhtV1,          ///< aligned pairs
  kSpmspvHhtV2,          ///< value-or-zero stream, vector consumer
  kSpmspvHhtV2Scalar,    ///< value-or-zero stream, scalar consumer
  kSpmmVectorBaseline,   ///< column-batched SpMV, y column-major
  kSpmmVectorHht,
  kHierBitmapHht,        ///< SMASH-style hierarchical bitmap (§6)
  kFlatBitmapHht,        ///< flat bit-vector format (Fig. 1)
};

/// The HHT SpMSpV consumer for `variant` 1 or 2 (variant 2 with a vector
/// or scalar consumer); any other variant throws std::invalid_argument.
Kernel spmspvHht(int variant, bool vectorized = true);

/// How the rows of a run are spread over its tiles (DESIGN.md §13).
enum class Distribution : std::uint8_t {
  kSingle,       ///< one tile runs the whole kernel
  kBlock,        ///< static shards of equal row counts
  kNnzBalanced,  ///< static shards of balanced nonzero counts
  kChunkQueue,   ///< dynamic: tiles claim row chunks from the shared queue
};

/// One run of the simulated machine. Multi-tile runs (kBlock,
/// kNnzBalanced, kChunkQueue) exist for the HHT SpMV kernels and the
/// vector-consumer HHT SpMSpV kernels; every tile reads the same operands
/// from the shared SRAM and the disjoint y slices concatenate in tile
/// order, so y is bit-identical to the single-tile kernel for any tile
/// count. A combination outside this set throws std::invalid_argument.
struct RunSpec {
  Kernel kernel = Kernel::kSpmvVectorHht;
  /// The §7 programmable HHT: the metadata walk runs as firmware on the
  /// device's micro-core (HHT SpMV/SpMSpV kernels, one tile).
  bool programmable = false;
  /// Graceful degradation (HHT SpMV/SpMSpV kernels, one tile): the scalar
  /// software baseline is installed as the fallback program, so an HHT
  /// fault mid-run yields RunResult{degraded=true} with a correct y
  /// instead of an error. Pair with SystemConfig::faults.
  bool fallback = false;
  std::uint32_t tiles = 1;  ///< overrides the config's memory.num_tiles
  Distribution distribution = Distribution::kSingle;
  /// kChunkQueue's chunk size, clamped to [1, kMaxChunkRows].
  std::uint32_t chunk_rows = 16;
};

/// Non-owning view of a run's operands; the kernel reads
///   SpMV: m, v   SpMSpV: m, sv   SpMM: m, b (dense, num_cols x k)
///   hier: hier, v   flat: flat, v
/// and a missing one throws std::invalid_argument.
struct Operands {
  const sparse::CsrMatrix* m = nullptr;
  const sparse::DenseVector* v = nullptr;
  const sparse::SparseVector* sv = nullptr;
  const sparse::DenseMatrix* b = nullptr;
  const sparse::HierBitmapMatrix* hier = nullptr;
  const sparse::BitVectorMatrix* flat = nullptr;
};

/// `cfg` shaped for `spec`: its tile count, the chunk queue and the
/// programmable HHT. Throws std::invalid_argument for an unsupported spec.
SystemConfig configFor(SystemConfig cfg, const RunSpec& spec);

/// A System loaded for a run: System::run(programs(), y, y_len, ...,
/// fallback) executes it. A 1-tile run keeps its program inline, so
/// preparing it allocates nothing beyond the program itself.
struct Prepared {
  std::span<const isa::Program> programs() const {
    return tiles.empty() ? std::span(&program, 1) : std::span(tiles);
  }
  isa::Program program;             ///< the program of a 1-tile run
  std::vector<isa::Program> tiles;  ///< tile t's program, when tiles > 1
  Addr y = 0;                       ///< output address
  std::uint32_t y_len = 0;          ///< output length in floats
  /// Where the x operand's values sit (v, sv's values, or SpMM's B): the
  /// words the HHT's value fetches read.
  Addr x = 0;
  std::uint32_t x_len = 0;
  std::optional<isa::Program> fallback;  ///< with RunSpec::fallback
  /// The micro-core firmware (programmable runs), already installed.
  std::optional<isa::Program> firmware;
  /// The static row shards (kBlock, kNnzBalanced).
  std::vector<kernels::RowShard> shards;
};

/// Load `ops` into `sys` (built from configFor(cfg, spec)), seed the chunk
/// queue and install the firmware; return the tile programs. Throws
/// std::invalid_argument for an unsupported spec or a missing operand, and
/// SimError(Config) for a System of another shape.
Prepared prepare(System& sys, const RunSpec& spec, const Operands& ops);

/// One-shot run on a fresh System: configFor, prepare, System::run.
/// Deterministic. A sharded run also records the split's quality as
/// workload.shard_{imbalance_pct,empty,max_nnz}.
RunResult run(const SystemConfig& cfg, const RunSpec& spec,
              const Operands& ops);

/// Split [0, num_rows) into ceil(num_rows / chunk_rows) fixed-size row
/// chunks and deal them to `num_tiles` deques in contiguous runs (tile 0
/// gets the first chunks, and so on) — so with no skew every tile starts
/// with its block-partition share and never needs to steal, while skew
/// drains one deque early and work-stealing rebalances. chunk_rows is
/// clamped to [1, ChunkQueueDevice::kMaxChunkRows].
std::vector<std::vector<mem::ChunkQueueDevice::Chunk>> dealRowChunks(
    std::uint32_t num_rows, std::uint32_t num_tiles, std::uint32_t chunk_rows);

/// speedup = baseline cycles / accelerated cycles.
inline double speedup(const RunResult& baseline, const RunResult& accel) {
  return accel.cycles == 0
             ? 0.0
             : static_cast<double>(baseline.cycles) /
                   static_cast<double>(accel.cycles);
}

}  // namespace hht::harness
