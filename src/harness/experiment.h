#pragma once

#include "harness/system.h"

namespace hht::harness {

/// Baseline Table-1 system configuration (1.1 GHz RV32 with VL=8 vector
/// unit, 1 MB SRAM, ASIC HHT with N buffers of 8 elements).
SystemConfig defaultConfig(std::uint32_t num_buffers = 2, int vlmax = 8);

// --- one-shot kernel drivers (fresh System per run; deterministic) ---

/// CPU-only SpMV. `vectorized` selects Algorithm-1 scalar code vs the
/// vector kernel with indexed loads (the Fig. 4 baseline).
RunResult runSpmvBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                          const sparse::DenseVector& v, bool vectorized);

/// HHT-assisted SpMV (gather mode).
RunResult runSpmvHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                     const sparse::DenseVector& v, bool vectorized);

/// CPU-only SpMSpV (scalar two-pointer merge).
RunResult runSpmspvBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                            const sparse::SparseVector& v);

/// HHT-assisted SpMSpV. variant: 1 (aligned pairs) or 2 (value-or-zero
/// stream); variant 2 may use the vectorized consumer.
RunResult runSpmspvHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                       const sparse::SparseVector& v, int variant,
                       bool vectorized = true);

/// HHT-assisted SpMV over the SMASH-style hierarchical bitmap (§6).
RunResult runHierHht(const SystemConfig& cfg, const sparse::HierBitmapMatrix& m,
                     const sparse::DenseVector& v);

/// SpMM Y = M*B (B dense num_cols x k): column-batched SpMV. Returns the
/// result matrix through RunResult::y, column-major flattened.
RunResult runSpmmBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                          const sparse::DenseMatrix& b);
RunResult runSpmmHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                     const sparse::DenseMatrix& b);

/// HHT-assisted SpMV over the flat bit-vector format (Fig. 1).
RunResult runFlatHht(const SystemConfig& cfg, const sparse::BitVectorMatrix& m,
                     const sparse::DenseVector& v);

/// SpMV assisted by the *programmable* HHT (§7): same consumer kernel, but
/// the metadata walk runs as firmware on the device's micro-core.
RunResult runSpmvProgHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                         const sparse::DenseVector& v, bool vectorized);

/// SpMSpV (variant 1 or 2) assisted by the programmable HHT.
RunResult runSpmspvProgHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                           const sparse::SparseVector& v, int variant,
                           bool vectorized = true);

/// HHT-assisted SpMV with graceful degradation: the scalar software
/// baseline is installed as the fallback program, so an HHT fault mid-run
/// yields RunResult{degraded=true} with a correct y instead of an error.
/// Pair with SystemConfig::faults for injection campaigns.
RunResult runSpmvHhtResilient(const SystemConfig& cfg,
                              const sparse::CsrMatrix& m,
                              const sparse::DenseVector& v, bool vectorized);

/// HHT-assisted SpMSpV (variant 1 or 2) with the scalar merge baseline as
/// the degradation fallback.
RunResult runSpmspvHhtResilient(const SystemConfig& cfg,
                                const sparse::CsrMatrix& m,
                                const sparse::SparseVector& v, int variant,
                                bool vectorized = true);

// --- multi-tile scale-out drivers (DESIGN.md §13) ---

/// Row partitioner selection for the sharded drivers.
enum class Partition { Block, NnzBalanced };

/// SpMV sharded across `num_tiles` {CPU+HHT} tiles of a System sharing
/// one memory system: the matrix is row-partitioned, each tile runs
/// the single-tile HHT kernel restricted to its shard against its own MMIO
/// window, and the disjoint y slices concatenate in tile order — making the
/// result bit-identical to the single-tile kernel for any num_tiles. The
/// config's memory.num_tiles is overridden with `num_tiles`.
RunResult runSpmvHhtSharded(const SystemConfig& cfg, std::uint32_t num_tiles,
                            Partition part, const sparse::CsrMatrix& m,
                            const sparse::DenseVector& v, bool vectorized);

/// SpMSpV (variant 1 or 2) sharded across tiles; see runSpmvHhtSharded.
RunResult runSpmspvHhtSharded(const SystemConfig& cfg, std::uint32_t num_tiles,
                              Partition part, const sparse::CsrMatrix& m,
                              const sparse::SparseVector& v, int variant,
                              bool vectorized = true);

/// Split [0, num_rows) into ceil(num_rows / chunk_rows) fixed-size row
/// chunks and deal them to `num_tiles` deques in contiguous runs (tile 0
/// gets the first chunks, and so on) — so with no skew every tile starts
/// with its block-partition share and never needs to steal, while skew
/// drains one deque early and work-stealing rebalances. chunk_rows is
/// clamped to [1, ChunkQueueDevice::kMaxChunkRows].
std::vector<std::vector<mem::ChunkQueueDevice::Chunk>> dealRowChunks(
    std::uint32_t num_rows, std::uint32_t num_tiles, std::uint32_t chunk_rows);

/// SpMV with dynamic row distribution: an N-tile System with the shared
/// chunk-queue device enabled (memory.work_queue_enabled), seeded via
/// dealRowChunks, each tile running the *ChunkQueue kernel against its own
/// MMIO window and claim register. Output stays bit-identical to the
/// single-tile kernel for any claim schedule (each y[i] is produced by
/// exactly one tile in the single-tile FMA order); the queue's arbitration
/// lands in the run stats as mem.wq.{grants,steals,conflict_cycles}.
RunResult runSpmvHhtChunkQueue(const SystemConfig& cfg, std::uint32_t num_tiles,
                               const sparse::CsrMatrix& m,
                               const sparse::DenseVector& v, bool vectorized,
                               std::uint32_t chunk_rows = 16);

/// SpMSpV (variant 1 or 2, vectorized consumer for 2) with dynamic row
/// distribution; see runSpmvHhtChunkQueue.
RunResult runSpmspvHhtChunkQueue(const SystemConfig& cfg,
                                 std::uint32_t num_tiles,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v, int variant,
                                 std::uint32_t chunk_rows = 16);

/// speedup = baseline cycles / accelerated cycles.
inline double speedup(const RunResult& baseline, const RunResult& accel) {
  return accel.cycles == 0
             ? 0.0
             : static_cast<double>(baseline.cycles) /
                   static_cast<double>(accel.cycles);
}

}  // namespace hht::harness
