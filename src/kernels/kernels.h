#pragma once

#include "core/mmr.h"
#include "isa/program.h"
#include "sim/types.h"

namespace hht::kernels {

using sim::Addr;

/// Simulated-memory placement of the CSR operands for SpMV
/// (y = M * v, M in CSR, v dense). All addresses are simulated SRAM
/// addresses produced by the harness's Arena.
struct SpmvLayout {
  Addr rows = 0;   ///< CSR row pointers, num_rows+1 x u32
  Addr cols = 0;   ///< CSR column indices
  Addr vals = 0;   ///< CSR values (f32)
  Addr v = 0;      ///< dense vector (f32, num_cols)
  Addr y = 0;      ///< output (f32, num_rows)
  std::uint32_t num_rows = 0;
};

/// Placement for SpMSpV (y = M * v, v sparse: ascending indices + values).
struct SpmspvLayout {
  Addr rows = 0;
  Addr cols = 0;
  Addr vals = 0;
  Addr vidx = 0;   ///< sparse vector indices, v_nnz x u32
  Addr vvals = 0;  ///< sparse vector values, v_nnz x f32
  Addr y = 0;
  std::uint32_t num_rows = 0;
  std::uint32_t v_nnz = 0;
};

/// Placement for the SMASH-style hierarchical bitmap SpMV (§6 mode).
struct HierLayout {
  Addr l1 = 0;          ///< level-1 bitmap words
  Addr leaves = 0;      ///< leaf occupancy words (u64 as 2 x u32, LE)
  Addr packed_vals = 0; ///< matrix non-zero values in position order
  Addr v = 0;           ///< dense vector
  Addr y = 0;
  std::uint32_t num_rows = 0;
  std::uint32_t num_cols = 0;
};

/// One tile's contiguous row range of a CSR operand (multi-tile scale-out,
/// DESIGN.md §13). Shards partition [0, num_rows): row-disjoint shards give
/// each tile its own y slice, so "reduction" is just reading slices back in
/// tile order — bit-identical to the single-tile kernel by construction
/// (each y[i] is produced by exactly one tile running the same per-row
/// FMA sequence).
struct RowShard {
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;    ///< exclusive
  /// rowPtr[row_begin]: where this shard's slice of cols/vals starts. The
  /// engines index cols/vals by *absolute* rowPtr values, so only the CPU
  /// consumer's contiguous vals cursor needs it.
  std::uint32_t nnz_begin = 0;

  std::uint32_t rows() const { return row_end - row_begin; }
  bool empty() const { return row_end <= row_begin; }
};

// ----- SpMV (Fig. 4 / Fig. 8 / Fig. 9) -----

/// Algorithm 1 exactly: scalar CSR SpMV (the VL=1 baseline of Fig. 8).
isa::Program spmvScalarBaseline(const SpmvLayout& m);

/// Vectorized baseline: vle32 of cols/vals + vluxei32 indexed gather of v —
/// the paper's baseline "using the vector indexed-load instruction" (§5.4).
isa::Program spmvVectorBaseline(const SpmvLayout& m);

/// HHT-assisted scalar SpMV: gathers come from the FE's fixed buffer
/// address; the CPU keeps only vals loads + FMAs.
isa::Program spmvScalarHht(const SpmvLayout& m,
                           Addr mmio_base = core::kDefaultMmioBase);

/// HHT-assisted vector SpMV (the Fig. 4 configuration).
isa::Program spmvVectorHht(const SpmvLayout& m,
                           Addr mmio_base = core::kDefaultMmioBase);

/// Sharded HHT SpMV: the same kernels restricted to `shard`'s rows, for one
/// tile of an N-tile System (pass the tile's own MMIO window base). An
/// empty shard builds a trivial ecall-only program that never starts the
/// tile's HHT. Program names encode the row range, so snapshots of
/// different shards never collide.
isa::Program spmvScalarHhtShard(const SpmvLayout& m, const RowShard& shard,
                                Addr mmio_base = core::kDefaultMmioBase);
isa::Program spmvVectorHhtShard(const SpmvLayout& m, const RowShard& shard,
                                Addr mmio_base = core::kDefaultMmioBase);

/// Chunk-queue HHT SpMV: instead of a fixed shard, the tile claims packed
/// (row_begin << 12 | row_count) chunks from the shared work-queue device by
/// loading `claim_addr` (its per-tile claim register,
/// System::workQueueBase() + 4*tile). Per chunk the CPU re-points
/// M_Rows_Base / M_Num_Rows and re-pulses START (the SpMM re-configuration
/// idiom), then runs the same per-row consumer loop as the static kernels —
/// so each y[i] is still produced by exactly one tile with the single-tile
/// FMA order, and the concatenated output stays bit-identical regardless of
/// which tile claimed which chunk. A claim of 0 means the queue is drained
/// and the program halts. Program names encode the claim register, so the
/// per-tile programs never collide in snapshots.
isa::Program spmvScalarHhtChunkQueue(const SpmvLayout& m, Addr mmio_base,
                                     Addr claim_addr);
isa::Program spmvVectorHhtChunkQueue(const SpmvLayout& m, Addr mmio_base,
                                     Addr claim_addr);

// ----- SpMM (batched SpMV: DNN inference with batch > 1) -----

/// Placement for Y = M * B with B dense num_cols x k, stored column-major
/// (column j at b + j*num_cols*4); Y is num_rows x k column-major.
struct SpmmLayout {
  Addr rows = 0;
  Addr cols = 0;
  Addr vals = 0;
  Addr b = 0;
  Addr y = 0;
  std::uint32_t num_rows = 0;
  std::uint32_t num_cols = 0;
  std::uint32_t k = 0;
};

/// Column-by-column vector baseline (indexed gathers per column).
isa::Program spmmVectorBaseline(const SpmmLayout& m);

/// HHT-assisted SpMM: the CPU re-points V_Base and pulses START once per
/// B column — the tiling/reuse pattern §5.5 describes for large operands.
isa::Program spmmVectorHht(const SpmmLayout& m,
                           Addr mmio_base = core::kDefaultMmioBase);

// ----- SpMSpV (Fig. 5) -----

/// Scalar two-pointer merge baseline (per-row rescan of the vector
/// indices) — the "CPU performs both index computations and MACs" baseline.
isa::Program spmspvScalarBaseline(const SpmspvLayout& m);

/// Variant-1: HHT supplies aligned (m_val, v_val) pairs via the VALID
/// protocol; the CPU only multiply-accumulates.
isa::Program spmspvHhtV1(const SpmspvLayout& m,
                         Addr mmio_base = core::kDefaultMmioBase);

/// Variant-2, vectorized consumer: HHT streams v-or-zero per matrix NZ;
/// the CPU loads matrix values itself and vfmaccs against the stream.
isa::Program spmspvHhtV2(const SpmspvLayout& m,
                         Addr mmio_base = core::kDefaultMmioBase);

/// Variant-2 with a scalar consumer (used for the VL=1 sensitivity runs).
isa::Program spmspvHhtV2Scalar(const SpmspvLayout& m,
                               Addr mmio_base = core::kDefaultMmioBase);

/// Sharded SpMSpV variants (see spmvScalarHhtShard). Every tile rescans the
/// full sparse vector — exactly what the single-tile kernel does per row —
/// so shard results concatenate into the reference output bit-for-bit.
isa::Program spmspvHhtV1Shard(const SpmspvLayout& m, const RowShard& shard,
                              Addr mmio_base = core::kDefaultMmioBase);
isa::Program spmspvHhtV2Shard(const SpmspvLayout& m, const RowShard& shard,
                              Addr mmio_base = core::kDefaultMmioBase);

/// Chunk-queue SpMSpV variants (see spmvScalarHhtChunkQueue): the tile
/// claims row chunks from the shared work queue and reprograms the HHT per
/// chunk. Every chunk rescans the full sparse vector, exactly like the
/// static shard variants.
isa::Program spmspvHhtV1ChunkQueue(const SpmspvLayout& m, Addr mmio_base,
                                   Addr claim_addr);
isa::Program spmspvHhtV2ChunkQueue(const SpmspvLayout& m, Addr mmio_base,
                                   Addr claim_addr);

// ----- Hierarchical bitmap (§6, bench/paper --only=abl_smash) -----

/// HHT walks the SMASH-style bitmaps and gathers v; the CPU streams the
/// packed matrix values and consumes via the VALID protocol.
isa::Program hierBitmapHht(const HierLayout& m,
                           Addr mmio_base = core::kDefaultMmioBase);

/// Same consumer over the one-level bit-vector format (Fig. 1): `leaves`
/// is the base of the full occupancy bitmap; `l1` is unused.
isa::Program flatBitmapHht(const HierLayout& m,
                           Addr mmio_base = core::kDefaultMmioBase);

}  // namespace hht::kernels
