#include "harness/experiment.h"

#include "kernels/firmware.h"
#include "workload/partition.h"

#include <algorithm>
#include <stdexcept>

namespace hht::harness {

SystemConfig defaultConfig(std::uint32_t num_buffers, int vlmax) {
  SystemConfig cfg;
  // Table 1 lists a 1 MB RAM; the 512x512/10%-sparsity workloads of Fig. 4
  // need ~2 MB of CSR arrays, so the harness sizes the (flat-latency) RAM
  // to fit — capacity does not affect any timing path.
  cfg.memory.sram_bytes = 8u << 20;
  cfg.hht.num_buffers = num_buffers;
  cfg.vlmax = vlmax;
  // BLEN tracks the vector width (§3.1 footnote 3): buffers hold one
  // vector's worth of elements.
  cfg.hht.buffer_len = static_cast<std::uint32_t>(vlmax);
  return cfg;
}

RunResult runSpmvBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                          const sparse::DenseVector& v, bool vectorized) {
  System sys(cfg);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const isa::Program program = vectorized ? kernels::spmvVectorBaseline(layout)
                                          : kernels::spmvScalarBaseline(layout);
  return sys.run(program, layout.y, layout.num_rows);
}

RunResult runSpmvHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                     const sparse::DenseVector& v, bool vectorized) {
  System sys(cfg);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const Addr mmio = cfg.memory.mmio_base;
  const isa::Program program = vectorized
                                   ? kernels::spmvVectorHht(layout, mmio)
                                   : kernels::spmvScalarHht(layout, mmio);
  return sys.run(program, layout.y, layout.num_rows);
}

RunResult runSpmspvBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                            const sparse::SparseVector& v) {
  System sys(cfg);
  const kernels::SpmspvLayout layout = loadSpmspv(sys, m, v);
  return sys.run(kernels::spmspvScalarBaseline(layout), layout.y,
                 layout.num_rows);
}

RunResult runSpmspvHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                       const sparse::SparseVector& v, int variant,
                       bool vectorized) {
  System sys(cfg);
  const kernels::SpmspvLayout layout = loadSpmspv(sys, m, v);
  const Addr mmio = cfg.memory.mmio_base;
  isa::Program program = [&] {
    if (variant == 1) return kernels::spmspvHhtV1(layout, mmio);
    if (variant == 2) {
      return vectorized ? kernels::spmspvHhtV2(layout, mmio)
                        : kernels::spmspvHhtV2Scalar(layout, mmio);
    }
    throw std::invalid_argument("SpMSpV variant must be 1 or 2");
  }();
  return sys.run(program, layout.y, layout.num_rows);
}

RunResult runSpmmBaseline(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                          const sparse::DenseMatrix& b) {
  System sys(cfg);
  const kernels::SpmmLayout layout = loadSpmm(sys, m, b);
  return sys.run(kernels::spmmVectorBaseline(layout), layout.y,
                 layout.num_rows * layout.k);
}

RunResult runSpmmHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                     const sparse::DenseMatrix& b) {
  System sys(cfg);
  const kernels::SpmmLayout layout = loadSpmm(sys, m, b);
  return sys.run(kernels::spmmVectorHht(layout, cfg.memory.mmio_base),
                 layout.y, layout.num_rows * layout.k);
}

RunResult runFlatHht(const SystemConfig& cfg, const sparse::BitVectorMatrix& m,
                     const sparse::DenseVector& v) {
  System sys(cfg);
  const kernels::HierLayout layout = loadFlatBitmap(sys, m, v);
  return sys.run(kernels::flatBitmapHht(layout, cfg.memory.mmio_base),
                 layout.y, layout.num_rows);
}

RunResult runSpmvProgHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                         const sparse::DenseVector& v, bool vectorized) {
  SystemConfig pcfg = cfg;
  pcfg.programmable_hht = true;
  System sys(pcfg);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const Addr mmio = pcfg.memory.mmio_base;
  const isa::Program firmware = kernels::firmwareSpmvGather(layout, mmio);
  sys.microHht()->setFirmware(firmware);
  const isa::Program program = vectorized
                                   ? kernels::spmvVectorHht(layout, mmio)
                                   : kernels::spmvScalarHht(layout, mmio);
  return sys.run(program, layout.y, layout.num_rows);
}

RunResult runSpmspvProgHht(const SystemConfig& cfg, const sparse::CsrMatrix& m,
                           const sparse::SparseVector& v, int variant,
                           bool vectorized) {
  SystemConfig pcfg = cfg;
  pcfg.programmable_hht = true;
  System sys(pcfg);
  const kernels::SpmspvLayout layout = loadSpmspv(sys, m, v);
  const Addr mmio = pcfg.memory.mmio_base;
  const isa::Program firmware = variant == 1
                                    ? kernels::firmwareSpmspvV1(layout, mmio)
                                    : kernels::firmwareSpmspvV2(layout, mmio);
  sys.microHht()->setFirmware(firmware);
  isa::Program program = [&] {
    if (variant == 1) return kernels::spmspvHhtV1(layout, mmio);
    if (variant == 2) {
      return vectorized ? kernels::spmspvHhtV2(layout, mmio)
                        : kernels::spmspvHhtV2Scalar(layout, mmio);
    }
    throw std::invalid_argument("SpMSpV variant must be 1 or 2");
  }();
  return sys.run(program, layout.y, layout.num_rows);
}

RunResult runSpmvHhtResilient(const SystemConfig& cfg,
                              const sparse::CsrMatrix& m,
                              const sparse::DenseVector& v, bool vectorized) {
  System sys(cfg);
  const kernels::SpmvLayout layout = loadSpmv(sys, m, v);
  const Addr mmio = cfg.memory.mmio_base;
  const isa::Program program = vectorized
                                   ? kernels::spmvVectorHht(layout, mmio)
                                   : kernels::spmvScalarHht(layout, mmio);
  const isa::Program fallback = kernels::spmvScalarBaseline(layout);
  return sys.run(program, layout.y, layout.num_rows, 500'000'000, &fallback);
}

RunResult runSpmspvHhtResilient(const SystemConfig& cfg,
                                const sparse::CsrMatrix& m,
                                const sparse::SparseVector& v, int variant,
                                bool vectorized) {
  System sys(cfg);
  const kernels::SpmspvLayout layout = loadSpmspv(sys, m, v);
  const Addr mmio = cfg.memory.mmio_base;
  isa::Program program = [&] {
    if (variant == 1) return kernels::spmspvHhtV1(layout, mmio);
    if (variant == 2) {
      return vectorized ? kernels::spmspvHhtV2(layout, mmio)
                        : kernels::spmspvHhtV2Scalar(layout, mmio);
    }
    throw std::invalid_argument("SpMSpV variant must be 1 or 2");
  }();
  const isa::Program fallback = kernels::spmspvScalarBaseline(layout);
  return sys.run(program, layout.y, layout.num_rows, 500'000'000, &fallback);
}

RunResult runHierHht(const SystemConfig& cfg, const sparse::HierBitmapMatrix& m,
                     const sparse::DenseVector& v) {
  System sys(cfg);
  const kernels::HierLayout layout = loadHier(sys, m, v);
  return sys.run(kernels::hierBitmapHht(layout, cfg.memory.mmio_base),
                 layout.y, layout.num_rows);
}

namespace {
std::vector<kernels::RowShard> partitionRows(const sparse::CsrMatrix& m,
                                             std::uint32_t num_tiles,
                                             Partition part) {
  return part == Partition::Block
             ? workload::partitionRowsBlock(m, num_tiles)
             : workload::partitionRowsNnzBalanced(m, num_tiles);
}

/// Surface the static split's quality next to the run's timing counters,
/// so a skewed matrix diagnoses itself (imbalance_pct far above 100, or
/// empty shards) instead of just running slowly.
void recordPartitionStats(RunResult& result, const sparse::CsrMatrix& m,
                          const std::vector<kernels::RowShard>& shards) {
  const workload::PartitionStats st = workload::partitionStats(m, shards);
  result.stats.counter("workload.shard_imbalance_pct") = st.imbalance_pct;
  result.stats.counter("workload.shard_empty") = st.empty_shards;
  result.stats.counter("workload.shard_max_nnz") = st.max_nnz;
}

void checkVariant(int variant) {
  if (variant != 1 && variant != 2) {
    throw std::invalid_argument("SpMSpV variant must be 1 or 2");
  }
}

/// The N-tile drivers' common body: an N-tile System over `cfg`, operands
/// loaded once into the shared SRAM by `load` (every tile reads the same
/// arrays), then tile t's program from `build(layout, mmio, claim, t)`
/// against its own MMIO window and chunk-queue claim register. With
/// `queue`, the chunk queue is enabled and seeded via dealRowChunks.
template <typename Load, typename Build>
RunResult runTiles(SystemConfig cfg, std::uint32_t num_tiles, bool queue,
                   std::uint32_t chunk_rows, Load&& load, Build&& build) {
  cfg.memory.num_tiles = num_tiles;
  if (queue) cfg.memory.work_queue_enabled = true;
  System sys(cfg);
  const auto layout = load(sys);
  if (queue) {
    sys.workQueue()->seed(
        dealRowChunks(layout.num_rows, num_tiles, chunk_rows));
  }
  std::vector<isa::Program> programs;
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    programs.push_back(
        build(layout, sys.mmioBaseOf(t), sys.workQueueBase() + 4 * t, t));
  }
  return sys.run(programs, layout.y, layout.num_rows);
}
}  // namespace

RunResult runSpmvHhtSharded(const SystemConfig& cfg, std::uint32_t num_tiles,
                            Partition part, const sparse::CsrMatrix& m,
                            const sparse::DenseVector& v, bool vectorized) {
  const std::vector<kernels::RowShard> shards =
      partitionRows(m, num_tiles, part);
  RunResult result = runTiles(
      cfg, num_tiles, false, 0, [&](System& sys) { return loadSpmv(sys, m, v); },
      [&](const kernels::SpmvLayout& layout, Addr mmio, Addr,
          std::uint32_t t) {
        return vectorized
                   ? kernels::spmvVectorHhtShard(layout, shards[t], mmio)
                   : kernels::spmvScalarHhtShard(layout, shards[t], mmio);
      });
  recordPartitionStats(result, m, shards);
  return result;
}

RunResult runSpmspvHhtSharded(const SystemConfig& cfg, std::uint32_t num_tiles,
                              Partition part, const sparse::CsrMatrix& m,
                              const sparse::SparseVector& v, int variant,
                              bool vectorized) {
  checkVariant(variant);
  if (variant == 2 && !vectorized) {
    throw std::invalid_argument(
        "sharded SpMSpV variant 2 has a vectorized consumer only");
  }
  const std::vector<kernels::RowShard> shards =
      partitionRows(m, num_tiles, part);
  RunResult result = runTiles(
      cfg, num_tiles, false, 0,
      [&](System& sys) { return loadSpmspv(sys, m, v); },
      [&](const kernels::SpmspvLayout& layout, Addr mmio, Addr,
          std::uint32_t t) {
        return variant == 1
                   ? kernels::spmspvHhtV1Shard(layout, shards[t], mmio)
                   : kernels::spmspvHhtV2Shard(layout, shards[t], mmio);
      });
  recordPartitionStats(result, m, shards);
  return result;
}

std::vector<std::vector<mem::ChunkQueueDevice::Chunk>> dealRowChunks(
    std::uint32_t num_rows, std::uint32_t num_tiles,
    std::uint32_t chunk_rows) {
  chunk_rows = std::max<std::uint32_t>(
      1, std::min(chunk_rows, mem::ChunkQueueDevice::kMaxChunkRows));
  std::vector<mem::ChunkQueueDevice::Chunk> chunks;
  for (std::uint32_t row = 0; row < num_rows; row += chunk_rows) {
    chunks.push_back({row, std::min(chunk_rows, num_rows - row)});
  }
  std::vector<std::vector<mem::ChunkQueueDevice::Chunk>> per_tile(num_tiles);
  const std::size_t total = chunks.size();
  std::size_t next = 0;
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    // Contiguous deal, remainder spread over the leading tiles.
    const std::size_t take =
        total / num_tiles + (t < total % num_tiles ? 1 : 0);
    for (std::size_t i = 0; i < take; ++i) per_tile[t].push_back(chunks[next++]);
  }
  return per_tile;
}

RunResult runSpmvHhtChunkQueue(const SystemConfig& cfg, std::uint32_t num_tiles,
                               const sparse::CsrMatrix& m,
                               const sparse::DenseVector& v, bool vectorized,
                               std::uint32_t chunk_rows) {
  return runTiles(
      cfg, num_tiles, true, chunk_rows,
      [&](System& sys) { return loadSpmv(sys, m, v); },
      [&](const kernels::SpmvLayout& layout, Addr mmio, Addr claim,
          std::uint32_t) {
        return vectorized
                   ? kernels::spmvVectorHhtChunkQueue(layout, mmio, claim)
                   : kernels::spmvScalarHhtChunkQueue(layout, mmio, claim);
      });
}

RunResult runSpmspvHhtChunkQueue(const SystemConfig& cfg,
                                 std::uint32_t num_tiles,
                                 const sparse::CsrMatrix& m,
                                 const sparse::SparseVector& v, int variant,
                                 std::uint32_t chunk_rows) {
  checkVariant(variant);
  return runTiles(
      cfg, num_tiles, true, chunk_rows,
      [&](System& sys) { return loadSpmspv(sys, m, v); },
      [&](const kernels::SpmspvLayout& layout, Addr mmio, Addr claim,
          std::uint32_t) {
        return variant == 1
                   ? kernels::spmspvHhtV1ChunkQueue(layout, mmio, claim)
                   : kernels::spmspvHhtV2ChunkQueue(layout, mmio, claim);
      });
}

}  // namespace hht::harness
