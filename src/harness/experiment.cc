#include "harness/experiment.h"

#include "kernels/firmware.h"
#include "workload/partition.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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

Kernel spmspvHht(int variant, bool vectorized) {
  if (variant == 1) return Kernel::kSpmspvHhtV1;
  if (variant == 2) {
    return vectorized ? Kernel::kSpmspvHhtV2 : Kernel::kSpmspvHhtV2Scalar;
  }
  throw std::invalid_argument("SpMSpV variant must be 1 or 2");
}

namespace {

[[noreturn]] void reject(const std::string& why) {
  throw std::invalid_argument("RunSpec: " + why);
}

bool isSpmv(Kernel k) { return k <= Kernel::kSpmvVectorHht; }
bool isSpmspv(Kernel k) {
  return k >= Kernel::kSpmspvScalarBaseline && k <= Kernel::kSpmspvHhtV2Scalar;
}
/// The kernels the HHT serves through its gather/merge engines: the ones
/// with firmware, a scalar fallback and multi-tile variants.
bool isHhtStream(Kernel k) {
  return k == Kernel::kSpmvScalarHht || k == Kernel::kSpmvVectorHht ||
         (isSpmspv(k) && k != Kernel::kSpmspvScalarBaseline);
}

void checkSpec(const RunSpec& s) {
  if (s.kernel > Kernel::kFlatBitmapHht) reject("unknown kernel");
  const bool stream = isHhtStream(s.kernel);
  if ((s.programmable || s.fallback) && !stream) {
    reject("programmable and fallback runs take an HHT SpMV/SpMSpV kernel");
  }
  if (s.programmable && s.fallback) reject("no fallback for programmable runs");
  if (s.distribution == Distribution::kSingle) {
    if (s.tiles != 1) reject("a single-tile run has tiles == 1");
    return;
  }
  if (s.programmable || s.fallback) {
    reject("programmable and fallback runs are single-tile");
  }
  if (s.kernel == Kernel::kSpmspvHhtV2Scalar) {
    reject("multi-tile SpMSpV variant 2 has a vectorized consumer only");
  }
  if (!stream) reject("only the HHT SpMV and SpMSpV kernels run on tiles > 1");
}

template <typename T>
const T& need(const T* operand, const char* name) {
  if (operand == nullptr) {
    reject(std::string("the kernel reads operand '") + name +
           "', which is missing");
  }
  return *operand;
}

/// The rows tile t's program covers.
struct Rows {
  Distribution distribution = Distribution::kSingle;
  kernels::RowShard shard;  ///< kBlock, kNnzBalanced
  Addr claim = 0;           ///< kChunkQueue: the tile's claim register
};

isa::Program spmvProgram(Kernel k, const kernels::SpmvLayout& l, Addr mmio,
                         const Rows& rows) {
  const bool vec = k == Kernel::kSpmvVectorHht;
  if (rows.distribution == Distribution::kChunkQueue) {
    return vec ? kernels::spmvVectorHhtChunkQueue(l, mmio, rows.claim)
               : kernels::spmvScalarHhtChunkQueue(l, mmio, rows.claim);
  }
  if (rows.distribution != Distribution::kSingle) {
    return vec ? kernels::spmvVectorHhtShard(l, rows.shard, mmio)
               : kernels::spmvScalarHhtShard(l, rows.shard, mmio);
  }
  switch (k) {
    case Kernel::kSpmvScalarBaseline: return kernels::spmvScalarBaseline(l);
    case Kernel::kSpmvVectorBaseline: return kernels::spmvVectorBaseline(l);
    case Kernel::kSpmvScalarHht: return kernels::spmvScalarHht(l, mmio);
    default: return kernels::spmvVectorHht(l, mmio);
  }
}

isa::Program spmspvProgram(Kernel k, const kernels::SpmspvLayout& l,
                           Addr mmio, const Rows& rows) {
  const bool v1 = k == Kernel::kSpmspvHhtV1;
  if (rows.distribution == Distribution::kChunkQueue) {
    return v1 ? kernels::spmspvHhtV1ChunkQueue(l, mmio, rows.claim)
              : kernels::spmspvHhtV2ChunkQueue(l, mmio, rows.claim);
  }
  if (rows.distribution != Distribution::kSingle) {
    return v1 ? kernels::spmspvHhtV1Shard(l, rows.shard, mmio)
              : kernels::spmspvHhtV2Shard(l, rows.shard, mmio);
  }
  switch (k) {
    case Kernel::kSpmspvScalarBaseline:
      return kernels::spmspvScalarBaseline(l);
    case Kernel::kSpmspvHhtV1: return kernels::spmspvHhtV1(l, mmio);
    case Kernel::kSpmspvHhtV2: return kernels::spmspvHhtV2(l, mmio);
    default: return kernels::spmspvHhtV2Scalar(l, mmio);
  }
}

/// Distribute the rows (static shards of `m`, or the seeded chunk queue)
/// and build tile t's program as `build(mmio, rows)` against its own MMIO
/// window and claim register.
template <typename Build>
void buildTiles(Prepared& p, System& sys, const RunSpec& spec,
                const sparse::CsrMatrix* m, std::uint32_t num_rows,
                Build&& build) {
  switch (spec.distribution) {
    case Distribution::kSingle: break;
    case Distribution::kBlock:
      p.shards = workload::partitionRowsBlock(*m, spec.tiles);
      break;
    case Distribution::kNnzBalanced:
      p.shards = workload::partitionRowsNnzBalanced(*m, spec.tiles);
      break;
    case Distribution::kChunkQueue:
      sys.workQueue()->seed(
          dealRowChunks(num_rows, spec.tiles, spec.chunk_rows));
      break;
  }
  for (std::uint32_t t = 0; t < spec.tiles; ++t) {
    const Rows rows{spec.distribution,
                    p.shards.empty() ? kernels::RowShard{} : p.shards[t],
                    sys.workQueueBase() + 4 * t};
    isa::Program program = build(sys.mmioBaseOf(t), rows);
    if (spec.tiles == 1) {
      p.program = std::move(program);
    } else {
      p.tiles.push_back(std::move(program));
    }
  }
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

}  // namespace

SystemConfig configFor(SystemConfig cfg, const RunSpec& spec) {
  checkSpec(spec);
  cfg.memory.num_tiles = spec.tiles;
  if (spec.distribution == Distribution::kChunkQueue) {
    cfg.memory.work_queue_enabled = true;
  }
  if (spec.programmable) cfg.programmable_hht = true;
  return cfg;
}

Prepared prepare(System& sys, const RunSpec& spec, const Operands& ops) {
  checkSpec(spec);
  if (sys.numTiles() != spec.tiles ||
      (spec.programmable && sys.microHht() == nullptr) ||
      (spec.distribution == Distribution::kChunkQueue &&
       sys.workQueue() == nullptr)) {
    throw sim::SimError(sim::ErrorKind::Config, "harness",
                        "the System does not have the RunSpec's shape "
                        "(build its config with configFor)");
  }
  const Kernel k = spec.kernel;
  const Addr mmio = sys.mmioBaseOf(0);
  Prepared p;
  if (isSpmv(k)) {
    const sparse::DenseVector& v = need(ops.v, "v");
    const kernels::SpmvLayout l = loadSpmv(sys, need(ops.m, "m"), v);
    p.y = l.y;
    p.y_len = l.num_rows;
    p.x = l.v;
    p.x_len = static_cast<std::uint32_t>(v.size());
    if (spec.programmable) p.firmware = kernels::firmwareSpmvGather(l, mmio);
    if (spec.fallback) p.fallback = kernels::spmvScalarBaseline(l);
    buildTiles(p, sys, spec, ops.m, l.num_rows,
               [&](Addr base, const Rows& rows) {
                 return spmvProgram(k, l, base, rows);
               });
  } else if (isSpmspv(k)) {
    const sparse::SparseVector& sv = need(ops.sv, "sv");
    const kernels::SpmspvLayout l = loadSpmspv(sys, need(ops.m, "m"), sv);
    p.y = l.y;
    p.y_len = l.num_rows;
    p.x = l.vvals;
    p.x_len = static_cast<std::uint32_t>(sv.nnz());
    if (spec.programmable) {
      p.firmware = k == Kernel::kSpmspvHhtV1
                       ? kernels::firmwareSpmspvV1(l, mmio)
                       : kernels::firmwareSpmspvV2(l, mmio);
    }
    if (spec.fallback) p.fallback = kernels::spmspvScalarBaseline(l);
    buildTiles(p, sys, spec, ops.m, l.num_rows,
               [&](Addr base, const Rows& rows) {
                 return spmspvProgram(k, l, base, rows);
               });
  } else if (k == Kernel::kSpmmVectorBaseline ||
             k == Kernel::kSpmmVectorHht) {
    const kernels::SpmmLayout l =
        loadSpmm(sys, need(ops.m, "m"), need(ops.b, "b"));
    p.y = l.y;
    p.y_len = l.num_rows * l.k;
    p.x = l.b;
    p.x_len = l.num_cols * l.k;
    buildTiles(p, sys, spec, ops.m, l.num_rows, [&](Addr base, const Rows&) {
      return k == Kernel::kSpmmVectorHht ? kernels::spmmVectorHht(l, base)
                                         : kernels::spmmVectorBaseline(l);
    });
  } else {
    const bool hier = k == Kernel::kHierBitmapHht;
    const sparse::DenseVector& v = need(ops.v, "v");
    const kernels::HierLayout l =
        hier ? loadHier(sys, need(ops.hier, "hier"), v)
             : loadFlatBitmap(sys, need(ops.flat, "flat"), v);
    p.y = l.y;
    p.y_len = l.num_rows;
    p.x = l.v;
    p.x_len = static_cast<std::uint32_t>(v.size());
    buildTiles(p, sys, spec, nullptr, l.num_rows, [&](Addr base, const Rows&) {
      return hier ? kernels::hierBitmapHht(l, base)
                  : kernels::flatBitmapHht(l, base);
    });
  }
  if (p.firmware) sys.microHht()->setFirmware(*p.firmware);
  return p;
}

RunResult run(const SystemConfig& cfg, const RunSpec& spec,
              const Operands& ops) {
  System sys(configFor(cfg, spec));
  const Prepared p = prepare(sys, spec, ops);
  RunResult result =
      sys.run(p.programs(), p.y, p.y_len, 500'000'000,
              p.fallback ? &*p.fallback : nullptr);
  if (!p.shards.empty()) recordPartitionStats(result, *ops.m, p.shards);
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

}  // namespace hht::harness
