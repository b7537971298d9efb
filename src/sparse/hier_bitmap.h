#pragma once

#include <cstdint>
#include <vector>

#include "sparse/dense.h"

namespace hht::sparse {

/// Hierarchical bitmap representation in the style of SMASH [21]
/// (Kanellopoulos et al., MICRO'19), which the paper programs the HHT to
/// traverse (§6, results omitted there; we reproduce the mechanism and
/// benchmark it with `bench/paper --only=abl_smash`).
///
/// Two levels over the row-major position space, 64 positions per leaf:
///   level-1: one bit per 64-position leaf block; set iff the block holds
///            at least one non-zero.
///   level-0: for each *set* level-1 bit, a 64-bit occupancy word.
///   vals   : non-zero values packed in position order.
///
/// Locating the k-th non-zero requires popcount walks over both levels —
/// the "complicated indexing" the paper notes makes the HHT work harder
/// than the CPU it serves.
class HierBitmapMatrix {
 public:
  static constexpr Index kLeafBits = 64;

  HierBitmapMatrix() = default;

  static HierBitmapMatrix fromDense(const DenseMatrix& dense);

  Index numRows() const { return n_rows_; }
  Index numCols() const { return n_cols_; }
  std::size_t nnz() const { return vals_.size(); }

  const std::vector<std::uint64_t>& level1() const { return level1_; }
  const std::vector<std::uint64_t>& leaves() const { return leaves_; }
  const std::vector<Value>& vals() const { return vals_; }

  /// Number of leaf blocks the position space divides into.
  Index numLeafSlots() const {
    const std::size_t positions = static_cast<std::size_t>(n_rows_) * n_cols_;
    return static_cast<Index>((positions + kLeafBits - 1) / kLeafBits);
  }

  /// Value at (r, c); popcount-rank walk over both levels.
  Value at(Index r, Index c) const;

  /// Enumerate non-zeros in row-major order as (position, value).
  /// The HHT's hier-bitmap engine performs exactly this walk in hardware.
  std::vector<std::pair<std::size_t, Value>> enumerate() const;

  bool validate() const;
  DenseMatrix toDense() const;

  std::size_t storageBytes() const {
    return (level1_.size() + leaves_.size()) * sizeof(std::uint64_t) +
           vals_.size() * sizeof(Value);
  }

  bool operator==(const HierBitmapMatrix&) const = default;

 private:
  Index n_rows_ = 0;
  Index n_cols_ = 0;
  std::vector<std::uint64_t> level1_;
  std::vector<std::uint64_t> leaves_;  ///< one word per set level-1 bit
  std::vector<Value> vals_;
};

}  // namespace hht::sparse
