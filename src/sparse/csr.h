#pragma once

#include <span>
#include <vector>

#include "sparse/coo.h"
#include "sparse/dense.h"

namespace hht::sparse {

/// Compressed Sparse Row matrix — the paper's primary representation
/// (Fig. 1) and the one the ASIC HHT's memory-mapped registers describe
/// (M_Rows_Base / M_Cols_Base / vals).
///
/// Layout (identical to what the simulator writes into simulated SRAM):
///   rowPtr : n_rows+1 indices; row r's entries live in [rowPtr[r], rowPtr[r+1])
///   cols   : column index of each non-zero, ascending within a row
///   vals   : the non-zero values, parallel to cols
class CsrMatrix {
 public:
  CsrMatrix() : row_ptr_(1, 0) {}
  CsrMatrix(Index n_rows, Index n_cols, std::vector<Index> row_ptr,
            std::vector<Index> cols, std::vector<Value> vals)
      : n_rows_(n_rows), n_cols_(n_cols), row_ptr_(std::move(row_ptr)),
        cols_(std::move(cols)), vals_(std::move(vals)) {}

  static CsrMatrix fromDense(const DenseMatrix& dense);
  /// Builds from COO; canonicalizes a copy first (sorts + merges duplicates).
  static CsrMatrix fromCoo(CooMatrix coo);

  Index numRows() const { return n_rows_; }
  Index numCols() const { return n_cols_; }
  std::size_t nnz() const { return vals_.size(); }

  const std::vector<Index>& rowPtr() const { return row_ptr_; }
  const std::vector<Index>& cols() const { return cols_; }
  const std::vector<Value>& vals() const { return vals_; }

  Index rowNnz(Index r) const { return row_ptr_[r + 1] - row_ptr_[r]; }
  std::span<const Index> rowCols(Index r) const {
    return {cols_.data() + row_ptr_[r], rowNnz(r)};
  }
  std::span<const Value> rowVals(Index r) const {
    return {vals_.data() + row_ptr_[r], rowNnz(r)};
  }

  /// Structural invariants: rowPtr monotone starting at 0 and ending at nnz,
  /// parallel cols/vals, column indices in range and strictly ascending
  /// per row.
  bool validate() const;

  DenseMatrix toDense() const;
  CooMatrix toCoo() const;

  /// Longest / average row occupancy — workload statistics the experiment
  /// harness reports next to each run.
  Index maxRowNnz() const;
  double avgRowNnz() const;

  /// Fraction of zero entries relative to the dense n_rows*n_cols size.
  double sparsity() const;

  /// Storage footprint in bytes (rowPtr + cols + vals); compared against
  /// the bitmap formats in abl_smash and the format-comparison example.
  std::size_t storageBytes() const {
    return (row_ptr_.size() + cols_.size()) * sizeof(Index) +
           vals_.size() * sizeof(Value);
  }

  /// Extract the sub-matrix rows [r0,r0+h) x cols [c0,c0+w) as CSR.
  /// Used by the §5.5 energy study, which tiles matrices into 16x16 blocks.
  CsrMatrix extractTile(Index r0, Index c0, Index h, Index w) const;

  bool operator==(const CsrMatrix&) const = default;

 private:
  Index n_rows_ = 0;
  Index n_cols_ = 0;
  std::vector<Index> row_ptr_;
  std::vector<Index> cols_;
  std::vector<Value> vals_;
};

}  // namespace hht::sparse
