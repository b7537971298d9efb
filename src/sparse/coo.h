#pragma once

#include <vector>

#include "sparse/dense.h"

namespace hht::sparse {

/// One non-zero entry in coordinate (triplet) form.
struct Triplet {
  Index row = 0;
  Index col = 0;
  Value value = 0.0f;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Coordinate-list (COO) sparse matrix.
///
/// COO is the interchange format: Matrix Market I/O reads and writes it,
/// and CSR is built from it. Entries may be held unsorted; `canonicalize()`
/// sorts row-major and sums duplicates.
class CooMatrix {
 public:
  CooMatrix() = default;
  CooMatrix(Index n_rows, Index n_cols) : n_rows_(n_rows), n_cols_(n_cols) {}
  CooMatrix(Index n_rows, Index n_cols, std::vector<Triplet> entries)
      : n_rows_(n_rows), n_cols_(n_cols), entries_(std::move(entries)) {}

  static CooMatrix fromDense(const DenseMatrix& dense);

  Index numRows() const { return n_rows_; }
  Index numCols() const { return n_cols_; }
  std::size_t nnz() const { return entries_.size(); }

  /// Append one entry. Out-of-range coordinates are a programming error
  /// caught by validate(); duplicates are legal until canonicalize().
  void add(Index row, Index col, Value value) {
    entries_.push_back({row, col, value});
  }

  const std::vector<Triplet>& entries() const { return entries_; }

  /// Sort row-major (row, then col), merge duplicate coordinates by summing
  /// their values, and drop entries whose (possibly summed) value is zero.
  void canonicalize();

  /// True when entries are sorted row-major with no duplicate coordinates.
  bool isCanonical() const;

  /// All coordinates within bounds?
  bool validate() const;

  DenseMatrix toDense() const;

 private:
  Index n_rows_ = 0;
  Index n_cols_ = 0;
  std::vector<Triplet> entries_;
};

}  // namespace hht::sparse
