#include "verify/shrink.h"

#include <algorithm>

#include "sparse/coo.h"

namespace hht::verify {

namespace {

using sim::Index;

/// Mutable decomposition of a case's operands; rebuilt into a CosimCase
/// for every candidate evaluation.
struct Decomposed {
  std::vector<sparse::Triplet> triplets;
  Index num_rows = 0;
  Index num_cols = 0;
  std::vector<sparse::Value> v;
  std::vector<Index> sv_idx;
  std::vector<sparse::Value> sv_vals;
};

Decomposed decompose(const CosimCase& c) {
  Decomposed ops;
  ops.triplets = c.m.toCoo().entries();
  ops.num_rows = c.m.numRows();
  ops.num_cols = c.m.numCols();
  ops.v.assign(c.v.values().begin(), c.v.values().end());
  ops.sv_idx = c.sv.indices();
  ops.sv_vals = c.sv.vals();
  return ops;
}

CosimCase rebuild(const CosimCase& base, const Decomposed& ops) {
  CosimCase c = base;
  c.m = sparse::CsrMatrix::fromCoo(
      sparse::CooMatrix(ops.num_rows, ops.num_cols, ops.triplets));
  std::vector<sparse::Value> v = ops.v;
  v.resize(ops.num_cols, 1.0f);
  c.v = sparse::DenseVector(std::move(v));
  std::vector<Index> idx;
  std::vector<sparse::Value> vals;
  for (std::size_t i = 0; i < ops.sv_idx.size(); ++i) {
    if (ops.sv_idx[i] < ops.num_cols) {
      idx.push_back(ops.sv_idx[i]);
      vals.push_back(ops.sv_vals[i]);
    }
  }
  c.sv = sparse::SparseVector(ops.num_cols, std::move(idx), std::move(vals));
  return c;
}

class Shrinker {
 public:
  Shrinker(const CosimCase& base, int max_evals)
      : base_(base), max_evals_(max_evals) {}

  bool fails(const Decomposed& ops) {
    if (evals_ >= max_evals_) return false;  // budget exhausted: reject
    ++evals_;
    return !runCosim(rebuild(base_, ops)).ok;
  }

  int evals() const { return evals_; }

  /// ddmin-style chunk removal over the triplet list.
  bool shrinkTriplets(Decomposed& ops) {
    bool any = false;
    std::size_t chunk = std::max<std::size_t>(1, ops.triplets.size() / 2);
    while (chunk >= 1 && evals_ < max_evals_) {
      bool removed = false;
      for (std::size_t at = 0;
           at < ops.triplets.size() && evals_ < max_evals_;) {
        Decomposed cand = ops;
        const std::size_t n =
            std::min(chunk, cand.triplets.size() - at);
        cand.triplets.erase(
            cand.triplets.begin() + static_cast<std::ptrdiff_t>(at),
            cand.triplets.begin() + static_cast<std::ptrdiff_t>(at + n));
        if (fails(cand)) {
          ops = std::move(cand);
          removed = any = true;  // retry same offset at same granularity
        } else {
          at += chunk;
        }
      }
      if (!removed && chunk == 1) break;
      if (!removed) chunk /= 2;
    }
    return any;
  }

  /// Drop one row at a time, remapping rows above it down; also truncates
  /// trailing rows past the last occupied one.
  bool shrinkRows(Decomposed& ops) {
    bool any = false;
    for (Index r = 0; r < ops.num_rows && ops.num_rows > 1 &&
                      evals_ < max_evals_;) {
      Decomposed cand = ops;
      cand.num_rows -= 1;
      std::vector<sparse::Triplet> kept;
      for (const sparse::Triplet& t : cand.triplets) {
        if (t.row == r) continue;
        sparse::Triplet nt = t;
        if (nt.row > r) nt.row -= 1;
        kept.push_back(nt);
      }
      cand.triplets = std::move(kept);
      if (fails(cand)) {
        ops = std::move(cand);
        any = true;  // same r now names the next row
      } else {
        ++r;
      }
    }
    return any;
  }

  /// Truncate columns past the last one referenced by the matrix or the
  /// sparse vector (shrinks v and the sv domain with it).
  bool truncateCols(Decomposed& ops) {
    Index max_col = 0;
    bool seen = false;
    for (const sparse::Triplet& t : ops.triplets) {
      max_col = std::max(max_col, t.col);
      seen = true;
    }
    for (Index i : ops.sv_idx) {
      max_col = std::max(max_col, i);
      seen = true;
    }
    const Index want = seen ? max_col + 1 : 1;
    if (want >= ops.num_cols) return false;
    Decomposed cand = ops;
    cand.num_cols = want;
    cand.v.resize(want);
    if (!fails(cand)) return false;
    ops = std::move(cand);
    return true;
  }

  /// Thin the sparse vector one entry at a time.
  bool shrinkSv(Decomposed& ops) {
    bool any = false;
    for (std::size_t i = 0; i < ops.sv_idx.size() && evals_ < max_evals_;) {
      Decomposed cand = ops;
      cand.sv_idx.erase(cand.sv_idx.begin() + static_cast<std::ptrdiff_t>(i));
      cand.sv_vals.erase(cand.sv_vals.begin() +
                         static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        ops = std::move(cand);
        any = true;
      } else {
        ++i;
      }
    }
    return any;
  }

 private:
  const CosimCase& base_;
  int max_evals_;
  int evals_ = 0;
};

}  // namespace

ShrinkResult shrinkCase(const CosimCase& failing, int max_evals) {
  ShrinkResult result;
  result.initial_nnz = failing.m.nnz();
  result.initial_rows = failing.m.numRows();

  Decomposed ops = decompose(failing);
  Shrinker shrinker(failing, max_evals);
  bool progress = true;
  while (progress) {
    progress = false;
    progress |= shrinker.shrinkTriplets(ops);
    progress |= shrinker.shrinkRows(ops);
    progress |= shrinker.truncateCols(ops);
    progress |= shrinker.shrinkSv(ops);
  }

  result.c = rebuild(failing, ops);
  result.evals = shrinker.evals();
  result.final_nnz = result.c.m.nnz();
  result.final_rows = result.c.m.numRows();
  return result;
}

}  // namespace hht::verify
