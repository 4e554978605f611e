// Back door for streaming CSR assembly.
//
// CsrMatrix::from_coo materialises a COO buffer first; the generator-model
// engine (ctmc/generator.cpp) builds rows in final order and does not want
// the intermediate copy, and rate rebinding needs to overwrite values in
// place on a frozen sparsity pattern; a chain's builder attaches the
// state partition the two-level Gauss-Seidel solve aggregates over.
// CsrBuilderAccess is the single, narrow friend through which all three
// happen; everything else keeps going through the public CsrMatrix API.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "linalg/csr.hpp"

namespace tags::linalg {

class CsrBuilderAccess {
 public:
  /// Adopt pre-assembled CSR arrays. Invariants the caller must uphold
  /// (the engine's row-streaming assembly does by construction):
  /// row_ptr.size() == rows + 1, row_ptr.front() == 0, row_ptr.back() ==
  /// col.size() == val.size(), and each row's columns sorted ascending
  /// with no duplicates.
  [[nodiscard]] static CsrMatrix adopt(index_t rows, index_t cols,
                                       std::vector<index_t> row_ptr,
                                       std::vector<index_t> col,
                                       std::vector<double> val) {
    CsrMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_ = std::move(row_ptr);
    m.col_ = std::move(col);
    m.val_ = std::move(val);
    return m;
  }

  /// Mutable view of the value array, parallel to the (frozen) column
  /// array. Used by rate rebinding to repopulate numerics without touching
  /// structure. Marks the cached transpose stale: its pattern stays valid
  /// (the caller's contract is pattern-preserving mutation), so the next
  /// transpose_cache() reader refreshes values through the stored gather
  /// permutation instead of rebuilding.
  [[nodiscard]] static std::vector<double>& values(CsrMatrix& m) noexcept {
    m.invalidate_transpose_cache();
    return m.val_;
  }

  /// Attach the chain builder's partition: one block id in [0, blocks) per
  /// row, every id used. Set once, before the first solve; the cached
  /// Gauss-Seidel copy lists the inter-block entries when it is built.
  static void set_partition(CsrMatrix& m, std::vector<index_t> block_of) {
    assert(block_of.size() == static_cast<std::size_t>(m.rows_));
    assert(m.tcache_.load() == nullptr);
    m.partition_ = std::move(block_of);
  }
};

}  // namespace tags::linalg
