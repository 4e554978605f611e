// Batched multi-point kernels over a shared frozen sparsity pattern.
//
// A rate sweep solves the same CSR structure at many nearby parameter
// points: the pattern never changes, only the values. CsrValueBatch packs
// the value arrays of W adjacent points lane-interleaved (entry k of point
// b lives at values[k*W + b]), so a kernel that walks the pattern once can
// process all W points with stride-1 SIMD lanes across the batch. The
// batched LU factorisation mirrors linalg::lu_factor per lane — same
// pivot choice, same elimination order, same zero-multiplier skip
// semantics (implemented as a select so the lanes stay in lockstep) — and
// extract_lane() hands back a scalar LuFactorization whose bits equal what
// lu_factor would have produced for that lane's matrix alone. That
// equality is what lets the batched dense-LU solve promise bit-identical
// results at any batch width (see DESIGN.md "Batched multi-point sweeps").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"

namespace tags::linalg {

/// W value columns over one frozen CSR pattern. The pattern matrix must
/// outlive the batch; its own values are not read unless a lane loads them.
class CsrValueBatch {
 public:
  CsrValueBatch(const CsrMatrix& pattern, std::size_t width)
      : pattern_(&pattern), width_(width), values_(pattern.nnz() * width, 0.0) {}

  [[nodiscard]] const CsrMatrix& pattern() const noexcept { return *pattern_; }
  [[nodiscard]] std::size_t width() const noexcept { return width_; }

  /// Copy the value array of `m` (same pattern as pattern()) into lane b.
  void load_lane(std::size_t b, const CsrMatrix& m);

  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Scatter lane b back out as a contiguous value array (size nnz).
  void extract_lane(std::size_t b, std::span<double> out) const;

  /// Materialise lane b as a standalone CsrMatrix (pattern arrays copied,
  /// values from the lane). The result behaves exactly like the matrix the
  /// scalar path would have solved at that point — transpose cache,
  /// diagonal, residuals all included.
  [[nodiscard]] CsrMatrix lane_matrix(std::size_t b) const;

 private:
  const CsrMatrix* pattern_;
  std::size_t width_;
  std::vector<double> values_;  // nnz x W, lane-interleaved
};

/// Batched dense LU with partial pivoting: W independent m x m systems
/// eliminated in lockstep, lane-interleaved storage a[(i*m + j)*W + b].
/// Pivoting decisions are per lane; a lane that hits an exactly zero pivot
/// is flagged singular and (like lu_factor) keeps processing so the other
/// lanes are unaffected.
class BatchLuFactorization {
 public:
  BatchLuFactorization() = default;

  /// Factor W matrices given by `get` (get(i, j, b) returns entry (i,j) of
  /// lane b). Eliminations mirror linalg::lu_factor lane by lane.
  template <class Get>
  void factor(std::size_t m, std::size_t width, Get&& get) {
    m_ = m;
    w_ = width;
    a_.resize(m * m * width);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j)
        for (std::size_t b = 0; b < width; ++b)
          a_[(i * m + j) * width + b] = get(i, j, b);
    factor_in_place();
  }

  /// Factor from pre-filled lane-interleaved storage (moved in).
  void factor_packed(std::size_t m, std::size_t width, std::vector<double> a) {
    m_ = m;
    w_ = width;
    a_ = std::move(a);
    factor_in_place();
  }

  [[nodiscard]] bool singular(std::size_t b) const noexcept { return singular_[b]; }
  [[nodiscard]] bool any_singular() const noexcept { return any_singular_; }

  /// Scalar factorization of lane b: bit-identical to
  /// lu_factor(<lane b's matrix>) by construction. Substitutions on the
  /// extracted object therefore reuse the scalar code paths verbatim.
  [[nodiscard]] LuFactorization extract_lane(std::size_t b) const;

 private:
  void factor_in_place();

  std::size_t m_ = 0;
  std::size_t w_ = 0;
  std::vector<double> a_;                  // (m x m) x W lane-interleaved
  std::vector<std::size_t> piv_;           // m x W lane-interleaved
  std::vector<unsigned char> singular_;    // per lane
  bool any_singular_ = false;
};

}  // namespace tags::linalg
