#include "linalg/batch.hpp"

#include <cassert>
#include <cmath>

#include "linalg/csr_assembly.hpp"

namespace tags::linalg {

namespace {

// The lane-interleaved layout makes every inner loop a contiguous run of
// W doubles, so the batched kernels are exactly the loops wide vector
// units want. The build targets the SSE2 baseline for portability;
// target_clones adds an AVX2 variant behind a runtime dispatch (an
// AVX-512 clone measured no faster here — these kernels have too few
// independent chains to cover the wider unit's latency — so it is left
// out to keep dispatch and code size down).
// Bit parity survives the wider clones because vector mul/sub/div are
// elementwise IEEE operations in the same per-lane order — the file is
// compiled with -ffp-contract=off (see src/CMakeLists.txt) so the FMA-
// capable clones cannot contract a*b+c into a differently-rounded fma.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__)
#define TAGS_BATCH_KERNEL \
  __attribute__((target_clones("avx2", "default")))
#else
#define TAGS_BATCH_KERNEL
#endif

// Small lane-indexed temporaries. The W != 0 specialisation lives on the
// stack, which is what makes the hot loops vectorise: a heap-allocated
// temporary can alias the matrix being updated as far as the compiler
// knows, so every store forces the "invariant" lane values to be
// reloaded and the vectoriser gives up. A stack array whose address never
// escapes provably cannot alias, and the same loops compile to one or two
// wide ops per lane group.
template <class T, std::size_t N>
struct LaneBuf {
  explicit LaneBuf(std::size_t) {}
  T* data() noexcept { return v; }
  T& operator[](std::size_t i) noexcept { return v[i]; }
  const T& operator[](std::size_t i) const noexcept { return v[i]; }
  T v[N] = {};
};
template <class T>
struct LaneBuf<T, 0> {
  explicit LaneBuf(std::size_t n) : v(n) {}
  T* data() noexcept { return v.data(); }
  T& operator[](std::size_t i) noexcept { return v[i]; }
  const T& operator[](std::size_t i) const noexcept { return v[i]; }
  std::vector<T> v;
};

// Run-fused subtraction terms. The deferred trailing update reduces to
// `dst -= l * src` streams over one destination row; with one store per
// term it is store-port-bound at exactly the scalar kernel's throughput,
// so lane-widening alone gains nothing. Fusing a run of kRun
// terms keeps the destination lane group in a stack accumulator across the
// run — one load+store of dst per kRun terms — which moves the loops to
// the mul/sub ALU limit instead. Bit parity holds because the terms still
// apply in append (ascending) order one subtraction at a time, and keeping
// the intermediate in a register rounds identically to storing it: SSE/AVX
// doubles have no extended precision, and -ffp-contract=off keeps the
// mul and sub separate.
constexpr std::size_t kRun = 4;

template <std::size_t W, std::size_t R>
[[gnu::always_inline]] inline void apply_run_r(double* dst,
                                               const double* const* src,
                                               const double* lv, std::size_t w_rt,
                                               std::size_t lo, std::size_t hi) {
  const std::size_t w = W != 0 ? W : w_rt;
  LaneBuf<double, W> acc(w);
  for (std::size_t j = lo; j < hi; ++j) {
    double* d = dst + j * w;
    for (std::size_t b = 0; b < w; ++b) acc[b] = d[b];
    for (std::size_t r = 0; r < R; ++r) {
      const double* s = src[r] + j * w;
      const double* l = lv + r * w;
      for (std::size_t b = 0; b < w; ++b) acc[b] -= l[b] * s[b];
    }
    for (std::size_t b = 0; b < w; ++b) d[b] = acc[b];
  }
}

template <std::size_t W>
[[gnu::always_inline]] inline void apply_run(double* dst,
                                             const double* const* src,
                                             const double* lv, std::size_t nrun,
                                             std::size_t w, std::size_t lo,
                                             std::size_t hi) {
  switch (nrun) {
    case 1: apply_run_r<W, 1>(dst, src, lv, w, lo, hi); break;
    case 2: apply_run_r<W, 2>(dst, src, lv, w, lo, hi); break;
    case 3: apply_run_r<W, 3>(dst, src, lv, w, lo, hi); break;
    case 4: apply_run_r<W, 4>(dst, src, lv, w, lo, hi); break;
    default: break;
  }
}

// A term whose multiplier is zero in some lanes cannot join a fused run:
// its skipped lanes must replicate the scalar `if (l == 0.0) continue`
// bit-for-bit (v - 0.0*u is NOT a no-op for signed zeros), so it applies
// alone as a branch-free select.
template <std::size_t W>
[[gnu::always_inline]] inline void apply_select(double* dst, const double* src,
                                                const double* lv,
                                                std::size_t w_rt, std::size_t lo,
                                                std::size_t hi) {
  const std::size_t w = W != 0 ? W : w_rt;
  for (std::size_t j = lo; j < hi; ++j) {
    double* d = dst + j * w;
    const double* s = src + j * w;
    for (std::size_t b = 0; b < w; ++b) {
      const double l = lv[b];
      d[b] = (l == 0.0) ? d[b] : d[b] - l * s[b];
    }
  }
}

// Panel-blocked right-looking elimination. The unblocked update at step k
// streams the whole (m-k)^2 x W trailing block, whose ~8x-scalar footprint
// lives in L3; deferring the trailing update until a panel of kPanel steps
// is factored divides that traffic by kPanel, and column-tiling the
// deferred update keeps the destination L2-resident. Bit parity with the
// unblocked (and hence scalar) elimination is exact: each trailing entry
// still receives its updates in ascending step order one subtraction at a
// time (no dot-product reassociation), and row interchanges are pure data
// movement, so applying a panel's swaps to the outside columns after the
// panel — the LAPACK getrf arrangement — permutes the same values through
// the same arithmetic.
// The kernel is a width-templated impl behind a thin dispatching clone:
// with W fixed at compile time the lane loops unroll into single wide
// vector ops (a W=8 lane group is exactly one zmm register), where a
// runtime trip count would leave the vectorizer emitting prologue checks
// around every 8-iteration loop. Widths 1..8 are instantiated so odd
// batch tails stay on stack-buffer fast paths; W=0 is the runtime-width
// fallback for anything wider. always_inline pulls the impl into each
// clone so it is compiled at that clone's ISA.
template <std::size_t W>
[[gnu::always_inline]] inline void factor_impl(double* a, std::size_t m,
                                               std::size_t w_rt, std::size_t* piv,
                                               unsigned char* singular,
                                               bool& any_singular) {
  const std::size_t w = W != 0 ? W : w_rt;
  constexpr std::size_t kPanel = 16;
  LaneBuf<double, W> inv(w);
  LaneBuf<double, W> mult(w);
  LaneBuf<unsigned char, W> skip(w);
  LaneBuf<std::size_t, W> p(w);
  LaneBuf<double, W> best(w);
  LaneBuf<unsigned char, W ? kPanel * W : 0> panel_skip(kPanel * w);
  const auto at = [&](std::size_t i, std::size_t j) { return a + (i * m + j) * w; };

  for (std::size_t k0 = 0; k0 < m; k0 += kPanel) {
    const std::size_t k1 = std::min(m, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      // Partial pivoting, all lanes in lockstep (the column scan streams
      // lane-contiguous rows): strict > keeps the first maximum, exactly
      // like lu_factor. A lane whose column is exactly zero from row k down
      // is singular (p stays k there) and sits this elimination step out.
      {
        const double* ck = at(k, k);
        for (std::size_t b = 0; b < w; ++b) {
          p[b] = k;
          best[b] = std::abs(ck[b]);
        }
      }
      for (std::size_t i = k + 1; i < m; ++i) {
        const double* ci = at(i, k);
        for (std::size_t b = 0; b < w; ++b) {
          const double v = std::abs(ci[b]);
          if (v > best[b]) {
            best[b] = v;
            p[b] = i;
          }
        }
      }
      bool any_swap = false;
      for (std::size_t b = 0; b < w; ++b) {
        piv[k * w + b] = p[b];
        if (best[b] == 0.0) {
          singular[b] = 1;
          any_singular = true;
          skip[b] = 1;
        } else {
          skip[b] = 0;
          any_swap |= p[b] != k;
        }
        panel_skip[(k - k0) * w + b] = skip[b];
      }
      if (any_swap) {
        // Panel columns swap immediately (later panel steps read them);
        // outside columns are swapped after the panel. j-outer so row k
        // streams; a zero-pivot lane has p == k and swaps nothing, exactly
        // like the scalar early-continue.
        for (std::size_t j = k0; j < k1; ++j) {
          double* rk = at(k, j);
          for (std::size_t b = 0; b < w; ++b) {
            if (p[b] != k) std::swap(rk[b], at(p[b], j)[b]);
          }
        }
      }
      {
        const double* pk = at(k, k);
        for (std::size_t b = 0; b < w; ++b) inv[b] = skip[b] ? 0.0 : 1.0 / pk[b];
      }
      for (std::size_t i = k + 1; i < m; ++i) {
        double* aik = at(i, k);
        bool all_zero = true;
        bool any_zero = false;
        for (std::size_t b = 0; b < w; ++b) {
          // Scalar code writes lik = a(i,k)/pivot then skips the row update
          // when lik == 0. A skipped (singular) lane leaves a(i,k) untouched
          // and multiplies by 0 below, which the select turns into a no-op.
          const double lik = aik[b] * inv[b];
          const double mb = skip[b] ? 0.0 : lik;
          mult[b] = mb;
          aik[b] = skip[b] ? aik[b] : lik;
          all_zero &= mb == 0.0;
          any_zero |= mb == 0.0;
        }
        // Lanes share the pattern's structural zeros, so whole rows of
        // multipliers are usually zero together — skipping them restores the
        // scalar kernel's sparsity advantage (each lane's skip is exactly
        // lu_factor's `if (lik == 0.0) continue`).
        if (all_zero) continue;
        for (std::size_t j = k + 1; j < k1; ++j) {
          const double* u = at(k, j);
          double* v = at(i, j);
          if (!any_zero) {
            for (std::size_t b = 0; b < w; ++b) v[b] -= mult[b] * u[b];
          } else {
            for (std::size_t b = 0; b < w; ++b) {
              // Select, not branch: replicates lu_factor's `if (lik == 0.0)
              // continue` bit-for-bit (computing v - 0.0*u is NOT a no-op
              // for signed zeros) while keeping the lane loop branch-free.
              const double l = mult[b];
              v[b] = (l == 0.0) ? v[b] : v[b] - l * u[b];
            }
          }
        }
      }
    }
    // Deferred row interchanges for the columns outside the panel, in step
    // order (pure permutation, no arithmetic).
    for (std::size_t k = k0; k < k1; ++k) {
      const std::size_t* pk = piv + k * w;
      bool any_swap = false;
      for (std::size_t b = 0; b < w; ++b) any_swap |= pk[b] != k;
      if (!any_swap) continue;
      const auto swap_range = [&](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) {
          double* rk = at(k, j);
          for (std::size_t b = 0; b < w; ++b) {
            if (pk[b] != k) std::swap(rk[b], at(pk[b], j)[b]);
          }
        }
      };
      swap_range(0, k0);
      swap_range(k1, m);
    }
    // Deferred trailing update, column-tiled so each destination tile is
    // L2-resident while the panel's L columns and U rows stream over it,
    // i-outer so each destination row takes its panel steps as fused runs.
    // Per entry the k-ascending subtraction sequence is the unblocked
    // kernel's, one step at a time; i ascending guarantees a source row k
    // inside the panel is itself fully updated (at iteration i == k)
    // before any row i > k consumes it, exactly as the k-outer order did.
    if (k1 < m) {
      const std::size_t tile =
          std::max<std::size_t>(8, (std::size_t{1} << 20) / (m * w * 8));
      LaneBuf<double, W ? kRun * W : 0> runl(kRun * w);
      const double* runsrc[kRun];
      for (std::size_t j0 = k1; j0 < m; j0 += tile) {
        const std::size_t j1 = std::min(m, j0 + tile);
        for (std::size_t i = k0 + 1; i < m; ++i) {
          const std::size_t kmax = std::min(i, k1);
          double* di = at(i, 0);
          std::size_t nrun = 0;
          for (std::size_t k = k0; k < kmax; ++k) {
            const unsigned char* skp = panel_skip.data() + (k - k0) * w;
            const double* aik = at(i, k);
            bool all_zero = true;
            bool any_zero = false;
            for (std::size_t b = 0; b < w; ++b) {
              const double mb = skp[b] ? 0.0 : aik[b];
              mult[b] = mb;
              all_zero &= mb == 0.0;
              any_zero |= mb == 0.0;
            }
            if (all_zero) continue;
            if (any_zero) {
              apply_run<W>(di, runsrc, runl.data(), nrun, w, j0, j1);
              nrun = 0;
              apply_select<W>(di, at(k, 0), mult.data(), w, j0, j1);
              continue;
            }
            for (std::size_t b = 0; b < w; ++b) runl[nrun * w + b] = mult[b];
            runsrc[nrun++] = at(k, 0);
            if (nrun == kRun) {
              apply_run<W>(di, runsrc, runl.data(), kRun, w, j0, j1);
              nrun = 0;
            }
          }
          apply_run<W>(di, runsrc, runl.data(), nrun, w, j0, j1);
        }
      }
    }
  }
}

TAGS_BATCH_KERNEL void factor_kernel(double* a, std::size_t m, std::size_t w,
                                     std::size_t* piv, unsigned char* singular,
                                     bool& any_singular) {
  switch (w) {
    case 1: factor_impl<1>(a, m, w, piv, singular, any_singular); break;
    case 2: factor_impl<2>(a, m, w, piv, singular, any_singular); break;
    case 3: factor_impl<3>(a, m, w, piv, singular, any_singular); break;
    case 4: factor_impl<4>(a, m, w, piv, singular, any_singular); break;
    case 5: factor_impl<5>(a, m, w, piv, singular, any_singular); break;
    case 6: factor_impl<6>(a, m, w, piv, singular, any_singular); break;
    case 7: factor_impl<7>(a, m, w, piv, singular, any_singular); break;
    case 8: factor_impl<8>(a, m, w, piv, singular, any_singular); break;
    default: factor_impl<0>(a, m, w, piv, singular, any_singular); break;
  }
}

#undef TAGS_BATCH_KERNEL

}  // namespace

void CsrValueBatch::load_lane(std::size_t b, const CsrMatrix& m) {
  assert(b < width_);
  assert(m.nnz() == pattern_->nnz());
  assert(m.rows() == pattern_->rows() && m.cols() == pattern_->cols());
  const std::size_t nnz = pattern_->nnz();
  const double* src = m.row_vals(0).data();
  for (std::size_t k = 0; k < nnz; ++k) values_[k * width_ + b] = src[k];
}

void CsrValueBatch::extract_lane(std::size_t b, std::span<double> out) const {
  assert(b < width_);
  assert(out.size() == pattern_->nnz());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = values_[k * width_ + b];
}

CsrMatrix CsrValueBatch::lane_matrix(std::size_t b) const {
  const CsrMatrix& p = *pattern_;
  const std::size_t nnz = p.nnz();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(p.rows()) + 1, 0);
  for (index_t i = 0; i < p.rows(); ++i) {
    row_ptr[static_cast<std::size_t>(i) + 1] =
        row_ptr[static_cast<std::size_t>(i)] +
        static_cast<index_t>(p.row_cols(i).size());
  }
  std::vector<index_t> col(nnz);
  if (p.rows() > 0) {
    const index_t* cols = p.row_cols(0).data();
    col.assign(cols, cols + nnz);
  }
  std::vector<double> val(nnz);
  extract_lane(b, val);
  return CsrBuilderAccess::adopt(p.rows(), p.cols(), std::move(row_ptr),
                                 std::move(col), std::move(val));
}

void BatchLuFactorization::factor_in_place() {
  piv_.assign(m_ * w_, 0);
  singular_.assign(w_, 0);
  any_singular_ = false;
  factor_kernel(a_.data(), m_, w_, piv_.data(), singular_.data(), any_singular_);
}

LuFactorization BatchLuFactorization::extract_lane(std::size_t b) const {
  assert(b < w_);
  LuFactorization f;
  DenseMatrix lu(m_, m_);
  for (std::size_t i = 0; i < m_; ++i)
    for (std::size_t j = 0; j < m_; ++j) lu(i, j) = a_[(i * m_ + j) * w_ + b];
  f.lu_ = std::move(lu);
  f.piv_.resize(m_);
  for (std::size_t k = 0; k < m_; ++k) f.piv_[k] = piv_[k * w_ + b];
  f.singular_ = singular_[b] != 0;
  return f;
}

}  // namespace tags::linalg
