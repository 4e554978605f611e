#include "linalg/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>

#include "linalg/inflow_rows.hpp"
#include "obs/obs.hpp"

namespace tags::linalg {

/// Explicit transpose plus the gather permutation that maps each transposed
/// entry back to its source slot in the parent's value array. The parent's
/// sparsity pattern is frozen once built (rate rebinding rewrites values
/// only), so invalidation just flips `fresh` and the next reader refreshes
/// values through `src` without touching structure. The Gauss-Seidel copy
/// derived from the transpose goes stale with it and refreshes separately.
struct CsrMatrix::TransposeCache {
  CsrMatrix t;                    // the transpose, rows sorted by column
  std::vector<std::size_t> src;   // t.val_[k] == parent.val_[src[k]]
  std::mutex refresh_mu;          // serialises the value refreshes
  std::atomic<bool> fresh{true};  // false after a rebind, until refreshed
  std::unique_ptr<InflowRows> inflow;    // built on first inflow_cache()
  std::atomic<bool> inflow_fresh{false};  // false after a rebind, until refreshed
};

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      col_(other.col_),
      val_(other.val_),
      partition_(other.partition_) {}

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  col_ = other.col_;
  val_ = other.val_;
  partition_ = other.partition_;
  delete tcache_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(std::move(other.row_ptr_)),
      col_(std::move(other.col_)),
      val_(std::move(other.val_)),
      partition_(std::move(other.partition_)),
      tcache_(other.tcache_.exchange(nullptr, std::memory_order_acq_rel)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  col_ = std::move(other.col_);
  val_ = std::move(other.val_);
  partition_ = std::move(other.partition_);
  other.rows_ = 0;
  other.cols_ = 0;
  delete tcache_.exchange(other.tcache_.exchange(nullptr, std::memory_order_acq_rel),
                          std::memory_order_acq_rel);
  return *this;
}

CsrMatrix::~CsrMatrix() { delete tcache_.load(std::memory_order_acquire); }

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  CsrMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();
  const auto& tri = coo.entries();
  const std::size_t n_rows = static_cast<std::size_t>(m.rows_);

  // Counting sort by row.
  std::vector<index_t> count(n_rows + 1, 0);
  for (const Triplet& t : tri) ++count[static_cast<std::size_t>(t.row) + 1];
  for (std::size_t i = 0; i < n_rows; ++i) count[i + 1] += count[i];

  std::vector<index_t> cols(tri.size());
  std::vector<double> vals(tri.size());
  {
    std::vector<index_t> cursor(count.begin(), count.end() - 1);
    for (const Triplet& t : tri) {
      const std::size_t pos = static_cast<std::size_t>(cursor[static_cast<std::size_t>(t.row)]++);
      cols[pos] = t.col;
      vals[pos] = t.value;
    }
  }

  // Sort within each row by column and sum duplicates, compacting in place.
  m.row_ptr_.assign(n_rows + 1, 0);
  std::size_t write = 0;
  std::vector<std::size_t> perm;
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::size_t lo = static_cast<std::size_t>(count[r]);
    const std::size_t hi = static_cast<std::size_t>(count[r + 1]);
    perm.resize(hi - lo);
    for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = lo + k;
    std::sort(perm.begin(), perm.end(),
              [&](std::size_t a, std::size_t b) { return cols[a] < cols[b]; });
    std::size_t k = 0;
    while (k < perm.size()) {
      const index_t c = cols[perm[k]];
      double acc = 0.0;
      while (k < perm.size() && cols[perm[k]] == c) {
        acc += vals[perm[k]];
        ++k;
      }
      m.col_.push_back(c);
      m.val_.push_back(acc);
      ++write;
    }
    m.row_ptr_[r + 1] = static_cast<index_t>(write);
  }
  return m;
}

CsrMatrix CsrMatrix::from_dense(const DenseMatrix& dense) {
  CooMatrix coo(static_cast<index_t>(dense.rows()), static_cast<index_t>(dense.cols()));
  std::size_t nnz = 0;
  for (const double v : dense.data()) nnz += (v != 0.0);
  coo.reserve(nnz);
  for (std::size_t i = 0; i < dense.rows(); ++i)
    for (std::size_t j = 0; j < dense.cols(); ++j)
      if (dense(i, j) != 0.0)
        coo.add(static_cast<index_t>(i), static_cast<index_t>(j), dense(i, j));
  return from_coo(coo);
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const noexcept {
  assert(static_cast<index_t>(x.size()) == cols_);
  assert(static_cast<index_t>(y.size()) == rows_);
  for (index_t i = 0; i < rows_; ++i) {
    const auto cs = row_cols(i);
    const auto vs = row_vals(i);
    double acc = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) acc += vs[k] * x[static_cast<std::size_t>(cs[k])];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

void CsrMatrix::multiply_transpose(std::span<const double> x,
                                   std::span<double> y) const {
  assert(static_cast<index_t>(x.size()) == rows_);
  assert(static_cast<index_t>(y.size()) == cols_);
  transpose_cache().multiply(x, y);
}

const CsrMatrix& CsrMatrix::transpose_cache() const {
  static obs::Counter hits("numerics.transpose_cache.hits");
  static obs::Counter misses("numerics.transpose_cache.misses");
  static obs::Counter refreshes("numerics.transpose_cache.refreshes");

  TransposeCache* c = tcache_.load(std::memory_order_acquire);
  if (c == nullptr) {
    // First use: build the transpose by counting sort over columns, keeping
    // the source index of every entry so later refreshes are value-only.
    obs::Span span("linalg/transpose_fill");
    span.attr("nnz", static_cast<double>(nnz()));
    auto built = std::make_unique<TransposeCache>();
    CsrMatrix& t = built->t;
    t.rows_ = cols_;
    t.cols_ = rows_;
    const std::size_t nc = static_cast<std::size_t>(cols_);
    t.row_ptr_.assign(nc + 1, 0);
    for (const index_t j : col_) ++t.row_ptr_[static_cast<std::size_t>(j) + 1];
    for (std::size_t j = 0; j < nc; ++j) t.row_ptr_[j + 1] += t.row_ptr_[j];
    t.col_.resize(nnz());
    t.val_.resize(nnz());
    built->src.resize(nnz());
    std::vector<index_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
    for (index_t i = 0; i < rows_; ++i) {
      const std::size_t lo = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i)]);
      const std::size_t hi = static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(i) + 1]);
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t pos = static_cast<std::size_t>(cursor[static_cast<std::size_t>(col_[k])]++);
        t.col_[pos] = i;  // ascending i within each bucket: rows come out sorted
        t.val_[pos] = val_[k];
        built->src[pos] = k;
      }
    }
    TransposeCache* expected = nullptr;
    if (tcache_.compare_exchange_strong(expected, built.get(), std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      c = built.release();
      misses.add();
    } else {
      c = expected;  // another thread installed first; ours is discarded
      hits.add();
    }
  } else {
    hits.add();
  }
  if (!c->fresh.load(std::memory_order_acquire)) {
    // Values went stale through a rate rebind; the pattern did not. Gather
    // the new values through the stored source permutation.
    const std::lock_guard<std::mutex> lock(c->refresh_mu);
    if (!c->fresh.load(std::memory_order_relaxed)) {
      const obs::Span span("linalg/transpose_refresh");
      for (std::size_t k = 0; k < c->src.size(); ++k) c->t.val_[k] = val_[c->src[k]];
      c->fresh.store(true, std::memory_order_release);
      refreshes.add();
    }
  }
  return c->t;
}

const InflowRows& CsrMatrix::inflow_cache() const {
  const CsrMatrix& t = transpose_cache();
  TransposeCache* c = tcache_.load(std::memory_order_acquire);
  if (!c->inflow_fresh.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(c->refresh_mu);
    if (!c->inflow_fresh.load(std::memory_order_relaxed)) {
      if (c->inflow) {
        const obs::Span span("linalg/inflow_refresh");
        c->inflow->refresh(t);
      } else {
        const obs::Span span("linalg/inflow_fill");
        c->inflow = std::make_unique<InflowRows>(t, partition_);
      }
      c->inflow_fresh.store(true, std::memory_order_release);
    }
  }
  return *c->inflow;
}

void CsrMatrix::invalidate_transpose_cache() const noexcept {
  if (TransposeCache* c = tcache_.load(std::memory_order_acquire)) {
    c->fresh.store(false, std::memory_order_release);
    c->inflow_fresh.store(false, std::memory_order_release);
  }
}

CsrMatrix CsrMatrix::transposed() const {
  CooMatrix coo(cols_, rows_);
  coo.reserve(nnz());
  for (index_t i = 0; i < rows_; ++i) {
    const auto cs = row_cols(i);
    const auto vs = row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) coo.add(cs[k], i, vs[k]);
  }
  return from_coo(coo);
}

Vec CsrMatrix::diagonal() const {
  const std::size_t n = static_cast<std::size_t>(std::min(rows_, cols_));
  Vec d(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d[i] = at(static_cast<index_t>(i), static_cast<index_t>(i));
  return d;
}

double CsrMatrix::at(index_t i, index_t j) const noexcept {
  const auto cs = row_cols(i);
  const auto it = std::lower_bound(cs.begin(), cs.end(), j);
  if (it == cs.end() || *it != j) return 0.0;
  return row_vals(i)[static_cast<std::size_t>(it - cs.begin())];
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(static_cast<std::size_t>(rows_), static_cast<std::size_t>(cols_));
  for (index_t i = 0; i < rows_; ++i) {
    const auto cs = row_cols(i);
    const auto vs = row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k)
      d(static_cast<std::size_t>(i), static_cast<std::size_t>(cs[k])) = vs[k];
  }
  return d;
}

double CsrMatrix::residual_inf(std::span<const double> x, std::span<const double> b,
                               std::span<double> scratch) const noexcept {
  assert(static_cast<index_t>(scratch.size()) == rows_);
  multiply(x, scratch);
  // NaN-propagating max: a poisoned row must surface as a NaN residual,
  // not vanish under std::max's NaN-discarding comparison.
  double m = 0.0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const double a = std::abs(b[i] - scratch[i]);
    if (a > m || std::isnan(a)) m = a;
  }
  return m;
}

}  // namespace tags::linalg
