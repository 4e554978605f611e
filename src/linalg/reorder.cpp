#include "linalg/reorder.hpp"

#include <algorithm>
#include <cassert>

#include "linalg/coo.hpp"

namespace tags::linalg {

std::vector<index_t> Permutation::inverse() const {
  std::vector<index_t> inv(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    inv[static_cast<std::size_t>(order[k])] = static_cast<index_t>(k);
  return inv;
}

index_t LevelDecomposition::max_block() const noexcept {
  index_t mx = 0;
  for (std::size_t l = 0; l + 1 < level_ptr.size(); ++l)
    mx = std::max(mx, level_ptr[l + 1] - level_ptr[l]);
  return mx;
}

LevelDecomposition bfs_levels(const CsrMatrix& q) {
  assert(q.rows() == q.cols());
  const index_t n = q.rows();
  const CsrMatrix& qt = q.transpose_cache();
  LevelDecomposition d;
  d.level_of.assign(static_cast<std::size_t>(n), -1);
  d.perm.order.reserve(static_cast<std::size_t>(n));
  d.level_ptr.push_back(0);
  if (n == 0) {
    d.connected = true;
    return d;
  }
  std::vector<index_t> frontier{0}, next;
  d.level_of[0] = 0;
  int lev = 0;
  while (!frontier.empty()) {
    // Sorted frontier: deterministic in-level order, independent of the
    // order in which neighbours were discovered.
    std::sort(frontier.begin(), frontier.end());
    for (const index_t u : frontier) d.perm.order.push_back(u);
    d.level_ptr.push_back(static_cast<index_t>(d.perm.order.size()));
    next.clear();
    for (const index_t u : frontier) {
      for (const index_t v : q.row_cols(u)) {
        if (d.level_of[static_cast<std::size_t>(v)] < 0) {
          d.level_of[static_cast<std::size_t>(v)] = lev + 1;
          next.push_back(v);
        }
      }
      for (const index_t v : qt.row_cols(u)) {
        if (d.level_of[static_cast<std::size_t>(v)] < 0) {
          d.level_of[static_cast<std::size_t>(v)] = lev + 1;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    ++lev;
  }
  d.connected = d.perm.order.size() == static_cast<std::size_t>(n);
  return d;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& p) {
  assert(a.rows() == a.cols());
  assert(p.size() == static_cast<std::size_t>(a.rows()));
  const std::vector<index_t> inv = p.inverse();
  CooMatrix coo(a.rows(), a.cols());
  coo.reserve(a.nnz());
  for (index_t ni = 0; ni < a.rows(); ++ni) {
    const index_t oi = p.order[static_cast<std::size_t>(ni)];
    const auto cs = a.row_cols(oi);
    const auto vs = a.row_vals(oi);
    for (std::size_t k = 0; k < cs.size(); ++k)
      coo.add(ni, inv[static_cast<std::size_t>(cs[k])], vs[k]);
  }
  return CsrMatrix::from_coo(coo);
}

void permute_vector(const Permutation& p, std::span<const double> x, std::span<double> y) {
  assert(x.size() == p.size() && y.size() == p.size());
  for (std::size_t k = 0; k < p.size(); ++k)
    y[k] = x[static_cast<std::size_t>(p.order[k])];
}

void unpermute_vector(const Permutation& p, std::span<const double> x, std::span<double> y) {
  assert(x.size() == p.size() && y.size() == p.size());
  for (std::size_t k = 0; k < p.size(); ++k)
    y[static_cast<std::size_t>(p.order[k])] = x[k];
}

}  // namespace tags::linalg
