#include "linalg/reorder.hpp"

#include <cassert>

#include "linalg/coo.hpp"

namespace tags::linalg {

std::vector<index_t> Permutation::inverse() const {
  std::vector<index_t> inv(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    inv[static_cast<std::size_t>(order[k])] = static_cast<index_t>(k);
  return inv;
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
