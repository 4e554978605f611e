// Symmetric permutations of sparse matrices. The NCD solver carries its
// block permutation in this form.
//
// Orderings are deterministic: ties break on state index, never on
// traversal or thread interleaving, so permutations — and everything solved
// through them — are reproducible bit for bit.
#pragma once

#include <span>
#include <vector>

#include "linalg/csr.hpp"

namespace tags::linalg {

/// A permutation of 0..n-1 as its new-to-old map: position k of the
/// permuted system holds original index order[k].
struct Permutation {
  std::vector<index_t> order;  // new position -> original index

  [[nodiscard]] std::size_t size() const noexcept { return order.size(); }

  /// The old-to-new map: inverse()[order[k]] == k.
  [[nodiscard]] std::vector<index_t> inverse() const;
};

/// B = P A P^T under the new-to-old convention: B(i, j) = A(order[i], order[j]).
[[nodiscard]] CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& p);

/// y[k] = x[order[k]] — carry a vector into the permuted system.
void permute_vector(const Permutation& p, std::span<const double> x, std::span<double> y);

/// y[order[k]] = x[k] — carry a permuted-system vector (e.g. π) back.
void unpermute_vector(const Permutation& p, std::span<const double> x, std::span<double> y);

}  // namespace tags::linalg
