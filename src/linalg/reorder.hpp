// Symmetric permutations of sparse matrices and BFS level sets. The
// structured steady-state path uses the BFS level decomposition to expose
// the block-tridiagonal (QBD) shape of bounded-queue generators, and the
// NCD solver carries its block permutation in the same form.
//
// All orderings are deterministic: ties break on state index, never on
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

/// BFS level decomposition over the *symmetrised* pattern of q (an edge in
/// either direction connects two states), started from state 0. Because the
/// traversal is undirected, |level(u) - level(v)| <= 1 for every edge: the
/// permuted matrix is block tridiagonal by construction whenever the chain
/// is connected. Levels are contiguous in `perm`, states sorted ascending
/// within each level.
struct LevelDecomposition {
  Permutation perm;
  std::vector<index_t> level_ptr;  // level l occupies [level_ptr[l], level_ptr[l+1])
  std::vector<int> level_of;       // per original state; -1 if unreachable
  bool connected = false;          // every state reached from state 0

  [[nodiscard]] std::size_t levels() const noexcept {
    return level_ptr.empty() ? 0 : level_ptr.size() - 1;
  }
  /// Largest level size — the dense block dimension a QBD solve pays for.
  [[nodiscard]] index_t max_block() const noexcept;
};

[[nodiscard]] LevelDecomposition bfs_levels(const CsrMatrix& q);

/// B = P A P^T under the new-to-old convention: B(i, j) = A(order[i], order[j]).
[[nodiscard]] CsrMatrix permute_symmetric(const CsrMatrix& a, const Permutation& p);

/// y[k] = x[order[k]] — carry a vector into the permuted system.
void permute_vector(const Permutation& p, std::span<const double> x, std::span<double> y);

/// y[order[k]] = x[k] — carry a permuted-system vector (e.g. π) back.
void unpermute_vector(const Permutation& p, std::span<const double> x, std::span<double> y);

}  // namespace tags::linalg
