// Permutation properties: round trips are exact and symmetric permutation
// matches its definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "ctmc/builder.hpp"
#include "linalg/reorder.hpp"

namespace {

using namespace tags;
using linalg::CsrMatrix;
using linalg::index_t;

/// Random chain guaranteed irreducible: a Hamiltonian cycle plus random
/// extra edges with random rates (same construction as the random-chain
/// solver tests).
ctmc::Ctmc random_chain(unsigned n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> rate(0.1, 20.0);
  std::uniform_int_distribution<unsigned> pick(0, n - 1);
  ctmc::CtmcBuilder b;
  for (unsigned i = 0; i < n; ++i) b.add(i, (i + 1) % n, rate(gen));
  for (unsigned e = 0; e < 3 * n; ++e) {
    const unsigned from = pick(gen);
    const unsigned to = pick(gen);
    if (from == to) continue;
    b.add(from, to, rate(gen));
  }
  return b.build();
}

/// A random (non-identity, in general) permutation of 0..n-1.
linalg::Permutation random_permutation(index_t n, unsigned seed) {
  linalg::Permutation p;
  p.order.resize(static_cast<std::size_t>(n));
  std::iota(p.order.begin(), p.order.end(), index_t{0});
  std::mt19937 gen(seed);
  std::shuffle(p.order.begin(), p.order.end(), gen);
  return p;
}

TEST(Permutation, InverseComposesToIdentity) {
  const auto p = random_permutation(97, 7);
  const auto inv = p.inverse();
  for (index_t k = 0; k < 97; ++k) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p.order[static_cast<std::size_t>(k)])], k);
  }
}

TEST(Permutation, VectorRoundTripIsExact) {
  const index_t n = 211;
  const auto p = random_permutation(n, 11);
  std::mt19937 gen(13);
  std::uniform_real_distribution<double> val(-5.0, 5.0);
  linalg::Vec x(static_cast<std::size_t>(n));
  for (double& v : x) v = val(gen);
  linalg::Vec mid(x.size()), back(x.size());
  linalg::permute_vector(p, x, mid);
  linalg::unpermute_vector(p, mid, back);
  // Round trip moves doubles, never touches them: exact equality.
  EXPECT_EQ(x, back);
}

TEST(Permutation, SymmetricPermuteMatchesDefinition) {
  const auto chain = random_chain(40, 21);
  const CsrMatrix& a = chain.generator();
  const auto p = random_permutation(a.rows(), 23);
  const CsrMatrix b = linalg::permute_symmetric(a, p);
  const auto ad = a.to_dense();
  const auto bd = b.to_dense();
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(bd(i, j), ad(p.order[static_cast<std::size_t>(i)],
                             p.order[static_cast<std::size_t>(j)]))
          << i << "," << j;
    }
  }
}

}  // namespace
