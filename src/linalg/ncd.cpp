#include "linalg/ncd.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/sweep_kernel.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/obs.hpp"

namespace tags::linalg {

namespace {

/// Largest exit rate (-diagonal) of the generator.
double exit_scale(const CsrMatrix& q) {
  double scale = 0.0;
  for (index_t i = 0; i < q.rows(); ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] == i) scale = std::max(scale, -vs[k]);
    }
  }
  return scale;
}

}  // namespace

void evaluate_ncd_gate(const CsrMatrix& q, NcdPartition& p, const NcdOptions& opts) {
  const index_t n = q.rows();
  double scale = 0.0;
  double worst = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const auto cs = q.row_cols(i);
    const auto vs = q.row_vals(i);
    const index_t bi = p.block_of[static_cast<std::size_t>(i)];
    double inter = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (cs[k] == i) {
        scale = std::max(scale, -vs[k]);
      } else if (p.block_of[static_cast<std::size_t>(cs[k])] != bi) {
        inter += vs[k];
      }
    }
    worst = std::max(worst, inter);
  }
  p.scale = scale;
  p.coupling = scale > 0.0 ? worst / scale : 0.0;

  const auto blocks = static_cast<index_t>(p.n_blocks());
  p.profitable = false;
  if (n < opts.min_states) {
    p.gate_reason = "small-chain";
  } else if (!p.decomposable || blocks < 2) {
    p.gate_reason = "one-block";
  } else if (blocks < opts.min_blocks) {
    p.gate_reason = "too-few-blocks";
  } else if (blocks > opts.max_blocks) {
    p.gate_reason = "too-many-blocks";
  } else if (static_cast<double>(p.max_block) >
             opts.max_block_fraction * static_cast<double>(n)) {
    p.gate_reason = "dominant-block";
  } else if (p.coupling > opts.max_coupling) {
    p.gate_reason = "strong-coupling";
  } else {
    p.profitable = true;
    p.gate_reason = "";
  }
}

NcdPartition detect_ncd(const CsrMatrix& q, const NcdOptions& opts) {
  assert(q.rows() == q.cols());
  obs::Span span("ncd/detect");
  const index_t n = q.rows();
  span.attr("n", static_cast<double>(n));

  NcdPartition p;
  p.block_of.assign(static_cast<std::size_t>(n), index_t{-1});
  if (n == 0) {
    p.gate_reason = "empty";
    return p;
  }

  // Strong-edge components over the symmetrised pattern: an edge in
  // either direction with rate >= epsilon * scale connects two states.
  // Seeds scan ascending, so block ids are ordered by smallest member and
  // the traversal is deterministic.
  const double thresh = opts.epsilon * exit_scale(q);
  const CsrMatrix& qt = q.transpose_cache();
  std::vector<index_t> stack;
  index_t blocks = 0;
  for (index_t seed = 0; seed < n; ++seed) {
    if (p.block_of[static_cast<std::size_t>(seed)] >= 0) continue;
    p.block_of[static_cast<std::size_t>(seed)] = blocks;
    stack.push_back(seed);
    while (!stack.empty()) {
      const index_t u = stack.back();
      stack.pop_back();
      const auto expand = [&](const CsrMatrix& m) {
        const auto cs = m.row_cols(u);
        const auto vs = m.row_vals(u);
        for (std::size_t k = 0; k < cs.size(); ++k) {
          const index_t v = cs[k];
          if (v == u || vs[k] < thresh) continue;
          auto& tag = p.block_of[static_cast<std::size_t>(v)];
          if (tag < 0) {
            tag = blocks;
            stack.push_back(v);
          }
        }
      };
      expand(q);
      expand(qt);
    }
    ++blocks;
  }

  // Blocks contiguous in the permutation, states ascending within each —
  // a counting sort by (block, original index).
  std::vector<index_t> sizes(static_cast<std::size_t>(blocks), 0);
  for (index_t i = 0; i < n; ++i) ++sizes[static_cast<std::size_t>(p.block_of[static_cast<std::size_t>(i)])];
  p.block_ptr.assign(static_cast<std::size_t>(blocks) + 1, 0);
  for (index_t b = 0; b < blocks; ++b) {
    p.block_ptr[static_cast<std::size_t>(b) + 1] =
        p.block_ptr[static_cast<std::size_t>(b)] + sizes[static_cast<std::size_t>(b)];
    p.max_block = std::max(p.max_block, sizes[static_cast<std::size_t>(b)]);
  }
  p.perm.order.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(p.block_ptr.begin(), p.block_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    const auto b = static_cast<std::size_t>(p.block_of[static_cast<std::size_t>(i)]);
    p.perm.order[static_cast<std::size_t>(cursor[b]++)] = i;
  }
  p.decomposable = blocks >= 2;

  evaluate_ncd_gate(q, p, opts);
  obs::count("ncd.partitions_built");
  span.attr("blocks", static_cast<double>(blocks));
  span.attr("max_block", static_cast<double>(p.max_block));
  span.attr("coupling", p.coupling);
  span.attr("profitable", p.profitable ? 1.0 : 0.0);
  return p;
}

const NcdPartition& NcdPartitionCache::partition(const CsrMatrix& q, const NcdOptions& opts) {
  if (valid_ && rows_ == q.rows() && nnz_ == q.nnz() && epsilon_ == opts.epsilon) {
    // Same frozen pattern, possibly rebound values: keep the partition,
    // refresh the gate verdict.
    obs::count("ncd.cache.hits");
    evaluate_ncd_gate(q, part_, opts);
    return part_;
  }
  if (valid_) obs::count("ncd.cache.invalidated");
  part_ = detect_ncd(q, opts);
  rows_ = q.rows();
  nnz_ = q.nnz();
  epsilon_ = opts.epsilon;
  valid_ = true;
  return part_;
}

NcdSolveResult ncd_steady_state(const CsrMatrix& q, const NcdPartition& p,
                                const NcdSolveOptions& opts) {
  NcdSolveResult res;
  const index_t n = q.rows();
  const auto nu = static_cast<std::size_t>(n);
  const auto blocks = static_cast<index_t>(p.n_blocks());
  if (n == 0 || blocks < 2 || p.perm.order.size() != nu) return res;

  obs::Span span("ncd/iterate");
  span.attr("n", static_cast<double>(n));
  span.attr("blocks", static_cast<double>(blocks));

  // All iteration state lives in the permuted system (blocks contiguous);
  // pi is carried back to original order at the end. The permuted copy is
  // O(nnz) — noise next to a single sweep, and it keeps every inner loop a
  // contiguous range. The sweeps run on Q^T (inflow form), the same
  // orientation the flat iterative chain solves.
  const CsrMatrix qp = permute_symmetric(q, p.perm);
  const CsrMatrix& qtp = qp.transpose_cache();
  const Vec diag = qtp.diagonal();

  // Shared zero-diagonal bailout: an absorbing state would poison the
  // censored sweeps with a divide by zero.
  if (detail::find_zero_diagonal(diag, 0, n) >= 0) {
    obs::count("ncd.zero_diagonal_bailouts");
    return res;
  }

  // Block id per PERMUTED index — needed to bin columns during aggregation.
  std::vector<index_t> blk(nu);
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t i = p.block_ptr[static_cast<std::size_t>(b)];
         i < p.block_ptr[static_cast<std::size_t>(b) + 1]; ++i) {
      blk[static_cast<std::size_t>(i)] = b;
    }
  }

  Vec x(nu, 1.0 / static_cast<double>(n));
  if (opts.initial_guess && opts.initial_guess->size() == nu) {
    Vec guess = *opts.initial_guess;
    for (double& v : guess) {
      if (!std::isfinite(v) || v < 0.0) v = 0.0;
    }
    if (normalize_l1(guess) > 0.0) permute_vector(p.perm, guess, x);
  }

  const auto nb = static_cast<std::size_t>(blocks);
  Vec w(nu);            // within-block conditional distributions
  Vec rhs(nb);          // coarse right-hand side (normalization row)
  const Vec zero(nu, 0.0);
  Vec scratch(nu);
  const int inner = std::max(1, opts.inner_sweeps);

  for (res.outer = 0; res.outer < opts.max_outer; ++res.outer) {
    // --- Aggregation: coarse coupling chain from the current iterate. ---
    {
      obs::Span agg("ncd/aggregate");
      // w = x conditioned on its block (uniform where a block lost all
      // mass — keeps the coarse matrix a proper generator).
      for (index_t b = 0; b < blocks; ++b) {
        const index_t lo = p.block_ptr[static_cast<std::size_t>(b)];
        const index_t hi = p.block_ptr[static_cast<std::size_t>(b) + 1];
        double mass = 0.0;
        for (index_t i = lo; i < hi; ++i) mass += x[static_cast<std::size_t>(i)];
        if (mass > 0.0) {
          for (index_t i = lo; i < hi; ++i) w[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] / mass;
        } else {
          const double u = 1.0 / static_cast<double>(hi - lo);
          for (index_t i = lo; i < hi; ++i) w[static_cast<std::size_t>(i)] = u;
        }
      }
      // A[I][J] = sum_{i in I} w_i * sum_{j in J} qp_ij is a generator on
      // blocks; build A^T directly and solve xi A = 0 the way the dense
      // steady-state solver does: replace the last equation of A^T xi = 0
      // with the normalization sum(xi) = 1.
      DenseMatrix at(nb, nb);
      for (index_t i = 0; i < n; ++i) {
        const double wi = w[static_cast<std::size_t>(i)];
        const auto bi = static_cast<std::size_t>(blk[static_cast<std::size_t>(i)]);
        const auto cs = qp.row_cols(i);
        const auto vs = qp.row_vals(i);
        for (std::size_t k = 0; k < cs.size(); ++k) {
          at(static_cast<std::size_t>(blk[static_cast<std::size_t>(cs[k])]), bi) += wi * vs[k];
        }
      }
      for (std::size_t j = 0; j < nb; ++j) at(nb - 1, j) = 1.0;
      const LuFactorization lu = lu_factor(std::move(at));
      if (lu.singular()) {
        obs::count("ncd.coarse_singular");
        break;  // bail unconverged; the kAuto chain escalates
      }
      std::fill(rhs.begin(), rhs.end(), 0.0);
      rhs[nb - 1] = 1.0;
      Vec xi = lu.solve(rhs);
      for (double& v : xi) {
        if (!std::isfinite(v) || v < 0.0) v = 0.0;
      }
      if (normalize_l1(xi) <= 0.0) break;
      // Redistribute: block masses from the coarse solve, shapes from w.
      for (index_t i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] =
            xi[static_cast<std::size_t>(blk[static_cast<std::size_t>(i)])] * w[static_cast<std::size_t>(i)];
      }
    }

    // --- Disaggregation: censored Gauss-Seidel per block. Blocks sweep in
    // ascending order; boundary inflow reads the latest global x, so later
    // blocks already see this pass's corrections (block Gauss-Seidel, not
    // Jacobi). Solving Q^T x = 0 censored to the block is bit-for-bit the
    // flat solver's plain Gauss-Seidel row update. ---
    {
      obs::Span dis("ncd/disaggregate");
      for (index_t b = 0; b < blocks; ++b) {
        const index_t lo = p.block_ptr[static_cast<std::size_t>(b)];
        const index_t hi = p.block_ptr[static_cast<std::size_t>(b) + 1];
        for (int s = 0; s < inner; ++s) {
          (void)detail::gs_sweep_range(qtp, zero, x, diag, lo, hi);
        }
        res.sweeps += inner;
      }
    }

    if (normalize_l1(x) <= 0.0) break;
    qtp.multiply(x, scratch);  // (Q^T x)_i = (x Q)_i — the true balance residual
    res.residual = nrm_inf(scratch);
    obs::trace_iteration("ncd-ad", res.outer, res.residual);
    if (res.residual <= opts.tol) {
      res.converged = true;
      ++res.outer;
      break;
    }
  }

  obs::count("ncd.sweeps", static_cast<std::uint64_t>(res.sweeps));
  res.pi.assign(nu, 0.0);
  unpermute_vector(p.perm, x, res.pi);
  span.attr("outer", static_cast<double>(res.outer));
  span.attr("residual", res.residual);
  span.attr("converged", res.converged ? 1.0 : 0.0);
  return res;
}

}  // namespace tags::linalg
