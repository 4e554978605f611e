#include "ctmc/qbd.hpp"

#include <algorithm>
#include <cassert>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace tags::ctmc {

using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::index_t;
using linalg::Vec;

QbdStructure detect_qbd(const CsrMatrix& q, const QbdOptions& opts) {
  obs::Span span("qbd/detect");
  span.attr("n", static_cast<double>(q.rows()));
  QbdStructure s;
  s.levels = linalg::bfs_levels(q);
  s.max_block = s.levels.max_block();
  for (std::size_t l = 0; l < s.levels.levels(); ++l) {
    const std::size_t m = static_cast<std::size_t>(s.levels.level_ptr[l + 1] -
                                                   s.levels.level_ptr[l]);
    s.factor_doubles += m * m;
  }
  // Undirected BFS levels differ by at most one across any edge, so the
  // permuted matrix is block tridiagonal exactly when every state was
  // reached (the solver still re-checks edge by edge, defensively).
  s.block_tridiagonal = s.levels.connected && q.rows() > 0;
  const index_t gate = opts.max_block > 0 ? opts.max_block : QbdOptions{}.max_block;
  s.profitable = s.block_tridiagonal && s.max_block <= gate &&
                 s.factor_doubles <= opts.max_factor_doubles;
  if (!s.block_tridiagonal) {
    s.gate_reason = "not-block-tridiagonal";
  } else if (s.max_block > gate) {
    s.gate_reason = "level-too-wide";
  } else if (s.factor_doubles > opts.max_factor_doubles) {
    s.gate_reason = "factor-storage";
  }
  span.attr("levels", static_cast<double>(s.levels.levels()));
  span.attr("max_block", static_cast<double>(s.max_block));
  span.attr("profitable", s.profitable ? 1.0 : 0.0);
  return s;
}

namespace {

struct Trip {
  index_t r, c;
  double v;
};

}  // namespace

bool qbd_steady_state(const CsrMatrix& q, const QbdStructure& s, Vec& pi_out) {
  if (!s.block_tridiagonal) return false;
  const linalg::LevelDecomposition& L = s.levels;
  const index_t n = q.rows();
  if (n == 0 || L.perm.order.size() != static_cast<std::size_t>(n)) return false;
  const std::size_t nlev = L.levels();
  const std::vector<index_t> pos = L.perm.inverse();
  const auto bs = [&](std::size_t l) {
    return static_cast<std::size_t>(L.level_ptr[l + 1] - L.level_ptr[l]);
  };

  // Split the generator into per-level triplet blocks in local coordinates:
  // A[l] within level l, B[l] level l -> l+1, C[l] level l -> l-1.
  std::vector<std::vector<Trip>> A(nlev), B(nlev), C(nlev);
  std::vector<linalg::LuFactorization> facts(nlev);
  {
  obs::Span factor_span("qbd/factor");
  factor_span.attr("levels", static_cast<double>(nlev));
  factor_span.attr("max_block", static_cast<double>(s.max_block));
  for (index_t u = 0; u < n; ++u) {
    const int l = L.level_of[static_cast<std::size_t>(u)];
    const index_t lr = pos[static_cast<std::size_t>(u)] - L.level_ptr[static_cast<std::size_t>(l)];
    const auto cs = q.row_cols(u);
    const auto vs = q.row_vals(u);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const int lc = L.level_of[static_cast<std::size_t>(cs[k])];
      const index_t cc =
          pos[static_cast<std::size_t>(cs[k])] - L.level_ptr[static_cast<std::size_t>(lc)];
      if (lc == l) {
        A[static_cast<std::size_t>(l)].push_back({lr, cc, vs[k]});
      } else if (lc == l + 1) {
        B[static_cast<std::size_t>(l)].push_back({lr, cc, vs[k]});
      } else if (lc == l - 1) {
        C[static_cast<std::size_t>(l)].push_back({lr, cc, vs[k]});
      } else {
        return false;  // an edge skips a level: not block tridiagonal
      }
    }
  }

  // Backward sweep: S_l = A_l - B_l X_{l+1} with X_l = S_l^{-1} C_l. The
  // LU of every S_l (l >= 1) is kept for the forward substitution; only
  // the current X survives the loop.
  DenseMatrix x_next;  // X_{l+1} while processing level l
  std::vector<index_t> nzcols;
  for (std::size_t l = nlev; l-- > 0;) {
    const std::size_t m = bs(l);
    DenseMatrix sl(m, m);
    for (const Trip& t : A[l])
      sl(static_cast<std::size_t>(t.r), static_cast<std::size_t>(t.c)) += t.v;
    if (l + 1 < nlev) {
      for (const Trip& t : B[l]) {
        const auto srow = sl.row(static_cast<std::size_t>(t.r));
        const auto xrow = x_next.row(static_cast<std::size_t>(t.c));
        for (std::size_t j = 0; j < m; ++j) srow[j] -= t.v * xrow[j];
      }
    }
    if (l == 0) {
      // pi_0 S_0 = 0 with one equation traded for sum(pi_0) = 1:
      // solve M x = e_last where M = S_0^T with its last row set to ones.
      DenseMatrix mt(m, m);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < m; ++j) mt(j, i) = sl(i, j);
      for (std::size_t j = 0; j < m; ++j) mt(m - 1, j) = 1.0;
      facts[0] = linalg::lu_factor(std::move(mt));
      if (facts[0].singular()) return false;
      break;
    }
    facts[l] = linalg::lu_factor(std::move(sl));
    if (facts[l].singular()) return false;
    // X_l = S_l^{-1} C_l, solved only for the nonzero columns of C_l,
    // packed dense so the multi-RHS substitution vectorises across them.
    const std::size_t mprev = bs(l - 1);
    nzcols.assign(mprev, -1);
    index_t nnz_cols = 0;
    for (const Trip& t : C[l]) {
      if (nzcols[static_cast<std::size_t>(t.c)] < 0) nzcols[static_cast<std::size_t>(t.c)] = nnz_cols++;
    }
    DenseMatrix packed(m, static_cast<std::size_t>(nnz_cols));
    for (const Trip& t : C[l])
      packed(static_cast<std::size_t>(t.r),
             static_cast<std::size_t>(nzcols[static_cast<std::size_t>(t.c)])) += t.v;
    facts[l].solve_in_place_multi(packed);
    DenseMatrix x(m, mprev);
    for (std::size_t j = 0; j < mprev; ++j) {
      if (nzcols[j] < 0) continue;
      const std::size_t pj = static_cast<std::size_t>(nzcols[j]);
      for (std::size_t i = 0; i < m; ++i) x(i, j) = packed(i, pj);
    }
    x_next = std::move(x);
  }
  }  // qbd/factor

  obs::Span substitute_span("qbd/substitute");
  substitute_span.attr("levels", static_cast<double>(nlev));
  const std::size_t m0 = bs(0);
  Vec rhs(m0, 0.0);
  rhs[m0 - 1] = 1.0;
  Vec pil = facts[0].solve(rhs);

  // Forward: pi_{l+1} = -pi_l B_l S_{l+1}^{-1}, i.e. solve
  // S_{l+1}^T z = -(B_l^T pi_l).
  Vec pi(static_cast<std::size_t>(n), 0.0);
  const auto scatter = [&](std::size_t l, const Vec& block) {
    for (std::size_t i = 0; i < block.size(); ++i)
      pi[static_cast<std::size_t>(
          L.perm.order[static_cast<std::size_t>(L.level_ptr[l]) + i])] = block[i];
  };
  scatter(0, pil);
  for (std::size_t l = 0; l + 1 < nlev; ++l) {
    Vec w(bs(l + 1), 0.0);
    for (const Trip& t : B[l])
      w[static_cast<std::size_t>(t.c)] -= t.v * pil[static_cast<std::size_t>(t.r)];
    pil = facts[l + 1].solve_transpose(w);
    scatter(l + 1, pil);
  }
  for (double& v : pi) v = std::max(v, 0.0);
  if (linalg::normalize_l1(pi) <= 0.0) return false;
  pi_out = std::move(pi);
  return true;
}

QbdPlan make_qbd_plan(const CsrMatrix& q, const QbdStructure& s) {
  QbdPlan plan;
  if (!s.block_tridiagonal) return plan;
  const linalg::LevelDecomposition& L = s.levels;
  const index_t n = q.rows();
  if (n == 0 || L.perm.order.size() != static_cast<std::size_t>(n)) return plan;
  const std::size_t nlev = L.levels();
  const std::vector<index_t> pos = L.perm.inverse();
  plan.A.resize(nlev);
  plan.B.resize(nlev);
  plan.C.resize(nlev);
  // Same traversal as the scalar solver's triplet build: rows ascending,
  // entries within a row ascending. vidx is the entry's global offset into
  // the (contiguous) CSR value array.
  const double* vbase = n > 0 ? q.row_vals(0).data() : nullptr;
  for (index_t u = 0; u < n; ++u) {
    const int l = L.level_of[static_cast<std::size_t>(u)];
    const index_t lr =
        pos[static_cast<std::size_t>(u)] - L.level_ptr[static_cast<std::size_t>(l)];
    const auto cs = q.row_cols(u);
    const auto vs = q.row_vals(u);
    const std::size_t base = static_cast<std::size_t>(vs.data() - vbase);
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const int lc = L.level_of[static_cast<std::size_t>(cs[k])];
      const index_t cc = pos[static_cast<std::size_t>(cs[k])] -
                         L.level_ptr[static_cast<std::size_t>(lc)];
      if (lc == l) {
        plan.A[static_cast<std::size_t>(l)].push_back({base + k, lr, cc});
      } else if (lc == l + 1) {
        plan.B[static_cast<std::size_t>(l)].push_back({base + k, lr, cc});
      } else if (lc == l - 1) {
        plan.C[static_cast<std::size_t>(l)].push_back({base + k, lr, cc});
      } else {
        return plan;  // ok stays false
      }
    }
  }
  // Pre-assign packed columns for each level's C block in first-appearance
  // order — identical to the scalar solver's per-call assignment, but the
  // assignment depends only on the pattern so it is shared by every lane.
  plan.nzcols.resize(nlev);
  plan.nnz_cols.assign(nlev, 0);
  for (std::size_t l = 1; l < nlev; ++l) {
    const std::size_t mprev =
        static_cast<std::size_t>(L.level_ptr[l] - L.level_ptr[l - 1]);
    plan.nzcols[l].assign(mprev, -1);
    index_t next = 0;
    for (const QbdPlan::Entry& e : plan.C[l]) {
      if (plan.nzcols[l][static_cast<std::size_t>(e.c)] < 0)
        plan.nzcols[l][static_cast<std::size_t>(e.c)] = next++;
    }
    plan.nnz_cols[l] = next;
  }
  plan.ok = true;
  return plan;
}

std::vector<unsigned char> qbd_steady_state_batch(const QbdStructure& s,
                                                  const QbdPlan& plan,
                                                  const linalg::CsrValueBatch& vals,
                                                  std::vector<Vec>& pis) {
  const std::size_t w = vals.width();
  std::vector<unsigned char> ok(w, 0);
  if (!plan.ok || !s.block_tridiagonal || w == 0) return ok;
  const linalg::LevelDecomposition& L = s.levels;
  const index_t n = vals.pattern().rows();
  const std::size_t nlev = L.levels();
  const auto bs = [&](std::size_t l) {
    return static_cast<std::size_t>(L.level_ptr[l + 1] - L.level_ptr[l]);
  };
  const double* v = vals.values().data();
  if (pis.size() != w) pis.resize(w);
  std::fill(ok.begin(), ok.end(), 1);

  // Backward sweep, all lanes in lockstep: assemble S_l lane-interleaved,
  // factor with the batched LU, solve the packed multi-RHS X system. Every
  // per-lane arithmetic sequence (assembly += order, B-coupling update
  // order, substitutions) matches the scalar solver exactly.
  std::vector<linalg::BatchLuFactorization> facts(nlev);
  {
    obs::Span factor_span("qbd/factor_batch");
    factor_span.attr("levels", static_cast<double>(nlev));
    factor_span.attr("max_block", static_cast<double>(s.max_block));
    factor_span.attr("width", static_cast<double>(w));
    std::vector<double> x_next;  // X_{l+1}: bs(l+1) x bs(l) x w
    std::vector<double> x_buf;   // reused backing store for the next X
    for (std::size_t l = nlev; l-- > 0;) {
      const std::size_t m = bs(l);
      std::vector<double> sl(m * m * w, 0.0);
      for (const QbdPlan::Entry& e : plan.A[l]) {
        double* d = sl.data() + (static_cast<std::size_t>(e.r) * m +
                                 static_cast<std::size_t>(e.c)) *
                                    w;
        const double* ev = v + e.vidx * w;
        for (std::size_t b = 0; b < w; ++b) d[b] += ev[b];
      }
      if (l + 1 < nlev) {
        double evl[16];
        for (const QbdPlan::Entry& e : plan.B[l]) {
          double* srow = sl.data() + static_cast<std::size_t>(e.r) * m * w;
          const double* xrow =
              x_next.data() + static_cast<std::size_t>(e.c) * m * w;
          // Stack copy of the invariant multiplier lane group: a bare
          // pointer into the value batch cannot be proven disjoint from
          // the S stores, and a per-j reload defeats the vectoriser.
          const double* ev = v + e.vidx * w;
          if (w <= 16) {
            for (std::size_t b = 0; b < w; ++b) evl[b] = ev[b];
            ev = evl;
          }
          for (std::size_t j = 0; j < m; ++j) {
            double* d = srow + j * w;
            const double* xr = xrow + j * w;
            for (std::size_t b = 0; b < w; ++b) d[b] -= ev[b] * xr[b];
          }
        }
      }
      if (l == 0) {
        std::vector<double> mt(m * m * w);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < m; ++j) {
            const double* srcv = sl.data() + (i * m + j) * w;
            double* dst = mt.data() + (j * m + i) * w;
            for (std::size_t b = 0; b < w; ++b) dst[b] = srcv[b];
          }
        double* last = mt.data() + (m - 1) * m * w;
        for (std::size_t j = 0; j < m * w; ++j) last[j] = 1.0;
        facts[0].factor_packed(m, w, std::move(mt));
        break;
      }
      facts[l].factor_packed(m, w, std::move(sl));
      const std::size_t mprev = bs(l - 1);
      const std::size_t nc = static_cast<std::size_t>(plan.nnz_cols[l]);
      std::vector<double> packed(m * nc * w, 0.0);
      for (const QbdPlan::Entry& e : plan.C[l]) {
        const std::size_t pj =
            static_cast<std::size_t>(plan.nzcols[l][static_cast<std::size_t>(e.c)]);
        double* d = packed.data() + (static_cast<std::size_t>(e.r) * nc + pj) * w;
        const double* ev = v + e.vidx * w;
        for (std::size_t b = 0; b < w; ++b) d[b] += ev[b];
      }
      facts[l].solve_in_place_multi_batch(packed, nc);
      // Unpack into the reused X buffer, i-outer so both the packed row
      // and the destination row stream contiguously (j-outer strides
      // nc*w per step and thrashes). Every entry is written — copies for
      // journalled columns, explicit zeros for the rest — so the buffer
      // never needs a fresh zero-filled allocation. The values are
      // identical to the scalar unpack, only the write order changes.
      x_buf.resize(m * mprev * w);
      const index_t* nz = plan.nzcols[l].data();
      for (std::size_t i = 0; i < m; ++i) {
        const double* prow = packed.data() + i * nc * w;
        double* xrow = x_buf.data() + i * mprev * w;
        for (std::size_t j = 0; j < mprev; ++j) {
          double* dst = xrow + j * w;
          if (nz[j] < 0) {
            for (std::size_t b = 0; b < w; ++b) dst[b] = 0.0;
          } else {
            const double* srcv = prow + static_cast<std::size_t>(nz[j]) * w;
            for (std::size_t b = 0; b < w; ++b) dst[b] = srcv[b];
          }
        }
      }
      std::swap(x_next, x_buf);
    }
  }
  // A singular Schur complement fails only its own lane (the scalar path
  // would have returned false there); the batched substitutions leave
  // garbage confined to singular lanes, which we never read back.
  for (std::size_t l = 0; l < nlev; ++l)
    for (std::size_t b = 0; b < w; ++b)
      if (facts[l].singular(b)) ok[b] = 0;

  obs::Span substitute_span("qbd/substitute_batch");
  substitute_span.attr("levels", static_cast<double>(nlev));
  substitute_span.attr("width", static_cast<double>(w));
  // All lanes run the forward pass in lockstep over lane-interleaved
  // blocks; per lane the arithmetic is solve_in_place / solve_transpose
  // verbatim, so each lane's bits equal the scalar forward pass. Failed
  // lanes ride along (their garbage stays in their own lanes) and are
  // simply never scattered out.
  const std::size_t m0 = bs(0);
  std::vector<Vec> pi_out(w);
  for (std::size_t b = 0; b < w; ++b)
    if (ok[b]) pi_out[b].assign(static_cast<std::size_t>(n), 0.0);
  const auto scatter = [&](std::size_t l, const std::vector<double>& block,
                           std::size_t bsz) {
    for (std::size_t b = 0; b < w; ++b) {
      if (!ok[b]) continue;
      Vec& pi = pi_out[b];
      for (std::size_t i = 0; i < bsz; ++i)
        pi[static_cast<std::size_t>(
            L.perm.order[static_cast<std::size_t>(L.level_ptr[l]) + i])] =
            block[i * w + b];
    }
  };
  std::vector<double> pil(m0 * w, 0.0);
  for (std::size_t b = 0; b < w; ++b) pil[(m0 - 1) * w + b] = 1.0;
  facts[0].solve_all_lanes(pil);
  scatter(0, pil, m0);
  for (std::size_t l = 0; l + 1 < nlev; ++l) {
    const std::size_t mn = bs(l + 1);
    std::vector<double> acc(mn * w, 0.0);
    for (const QbdPlan::Entry& e : plan.B[l]) {
      double* d = acc.data() + static_cast<std::size_t>(e.c) * w;
      const double* ev = v + e.vidx * w;
      const double* pr = pil.data() + static_cast<std::size_t>(e.r) * w;
      for (std::size_t b = 0; b < w; ++b) d[b] -= ev[b] * pr[b];
    }
    facts[l + 1].solve_transpose_all_lanes(acc);
    pil = std::move(acc);
    scatter(l + 1, pil, mn);
  }
  for (std::size_t b = 0; b < w; ++b) {
    if (!ok[b]) continue;
    Vec& pi = pi_out[b];
    for (double& x : pi) x = std::max(x, 0.0);
    if (linalg::normalize_l1(pi) <= 0.0) {
      ok[b] = 0;
      continue;
    }
    pis[b] = std::move(pi);
  }
  return ok;
}

}  // namespace tags::ctmc
