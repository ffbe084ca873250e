#include "sat/cardinality.hpp"

#include <algorithm>
#include <cassert>

namespace tp::sat {

namespace {

// Recursive totalizer build over lits[lo, hi).
std::vector<Lit> totalizer_build(SolverInterface& s, const std::vector<Lit>& lits,
                                 std::size_t lo, std::size_t hi, int cap,
                                 bool& ok) {
  if (hi - lo == 1) return {lits[lo]};
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::vector<Lit> a = totalizer_build(s, lits, lo, mid, cap, ok);
  const std::vector<Lit> b = totalizer_build(s, lits, mid, hi, cap, ok);

  const int p = static_cast<int>(a.size());
  const int q = static_cast<int>(b.size());
  const int size = std::min(p + q, cap);
  std::vector<Lit> r;
  r.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) r.push_back(mk_lit(s.new_var()));

  auto add = [&](std::vector<Lit> c) { ok = s.add_clause(std::move(c)) && ok; };

  for (int alpha = 0; alpha <= p; ++alpha) {
    for (int beta = 0; beta <= q; ++beta) {
      const int sigma = alpha + beta;
      if (sigma >= 1) {
        // >= direction: alpha of a and beta of b true => at least
        // min(sigma, cap) total (saturating at the cap).
        const int target = std::min(sigma, cap);
        std::vector<Lit> c;
        if (alpha > 0) c.push_back(~a[static_cast<std::size_t>(alpha - 1)]);
        if (beta > 0) c.push_back(~b[static_cast<std::size_t>(beta - 1)]);
        c.push_back(r[static_cast<std::size_t>(target - 1)]);
        add(std::move(c));
      }
      if (sigma + 1 <= size) {
        // <= direction: at most alpha of a and at most beta of b true =>
        // fewer than sigma+1 total.
        std::vector<Lit> c;
        if (alpha < p) c.push_back(a[static_cast<std::size_t>(alpha)]);
        if (beta < q) c.push_back(b[static_cast<std::size_t>(beta)]);
        c.push_back(~r[static_cast<std::size_t>(sigma)]);
        add(std::move(c));
      }
    }
  }
  return r;
}

// The unary outputs of `enc` over `lits`, capped at `cap`.
std::vector<Lit> outputs(SolverInterface& s, const std::vector<Lit>& lits, int cap,
                         CardEncoding enc) {
  return enc == CardEncoding::SequentialCounter ? sequential_outputs(s, lits, cap)
                                                : totalizer_outputs(s, lits, cap);
}

}  // namespace

std::vector<Lit> sequential_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                    int cap) {
  assert(cap >= 1);
  if (lits.empty()) return {};
  // prev is row i-1 of the registers; r[i-1][j] for j >= prev.size() is
  // constant false and never built, and row 0 is the first input itself.
  std::vector<Lit> prev = {lits[0]};
  std::vector<Lit> row;
  for (std::size_t i = 1; i < lits.size(); ++i) {
    const Lit x = lits[i];
    row.resize(std::min(static_cast<std::size_t>(cap), i + 1));
    for (std::size_t j = 0; j < row.size(); ++j) {
      // r[i][j] <=> r[i-1][j] | (x & r[i-1][j-1]), with r[i-1][-1] true.
      const Lit r = mk_lit(solver.new_var());
      row[j] = r;
      const bool had = j < prev.size();
      if (had) {
        solver.add_clause({~prev[j], r});
        solver.add_clause({~r, prev[j], x});
        if (j > 0) solver.add_clause({~r, prev[j], prev[j - 1]});
      } else {
        solver.add_clause({~r, x});
        solver.add_clause({~r, prev[j - 1]});  // j == i >= 1 here
      }
      if (j == 0) {
        solver.add_clause({~x, r});
      } else {
        solver.add_clause({~x, ~prev[j - 1], r});
      }
    }
    std::swap(prev, row);
  }
  return prev;
}

std::vector<Lit> totalizer_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                   int cap) {
  assert(cap >= 1);
  if (lits.empty()) return {};
  bool ok = true;
  return totalizer_build(solver, lits, 0, lits.size(), cap, ok);
}

bool encode_at_most(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                    CardEncoding enc) {
  const int n = static_cast<int>(lits.size());
  if (k < 0) return solver.add_clause({});  // impossible
  if (k >= n) return solver.okay();
  if (k == 0) {
    bool ok = true;
    for (Lit l : lits) ok = solver.add_clause({~l}) && ok;
    return ok;
  }
  const std::vector<Lit> outs = outputs(solver, lits, k + 1, enc);
  return solver.add_clause({~outs[static_cast<std::size_t>(k)]});
}

bool encode_at_least(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                     CardEncoding enc) {
  const int n = static_cast<int>(lits.size());
  if (k <= 0) return solver.okay();
  if (k > n) return solver.add_clause({});  // impossible
  const std::vector<Lit> outs = outputs(solver, lits, k, enc);
  return solver.add_clause({outs[static_cast<std::size_t>(k - 1)]});
}

bool encode_exactly(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                    CardEncoding enc) {
  const int n = static_cast<int>(lits.size());
  if (k < 0 || k > n) return solver.add_clause({});  // impossible
  if (k == 0) return encode_at_most(solver, lits, 0, enc);
  // One counter serves both bounds: o[k-1] (at least k) and ¬o[k] (at
  // most k); o[k] exists only when k < n.
  const std::vector<Lit> outs = outputs(solver, lits, k + 1, enc);
  bool ok = solver.add_clause({outs[static_cast<std::size_t>(k - 1)]});
  if (k < n) ok = solver.add_clause({~outs[static_cast<std::size_t>(k)]}) && ok;
  return ok;
}

}  // namespace tp::sat
