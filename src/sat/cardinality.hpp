#pragma once
// cardinality.hpp — CNF encodings of cardinality constraints.
//
// The reconstruction query needs "exactly k of the m signal variables are
// true" (paper §4.2). A naive encoding needs C(m, k+1) + C(m, m-k+1)
// clauses; the paper instead uses Sinz's sequential-counter encoding [20],
// which introduces O(m·k) auxiliary variables and clauses. We implement
// that, plus Bailleux–Boufkhad's totalizer as an ablation alternative.
//
// The sequential counter over n inputs builds registers r[i][j] meaning
// "at least j+1 of lits[0..i] are true" (j < cap), with both implication
// directions, so its last row is a unary count o[j] = r[n-1][j]. Every
// bound is a unit on those outputs: exactly-k is o[k-1] and ¬o[k] over one
// counter with cap k+1, i.e. at most n·(k+1) registers and about
// 4·n·(k+1) clauses. Both encodings expose the same unary outputs
// (sequential_outputs / totalizer_outputs). The SR encoder
// (timeprint/sr_encoder.hpp) fixes a decode's count with encode_exactly
// and gives the incremental template the totalizer's outputs to assume
// on: measured in the template, the sequential counter lost on the m=64
// rows of bench_incremental and won on the m=96 rows (EXPERIMENTS.md), so
// the template keeps the totalizer.

#include <vector>

#include "sat/interface.hpp"
#include "sat/types.hpp"

namespace tp::sat {

/// Which CNF cardinality encoding to emit.
enum class CardEncoding {
  SequentialCounter,  ///< Sinz 2005 (the paper's choice, O(m·k))
  Totalizer,          ///< Bailleux–Boufkhad 2003 (O(m·k·log m), better arc-consistency)
};

/// Constrain at most k of `lits` to be true. Returns false iff the solver
/// became unsatisfiable while adding the clauses.
bool encode_at_most(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                    CardEncoding enc = CardEncoding::SequentialCounter);

/// Constrain at least k of `lits` to be true.
bool encode_at_least(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                     CardEncoding enc = CardEncoding::SequentialCounter);

/// Constrain exactly k of `lits` to be true.
bool encode_exactly(SolverInterface& solver, const std::vector<Lit>& lits, int k,
                    CardEncoding enc = CardEncoding::SequentialCounter);

/// Build a sequential counter over `lits` and return its unary output
/// literals o[0..min(cap, n)-1], where o[j] is true iff at least j+1 of the
/// inputs are true (both implication directions are encoded). Row i holds
/// min(cap, i+1) registers and row 0 is lits[0] itself, so at most
/// (n-1)·cap fresh variables are introduced.
std::vector<Lit> sequential_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                    int cap);

/// Build a totalizer over `lits` and return its unary output literals
/// o[0..cap-1], where o[j] is true iff at least j+1 of the inputs are true
/// (both implication directions are encoded). `cap` bounds the number of
/// outputs built; counts above cap saturate into o[cap-1].
std::vector<Lit> totalizer_outputs(SolverInterface& solver, const std::vector<Lit>& lits,
                                   int cap);

}  // namespace tp::sat
