// Tests for the CNF preprocessing front-end (sat/preprocess.hpp) and the
// dense variable remapper (sat/remap.hpp):
//
//  * remapper unit coverage — fate bookkeeping, clause/XOR translation
//    through fixed variables, model extension via stash replay;
//  * wrapper conformance — the factory wraps on SolverConfig::preprocess,
//    edge formulas (empty, trivially conflicting, degenerate XORs) keep
//    their verdicts, clone() is independent on both sides of the build;
//  * restoration contract — freezing is a performance hint, not a
//    correctness requirement: an eliminated variable used in a late
//    assumption or post-build clause is transparently *restored* from its
//    stashed witness clauses, and the combined formula keeps exact
//    verdicts, models and DRAT certificates;
//  * fuzz parity — random CNF+XOR instances solved raw and preprocessed
//    must agree on SAT/UNSAT, models, failed() cores and complete AllSAT
//    model sets (compared by fingerprint);
//  * DRAT — UNSAT verdicts from preprocessed solves certify against the
//    *original* formula via the independent DratChecker;
//  * incremental templates — the template reconstructor with preprocess
//    on matches the raw fresh-solver path across the k = 0 and
//    k > k_max rebuild edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "sat/allsat.hpp"
#include "sat/drat.hpp"
#include "sat/interface.hpp"
#include "sat/preprocess.hpp"
#include "sat/remap.hpp"
#include "sat/solver.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/reconstruct.hpp"

namespace tp::sat {
namespace {

std::unique_ptr<SolverInterface> make_preprocessed(SolverOptions opts = {}) {
  opts.preprocess = true;
  return SolverFactory::make(opts);
}

// ---------------------------------------------------------------------------
// VarRemapper unit coverage.
// ---------------------------------------------------------------------------

TEST(Remap, FatesAndDenseAssignment) {
  VarRemapper remap(6);
  remap.set_fixed(1, true);
  remap.set_fixed(4, false);
  remap.set_eliminated(mk_lit(3), {{mk_lit(3), mk_lit(0)}});
  // Keep 0 and 2; 5 is dropped (never occurs, not frozen).
  const int inner = remap.assign_dense([](Var v) { return v == 0 || v == 2; });
  EXPECT_EQ(inner, 2);
  EXPECT_EQ(remap.num_inner(), 2);
  EXPECT_EQ(remap.fate(0), VarRemapper::Fate::Mapped);
  EXPECT_EQ(remap.fate(1), VarRemapper::Fate::FixedTrue);
  EXPECT_EQ(remap.fate(2), VarRemapper::Fate::Mapped);
  EXPECT_EQ(remap.fate(3), VarRemapper::Fate::Eliminated);
  EXPECT_EQ(remap.fate(4), VarRemapper::Fate::FixedFalse);
  EXPECT_EQ(remap.fate(5), VarRemapper::Fate::Dropped);
  // Dense, in outer order.
  EXPECT_EQ(remap.inner_of(Var(0)), 0);
  EXPECT_EQ(remap.inner_of(Var(2)), 1);
  EXPECT_EQ(remap.outer_of(Var(0)), 0);
  EXPECT_EQ(remap.outer_of(Var(1)), 2);
  // Literal translation preserves polarity.
  EXPECT_EQ(remap.inner_of(~mk_lit(2)), ~mk_lit(1));
  EXPECT_EQ(remap.outer_lit_of(~mk_lit(1)), ~mk_lit(2));
}

TEST(Remap, ClauseTranslationFoldsFixedVariables) {
  VarRemapper remap(4);
  remap.set_fixed(1, true);
  remap.set_fixed(2, false);
  remap.assign_dense([](Var v) { return v == 0 || v == 3; });

  std::vector<Lit> out;
  // Clause satisfied by the fixed-true literal.
  EXPECT_EQ(remap.translate_clause({mk_lit(0), mk_lit(1)}, &out),
            VarRemapper::ClauseFate::Satisfied);
  // False literals fold away, survivors are renumbered.
  EXPECT_EQ(remap.translate_clause({~mk_lit(1), mk_lit(2), mk_lit(3)}, &out),
            VarRemapper::ClauseFate::Keep);
  EXPECT_EQ(out, (std::vector<Lit>{mk_lit(1)}));  // x3 -> inner 1
  // Every literal false: the empty clause.
  EXPECT_EQ(remap.translate_clause({~mk_lit(1), mk_lit(2)}, &out),
            VarRemapper::ClauseFate::Empty);

  // XORs fold fixed values into the right-hand side.
  std::vector<Var> xout;
  bool rhs = false;
  EXPECT_EQ(remap.translate_xor({0, 1, 3}, true, &xout, &rhs),
            VarRemapper::ClauseFate::Keep);
  EXPECT_EQ(xout, (std::vector<Var>{0, 1}));
  EXPECT_FALSE(rhs);  // fixed-true member flips the parity
  EXPECT_EQ(remap.translate_xor({1, 2}, true, &xout, &rhs),
            VarRemapper::ClauseFate::Satisfied);  // 1 ^ 0 = 1 holds
  EXPECT_EQ(remap.translate_xor({1, 2}, false, &xout, &rhs),
            VarRemapper::ClauseFate::Empty);
}

TEST(Remap, ModelExtensionReplaysStashes) {
  // Eliminate x2 by resolution from {x1 -> x2, x2 -> x3} (stash the
  // positive phase {x2, ~x1}): with x1 true and x3 false in the inner
  // model, the stashed clause forces x2 true.
  VarRemapper remap(3);
  remap.set_eliminated(mk_lit(1), {{mk_lit(1), ~mk_lit(0)}});
  remap.assign_dense([](Var) { return true; });
  const auto model = remap.extend_model([](Var inner) {
    return inner == 0 ? LBool::True : LBool::False;  // x1=T, x3=F
  });
  ASSERT_EQ(model.size(), 3u);
  EXPECT_EQ(model[0], LBool::True);
  EXPECT_EQ(model[1], LBool::True);  // stash demanded it
  EXPECT_EQ(model[2], LBool::False);

  // With x1 false the stashed clause is already satisfied; the stashed
  // literal takes its "free" polarity (false).
  VarRemapper remap2(3);
  remap2.set_eliminated(mk_lit(1), {{mk_lit(1), ~mk_lit(0)}});
  remap2.assign_dense([](Var) { return true; });
  const auto model2 =
      remap2.extend_model([](Var) { return LBool::False; });
  EXPECT_EQ(model2[1], LBool::False);
}

// ---------------------------------------------------------------------------
// Wrapper conformance and edge formulas.
// ---------------------------------------------------------------------------

TEST(Preprocess, FactoryWrapsWhenConfigured) {
  SolverOptions opts;
  opts.preprocess = true;
  auto s = SolverFactory::make(opts);
  auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_FALSE(wrapper->preprocessed());
  EXPECT_EQ(s->solve(), Status::Sat);  // empty formula
  EXPECT_TRUE(wrapper->preprocessed());
  EXPECT_TRUE(s->okay());
}

TEST(Preprocess, UnitsFixValuesThroughTheFrontEnd) {
  auto s = make_preprocessed();
  const Var a = s->new_var();
  const Var b = s->new_var();
  ASSERT_TRUE(s->add_clause({mk_lit(a)}));
  ASSERT_TRUE(s->add_clause({~mk_lit(b)}));
  EXPECT_EQ(s->fixed_value(a), LBool::True);  // visible pre-build
  ASSERT_EQ(s->solve(), Status::Sat);
  EXPECT_EQ(s->model(a), LBool::True);
  EXPECT_EQ(s->model(b), LBool::False);
  EXPECT_EQ(s->fixed_value(a), LBool::True);
  EXPECT_EQ(s->fixed_value(b), LBool::False);
}

TEST(Preprocess, TriviallyConflictingFormulaIsUnsat) {
  auto s = make_preprocessed();
  const Var a = s->new_var();
  ASSERT_TRUE(s->add_clause({mk_lit(a)}));
  EXPECT_FALSE(s->add_clause({~mk_lit(a)}));
  EXPECT_EQ(s->solve(), Status::Unsat);
  EXPECT_FALSE(s->okay());
}

TEST(Preprocess, DegenerateXorsKeepTheirVerdicts) {
  {
    auto s = make_preprocessed();
    EXPECT_FALSE(s->add_xor({}, true));  // 0 = 1
    EXPECT_EQ(s->solve(), Status::Unsat);
  }
  {
    auto s = make_preprocessed();
    const Var a = s->new_var();
    EXPECT_TRUE(s->add_xor({a}, true));  // unit: a = 1
    ASSERT_EQ(s->solve(), Status::Sat);
    EXPECT_EQ(s->model(a), LBool::True);
  }
  {
    auto s = make_preprocessed();
    const Var a = s->new_var();
    EXPECT_TRUE(s->add_xor({a, a}, false));  // cancels to 0 = 0
    EXPECT_EQ(s->solve(), Status::Sat);
  }
}

TEST(Preprocess, EquivalenceChainRoundTripsThroughElimination) {
  // x0 <-> x1 <-> ... <-> x7 with only x0 frozen: the interior of the
  // chain is fair game for elimination, and the extended model must still
  // satisfy every equivalence.
  auto s = make_preprocessed();
  constexpr int kN = 8;
  std::vector<Var> v;
  for (int i = 0; i < kN; ++i) v.push_back(s->new_var());
  for (int i = 0; i + 1 < kN; ++i) {
    ASSERT_TRUE(s->add_clause({~mk_lit(v[i]), mk_lit(v[i + 1])}));
    ASSERT_TRUE(s->add_clause({mk_lit(v[i]), ~mk_lit(v[i + 1])}));
  }
  s->freeze(v[0]);
  ASSERT_EQ(s->solve(), Status::Sat);
  const LBool head = s->model(v[0]);
  ASSERT_NE(head, LBool::Undef);
  for (int i = 1; i < kN; ++i) EXPECT_EQ(s->model(v[i]), head) << "x" << i;

  auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
  ASSERT_NE(wrapper, nullptr);
  // The front-end must actually have removed something here.
  EXPECT_GT(wrapper->preprocess_stats().vars_eliminated +
                wrapper->preprocess_stats().vars_fixed,
            0);

  // The frozen head is still usable incrementally: force it to both
  // polarities under assumptions.
  ASSERT_EQ(s->solve_assuming({mk_lit(v[0])}), Status::Sat);
  EXPECT_EQ(s->model(v[0]), LBool::True);
  ASSERT_EQ(s->solve_assuming({~mk_lit(v[0])}), Status::Sat);
  EXPECT_EQ(s->model(v[0]), LBool::False);
}

TEST(Preprocess, UnfrozenEliminatedVariableIsRestoredOnLateUse) {
  // x9 occurs only positively in one clause: a pure literal, eliminated
  // with zero resolvents. A warm template master leaves such variables
  // eliminable on purpose; a late use must transparently *restore* the
  // variable from its stashed witness clauses, not throw and not
  // mistranslate.
  auto build = [] {
    auto s = make_preprocessed();
    std::vector<Var> v;
    for (int i = 0; i < 10; ++i) v.push_back(s->new_var());
    s->add_clause({mk_lit(v[0]), mk_lit(v[1])});
    s->add_clause({mk_lit(v[9]), ~mk_lit(v[0])});
    s->freeze(v[0]);
    s->freeze(v[1]);
    EXPECT_EQ(s->solve(), Status::Sat);
    auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
    EXPECT_NE(wrapper, nullptr);
    EXPECT_EQ(wrapper->remapper().fate(Var(9)),
              VarRemapper::Fate::Eliminated);
    return s;
  };
  {
    // Late clause over the eliminated variable: restoration brings the
    // witness (x9 | ~x0) back, so adding (x9 | x0) makes ~x9 genuinely
    // unsat.
    auto s = build();
    EXPECT_TRUE(s->add_clause({mk_lit(Var(9)), mk_lit(Var(0))}));
    auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
    EXPECT_GT(wrapper->restored_vars(), 0);
    EXPECT_EQ(s->solve_assuming({~mk_lit(Var(9))}), Status::Unsat);
    EXPECT_EQ(s->solve_assuming({mk_lit(Var(9))}), Status::Sat);
  }
  {
    // A late assumption alone restores too, and the restored witness
    // clause binds the assumed variable to the surviving ones.
    auto s = build();
    EXPECT_EQ(s->solve_assuming({~mk_lit(Var(9))}), Status::Sat);
    auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
    EXPECT_GT(wrapper->restored_vars(), 0);
    EXPECT_EQ(s->model(Var(9)), LBool::False);
    EXPECT_EQ(s->model(Var(0)), LBool::False);  // witness (x9 | ~x0)
    EXPECT_EQ(s->model(Var(1)), LBool::True);   // (x0 | x1)
  }
}

TEST(Preprocess, CloneStatsStartAtZero) {
  // Regression: the wrapper used to copy the *outer* preprocessing-time
  // propagation count into every clone, so a batch of N warm clones
  // reported the front-end's unit propagations N+1 times. Clone stats —
  // inner solver and front-end alike — must start at zero.
  auto s = make_preprocessed();
  std::vector<Var> v;
  for (int i = 0; i < 8; ++i) v.push_back(s->new_var());
  s->add_clause({mk_lit(v[0])});  // root unit: front-end propagation
  for (int i = 0; i + 1 < 8; ++i) {
    s->add_clause({~mk_lit(v[i]), mk_lit(v[i + 1])});
  }
  ASSERT_EQ(s->solve(), Status::Sat);
  ASSERT_GT(s->stats().propagations, 0);

  const auto clone = s->clone();
  EXPECT_EQ(clone->stats().propagations, 0)
      << "clone re-reports the master's preprocessing propagations";
  EXPECT_EQ(clone->stats().conflicts, 0);
  // The clone still works and counts only its own effort afterwards.
  EXPECT_EQ(clone->solve(), Status::Sat);
  EXPECT_EQ(clone->model(v[7]), LBool::True);
}

TEST(Preprocess, CloneIsIndependentOnBothSidesOfTheBuild) {
  // Pre-build clone: diverges from the original before the front-end runs.
  {
    auto s = make_preprocessed();
    const Var a = s->new_var();
    s->add_clause({mk_lit(a)});
    auto c = s->clone();
    // Contradicting the buffered unit is a root conflict (same contract
    // as the raw solver's add_clause).
    EXPECT_FALSE(c->add_clause({~mk_lit(a)}));
    EXPECT_EQ(c->solve(), Status::Unsat);
    EXPECT_EQ(s->solve(), Status::Sat);
  }
  // Post-build clone: carries the preprocessed inner state.
  {
    auto s = make_preprocessed();
    const Var a = s->new_var();
    const Var b = s->new_var();
    s->add_clause({mk_lit(a), mk_lit(b)});
    s->freeze(a);
    s->freeze(b);
    ASSERT_EQ(s->solve(), Status::Sat);
    auto c = s->clone();
    ASSERT_TRUE(c->add_clause({~mk_lit(a)}));
    EXPECT_FALSE(c->add_clause({~mk_lit(b)}));  // UP fixed b after ~a
    EXPECT_EQ(c->solve(), Status::Unsat);
    EXPECT_EQ(s->solve(), Status::Sat);
  }
}

TEST(Preprocess, NewVariablesAfterTheBuildKeepWorking) {
  auto s = make_preprocessed();
  const Var a = s->new_var();
  s->add_clause({mk_lit(a)});
  ASSERT_EQ(s->solve(), Status::Sat);
  const Var late = s->new_var();
  ASSERT_TRUE(s->add_clause({~mk_lit(late)}));
  ASSERT_EQ(s->solve(), Status::Sat);
  EXPECT_EQ(s->model(late), LBool::False);
  EXPECT_EQ(s->model(a), LBool::True);
}

// ---------------------------------------------------------------------------
// Fuzz parity against the raw backend.
// ---------------------------------------------------------------------------

struct RandomInstance {
  int num_vars = 0;
  std::vector<std::pair<std::vector<Var>, bool>> xors;
  std::vector<std::vector<Lit>> clauses;
};

RandomInstance random_instance(std::mt19937& rng, int num_vars, int num_xors,
                               int num_clauses) {
  RandomInstance inst;
  inst.num_vars = num_vars;
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int j = 0; j < num_xors; ++j) {
    std::set<Var> row;
    std::uniform_int_distribution<int> arity(2, 5);
    const int n = arity(rng);
    while (static_cast<int>(row.size()) < n) row.insert(var(rng));
    inst.xors.emplace_back(std::vector<Var>(row.begin(), row.end()),
                           coin(rng) == 1);
  }
  for (int j = 0; j < num_clauses; ++j) {
    std::set<Var> vars;
    std::uniform_int_distribution<int> arity(1, 4);
    const int n = arity(rng);
    while (static_cast<int>(vars.size()) < n) vars.insert(var(rng));
    std::vector<Lit> clause;
    for (const Var v : vars) clause.emplace_back(v, coin(rng) == 1);
    inst.clauses.push_back(std::move(clause));
  }
  return inst;
}

std::vector<Var> load(SolverInterface& s, const RandomInstance& inst) {
  std::vector<Var> vars;
  for (int i = 0; i < inst.num_vars; ++i) vars.push_back(s.new_var());
  for (const auto& [row, rhs] : inst.xors) s.add_xor(row, rhs);
  for (const auto& clause : inst.clauses) s.add_clause(clause);
  return vars;
}

bool satisfies(const RandomInstance& inst, const std::vector<bool>& model) {
  for (const auto& [row, rhs] : inst.xors) {
    bool parity = false;
    for (const Var v : row) parity ^= model[static_cast<std::size_t>(v)];
    if (parity != rhs) return false;
  }
  for (const auto& clause : inst.clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      sat = sat || (model[static_cast<std::size_t>(l.var())] != l.negated());
    }
    if (!sat) return false;
  }
  return true;
}

std::uint64_t fingerprint(const std::vector<bool>& model) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const bool b : model) {
    h ^= b ? 0x9eu : 0x31u;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(PreprocessFuzz, VerdictsAndModelsAgreeWithRawBackend) {
  std::mt19937 rng(20260808);
  int unsat_seen = 0;
  for (int round = 0; round < 150; ++round) {
    // Alternate pure-CNF and CNF+XOR instances (XOR members are pinned by
    // the implicit freeze; pure CNF exercises deeper elimination).
    const int xors = (round % 2 == 0) ? 0 : 4;
    const RandomInstance inst = random_instance(rng, 12, xors, 26);
    Solver raw;
    auto pre = make_preprocessed();
    load(raw, inst);
    const std::vector<Var> vars = load(*pre, inst);

    const Status rs = raw.solve();
    const Status ps = pre->solve();
    ASSERT_EQ(rs, ps) << "round " << round;
    if (ps == Status::Unsat) {
      ++unsat_seen;
    } else {
      std::vector<bool> model;
      for (const Var v : vars) model.push_back(pre->model(v) == LBool::True);
      EXPECT_TRUE(satisfies(inst, model)) << "round " << round;
    }
  }
  EXPECT_GT(unsat_seen, 0) << "fixture never exercised the UNSAT path";
}

TEST(PreprocessFuzz, AssumptionCoresAgreeWithRawBackend) {
  std::mt19937 rng(424242);
  std::uniform_int_distribution<int> coin(0, 1);
  int unsat_seen = 0;
  for (int round = 0; round < 80; ++round) {
    const RandomInstance inst = random_instance(rng, 12, 3, 18);
    Solver raw;
    auto pre = make_preprocessed();
    load(raw, inst);
    const std::vector<Var> vars = load(*pre, inst);

    std::vector<Lit> cube;
    for (int i = 0; i < 4; ++i) {
      cube.emplace_back(vars[static_cast<std::size_t>(i)], coin(rng) == 1);
      pre->freeze(cube.back().var());  // assumption vars must survive
    }
    const Status rs = raw.solve_assuming(cube);
    const Status ps = pre->solve_assuming(cube);
    ASSERT_EQ(rs, ps) << "round " << round;
    if (ps == Status::Unsat) {
      ++unsat_seen;
      for (const Lit l : pre->failed()) {
        EXPECT_NE(std::find(cube.begin(), cube.end(), ~l), cube.end())
            << "failed() literal is not the negation of an assumption";
      }
    } else if (ps == Status::Sat) {
      for (const Lit l : cube) {
        EXPECT_EQ(pre->model_value(l), LBool::True)
            << "assumption not honoured in round " << round;
      }
    }
  }
  EXPECT_GT(unsat_seen, 0) << "fixture never exercised the UNSAT path";
}

TEST(PreprocessFuzz, CompleteEnumerationsMatchRawBackend) {
  // Project onto the first half of the variables: the other half stays
  // eligible for elimination, so this exercises blocking clauses over a
  // frozen projection against a genuinely reduced inner formula.
  std::mt19937 rng(987651);
  for (int round = 0; round < 30; ++round) {
    const RandomInstance inst = random_instance(rng, 10, 2, 14);
    Solver raw;
    auto pre = make_preprocessed();
    load(raw, inst);
    const std::vector<Var> vars = load(*pre, inst);
    const std::vector<Var> projection(vars.begin(),
                                      vars.begin() + vars.size() / 2);

    std::multiset<std::uint64_t> prints[2];
    SolverInterface* solvers[2] = {&raw, pre.get()};
    for (int b = 0; b < 2; ++b) {
      const AllSatResult r = enumerate_models(*solvers[b], projection);
      ASSERT_TRUE(r.complete()) << "round " << round;
      for (const auto& model : r.models) prints[b].insert(fingerprint(model));
    }
    EXPECT_EQ(prints[0], prints[1]) << "round " << round;
  }
}

TEST(PreprocessFuzz, LateClausesRestoreAndAgreeWithRawBackend) {
  // Nothing is frozen, so elimination runs unconstrained; the late
  // clauses and XORs below then land on eliminated variables and force
  // witness restoration mid-stream. Verdicts and models must keep
  // matching the raw backend after every restoration.
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> coin(0, 1);
  std::int64_t restored_total = 0;
  int unsat_seen = 0;
  for (int round = 0; round < 60; ++round) {
    RandomInstance inst = random_instance(rng, 14, 0, 20);
    Solver raw;
    auto pre = make_preprocessed();
    load(raw, inst);
    const std::vector<Var> vars = load(*pre, inst);

    const Status first = raw.solve();
    ASSERT_EQ(first, pre->solve()) << "round " << round;
    if (first == Status::Unsat) {
      ++unsat_seen;
      continue;
    }
    for (int batch = 0; batch < 6; ++batch) {
      if (batch % 2 == 0) {
        std::set<Var> cv;
        std::uniform_int_distribution<int> var(0, inst.num_vars - 1);
        while (cv.size() < 3) cv.insert(var(rng));
        std::vector<Lit> clause;
        for (const Var v : cv) clause.emplace_back(v, coin(rng) == 1);
        raw.add_clause(clause);
        pre->add_clause(clause);
        inst.clauses.push_back(clause);
      } else {
        std::set<Var> xv;
        std::uniform_int_distribution<int> var(0, inst.num_vars - 1);
        while (xv.size() < 3) xv.insert(var(rng));
        const std::vector<Var> row(xv.begin(), xv.end());
        const bool rhs = coin(rng) == 1;
        raw.add_xor(row, rhs);
        pre->add_xor(row, rhs);
        inst.xors.emplace_back(row, rhs);
      }
      const Status rs = raw.solve();
      const Status ps = pre->solve();
      ASSERT_EQ(rs, ps) << "round " << round << " batch " << batch;
      if (ps == Status::Unsat) {
        ++unsat_seen;
        break;
      }
      std::vector<bool> model;
      for (const Var v : vars) model.push_back(pre->model(v) == LBool::True);
      ASSERT_TRUE(satisfies(inst, model))
          << "round " << round << " batch " << batch;
    }
    auto* wrapper = dynamic_cast<PreprocessingSolver*>(pre.get());
    ASSERT_NE(wrapper, nullptr);
    restored_total += wrapper->restored_vars();
  }
  EXPECT_GT(restored_total, 0) << "fixture never triggered a restoration";
  EXPECT_GT(unsat_seen, 0) << "fixture never exercised the UNSAT path";
}

// ---------------------------------------------------------------------------
// DRAT: preprocessed UNSAT verdicts certify against the original formula.
// ---------------------------------------------------------------------------

DratChecker::Result certify(const MemoryProof& proof) {
  DratChecker checker;
  for (const auto& c : proof.formula()) checker.add_clause(c);
  std::vector<ProofOp> ops = proof.ops();
  ops.push_back(ProofOp{ProofOp::Kind::Add, {}});  // final empty clause
  return checker.check(ops);
}

TEST(PreprocessProof, PigeonholeUnsatCertifies) {
  MemoryProof proof;
  SolverOptions opts;
  opts.proof = &proof;
  auto s = make_preprocessed(opts);
  Var p[4][3];
  for (auto& row : p) {
    for (Var& v : row) v = s->new_var();
  }
  for (const auto& row : p) {
    s->add_clause({mk_lit(row[0]), mk_lit(row[1]), mk_lit(row[2])});
  }
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        s->add_clause({~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
      }
    }
  }
  ASSERT_EQ(s->solve(), Status::Unsat);
  const DratChecker::Result r = certify(proof);
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_TRUE(r.proved_unsat);
}

TEST(PreprocessProof, RandomUnsatInstancesCertify) {
  std::mt19937 rng(31337);
  int certified = 0;
  for (int round = 0; round < 60 && certified < 8; ++round) {
    const RandomInstance inst =
        random_instance(rng, 9, round % 2 == 0 ? 0 : 3, 30);
    MemoryProof proof;
    SolverOptions opts;
    opts.proof = &proof;
    auto s = make_preprocessed(opts);
    load(*s, inst);
    if (s->solve() != Status::Unsat) continue;
    ++certified;
    const DratChecker::Result r = certify(proof);
    EXPECT_TRUE(r.valid) << "round " << round << ": " << r.error;
    EXPECT_TRUE(r.proved_unsat) << "round " << round;
  }
  EXPECT_GE(certified, 4) << "fixture produced too few UNSAT instances";
}

TEST(PreprocessProof, RestoredLateClauseUnsatCertifies) {
  // Drive instances UNSAT through *late* clauses over eliminated
  // variables: each late add restores witness clauses into the inner
  // solver (re-added as RUP steps, since the keep-parents policy never
  // deleted their BVE parents from the checker's database), and the
  // final empty clause must still certify against original formula +
  // late axioms.
  std::mt19937 rng(90210);
  std::uniform_int_distribution<int> coin(0, 1);
  int certified = 0;
  std::int64_t restored_total = 0;
  for (int round = 0; round < 40 && certified < 6; ++round) {
    RandomInstance inst = random_instance(rng, 10, 0, 16);
    MemoryProof proof;
    SolverOptions opts;
    opts.proof = &proof;
    auto s = make_preprocessed(opts);
    load(*s, inst);
    if (s->solve() != Status::Sat) continue;

    Status status = Status::Sat;
    for (int batch = 0; batch < 12 && status == Status::Sat; ++batch) {
      std::set<Var> cv;
      std::uniform_int_distribution<int> var(0, inst.num_vars - 1);
      while (cv.size() < 2) cv.insert(var(rng));
      std::vector<Lit> clause;
      for (const Var v : cv) clause.emplace_back(v, coin(rng) == 1);
      s->add_clause(clause);
      status = s->solve();
    }
    if (status != Status::Unsat) continue;
    auto* wrapper = dynamic_cast<PreprocessingSolver*>(s.get());
    ASSERT_NE(wrapper, nullptr);
    restored_total += wrapper->restored_vars();
    ++certified;
    const DratChecker::Result r = certify(proof);
    EXPECT_TRUE(r.valid) << "round " << round << ": " << r.error;
    EXPECT_TRUE(r.proved_unsat) << "round " << round;
  }
  EXPECT_GE(certified, 3) << "fixture produced too few late-UNSAT instances";
  EXPECT_GT(restored_total, 0) << "fixture never triggered a restoration";
}

TEST(PreprocessProof, EnumerationBlockingClausesStayCheckable) {
  // Drive an enumeration to completion in proof mode: the final UNSAT
  // must certify against original formula + logged blocking clauses.
  MemoryProof proof;
  SolverOptions opts;
  opts.proof = &proof;
  auto s = make_preprocessed(opts);
  const Var a = s->new_var();
  const Var b = s->new_var();
  const Var c = s->new_var();
  s->add_clause({mk_lit(a), mk_lit(b)});
  s->add_clause({mk_lit(c), ~mk_lit(a)});
  const AllSatResult r = enumerate_models(*s, {a, b});
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r.models.size(), 3u);
  const DratChecker::Result res = certify(proof);
  EXPECT_TRUE(res.valid) << res.error;
  EXPECT_TRUE(res.proved_unsat);
}

// ---------------------------------------------------------------------------
// Incremental templates: preprocess composes with the selector encoding.
// ---------------------------------------------------------------------------

}  // namespace
}  // namespace tp::sat

namespace tp::core {
namespace {

std::set<std::string> signal_set(const std::vector<Signal>& signals) {
  std::set<std::string> out;
  for (const Signal& s : signals) out.insert(s.to_string());
  return out;
}

TEST(PreprocessTemplate, MatchesFreshPathAcrossRebuildEdges) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    f2::Rng rng(seed * 31);
    const TimestampEncoding enc =
        TimestampEncoding::random_constrained_auto(12, 3, seed);
    Logger logger(enc);

    ReconstructionOptions pre_opts;
    pre_opts.preprocess = true;
    ReconstructionOptions raw_opts;  // fresh-solver reference, no front-end
    Reconstructor fresh(enc);
    // k_max = 2 so the k = 4 entry forces a template rebuild mid-stream.
    TemplateReconstructor tmpl(fresh, pre_opts, /*k_max=*/2);

    std::vector<LogEntry> entries;
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 0, rng)));
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 2, rng)));
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 4, rng)));
    entries.push_back(logger.log(Signal::random_with_changes(enc.m(), 1, rng)));
    entries.push_back({f2::BitVec::random(enc.width(), rng), 2});

    for (std::size_t i = 0; i < entries.size(); ++i) {
      const ReconstructionResult t = tmpl.reconstruct(entries[i]);
      const ReconstructionResult f = fresh.reconstruct(entries[i], raw_opts);
      ASSERT_TRUE(t.complete()) << "seed " << seed << " entry " << i;
      ASSERT_TRUE(f.complete()) << "seed " << seed << " entry " << i;
      EXPECT_EQ(signal_set(t.signals), signal_set(f.signals))
          << "seed " << seed << " entry " << i;
    }
    EXPECT_EQ(tmpl.stats().builds, 2);  // initial + the k > k_max rebuild
  }
}

}  // namespace
}  // namespace tp::core
