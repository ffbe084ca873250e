// Tests for cardinality encodings: correctness of model sets against the
// brute-force reference, for both the Sinz sequential counter (the paper's
// choice) and the totalizer, an exhaustive differential between the two,
// and the O(n·k) size of the sequential counter.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <set>

#include "sat/allsat.hpp"
#include "sat/cardinality.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

std::uint64_t binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  std::uint64_t r = 1;
  for (int i = 0; i < k; ++i) r = r * static_cast<std::uint64_t>(n - i) / static_cast<std::uint64_t>(i + 1);
  return r;
}

std::vector<Var> make_vars(Solver& s, int n) {
  std::vector<Var> vars;
  for (int i = 0; i < n; ++i) vars.push_back(s.new_var());
  return vars;
}

std::vector<Lit> pos_lits(const std::vector<Var>& vars) {
  std::vector<Lit> lits;
  for (Var v : vars) lits.push_back(mk_lit(v));
  return lits;
}

struct CardCase {
  int n;
  int k;
  CardEncoding enc;
};

class ExactlyKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(ExactlyKTest, ModelCountIsBinomial) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_exactly(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), binomial(n, k));
  for (const auto& model : result.models) {
    const auto ones = static_cast<int>(std::accumulate(model.begin(), model.end(), 0));
    EXPECT_EQ(ones, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sinz, ExactlyKTest,
    ::testing::Values(CardCase{5, 0, CardEncoding::SequentialCounter},
                      CardCase{5, 1, CardEncoding::SequentialCounter},
                      CardCase{5, 2, CardEncoding::SequentialCounter},
                      CardCase{5, 5, CardEncoding::SequentialCounter},
                      CardCase{8, 3, CardEncoding::SequentialCounter},
                      CardCase{8, 4, CardEncoding::SequentialCounter},
                      CardCase{10, 2, CardEncoding::SequentialCounter},
                      CardCase{12, 6, CardEncoding::SequentialCounter}));

INSTANTIATE_TEST_SUITE_P(
    Totalizer, ExactlyKTest,
    ::testing::Values(CardCase{5, 0, CardEncoding::Totalizer},
                      CardCase{5, 1, CardEncoding::Totalizer},
                      CardCase{5, 2, CardEncoding::Totalizer},
                      CardCase{5, 5, CardEncoding::Totalizer},
                      CardCase{8, 3, CardEncoding::Totalizer},
                      CardCase{8, 4, CardEncoding::Totalizer},
                      CardCase{10, 2, CardEncoding::Totalizer},
                      CardCase{12, 6, CardEncoding::Totalizer}));

class AtMostKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(AtMostKTest, ModelCountIsPartialBinomialSum) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_at_most(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  std::uint64_t expect = 0;
  for (int j = 0; j <= k; ++j) expect += binomial(n, j);
  EXPECT_EQ(result.models.size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Both, AtMostKTest,
    ::testing::Values(CardCase{6, 1, CardEncoding::SequentialCounter},
                      CardCase{6, 3, CardEncoding::SequentialCounter},
                      CardCase{6, 5, CardEncoding::SequentialCounter},
                      CardCase{6, 1, CardEncoding::Totalizer},
                      CardCase{6, 3, CardEncoding::Totalizer},
                      CardCase{6, 5, CardEncoding::Totalizer}));

class AtLeastKTest : public ::testing::TestWithParam<CardCase> {};

TEST_P(AtLeastKTest, ModelCountIsUpperBinomialSum) {
  const auto [n, k, enc] = GetParam();
  Solver s;
  auto vars = make_vars(s, n);
  ASSERT_TRUE(encode_at_least(s, pos_lits(vars), k, enc));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  std::uint64_t expect = 0;
  for (int j = k; j <= n; ++j) expect += binomial(n, j);
  EXPECT_EQ(result.models.size(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Both, AtLeastKTest,
    ::testing::Values(CardCase{6, 2, CardEncoding::SequentialCounter},
                      CardCase{6, 4, CardEncoding::SequentialCounter},
                      CardCase{6, 6, CardEncoding::SequentialCounter},
                      CardCase{6, 2, CardEncoding::Totalizer},
                      CardCase{6, 4, CardEncoding::Totalizer},
                      CardCase{6, 6, CardEncoding::Totalizer}));

TEST(Cardinality, ImpossibleBoundsAreUnsat) {
  {
    Solver s;
    auto vars = make_vars(s, 4);
    encode_exactly(s, pos_lits(vars), 5, CardEncoding::SequentialCounter);
    EXPECT_EQ(s.solve(), Status::Unsat);
  }
  {
    Solver s;
    auto vars = make_vars(s, 4);
    encode_at_least(s, pos_lits(vars), 5, CardEncoding::Totalizer);
    EXPECT_EQ(s.solve(), Status::Unsat);
  }
}

TEST(Cardinality, MixedPolarityLiterals) {
  // exactly-2 over {a, ~b, c}: models where (a) + (1-b) + (c) == 2.
  Solver s;
  auto vars = make_vars(s, 3);
  std::vector<Lit> lits = {mk_lit(vars[0]), ~mk_lit(vars[1]), mk_lit(vars[2])};
  ASSERT_TRUE(encode_exactly(s, lits, 2, CardEncoding::SequentialCounter));
  auto result = enumerate_models(s, vars);
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 3u);
  for (const auto& m : result.models) {
    const int count = (m[0] ? 1 : 0) + (m[1] ? 0 : 1) + (m[2] ? 1 : 0);
    EXPECT_EQ(count, 2);
  }
}

TEST(Cardinality, SinzWithConflictingUnits) {
  // Force 3 variables true, then demand at most 2: UNSAT.
  Solver s;
  auto vars = make_vars(s, 5);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(s.add_clause({mk_lit(vars[static_cast<std::size_t>(i)])}));
  encode_at_most(s, pos_lits(vars), 2, CardEncoding::SequentialCounter);
  EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(Cardinality, TotalizerOutputsAreMonotone) {
  // In any model, output j+1 true implies output j true.
  Solver s;
  auto vars = make_vars(s, 7);
  const auto outs = totalizer_outputs(s, pos_lits(vars), 7);
  ASSERT_EQ(outs.size(), 7u);
  auto result = enumerate_models(s, vars, {.max_models = 200, .limits = {}});
  ASSERT_TRUE(result.complete());
  EXPECT_EQ(result.models.size(), 128u);  // unconstrained: all 2^7 models
}

TEST(Cardinality, TotalizerOutputsTrackCount) {
  Solver s;
  auto vars = make_vars(s, 6);
  const auto outs = totalizer_outputs(s, pos_lits(vars), 6);
  // Fix an assignment with 4 ones and check the unary outputs.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(s.add_clause({Lit(vars[static_cast<std::size_t>(i)], /*negated=*/i >= 4)}));
  }
  ASSERT_EQ(s.solve(), Status::Sat);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(s.model_value(outs[static_cast<std::size_t>(j)]) == LBool::True, j < 4)
        << "output " << j;
  }
}

using BoundFn = bool (*)(SolverInterface&, const std::vector<Lit>&, int, CardEncoding);

// Every assignment of n fresh inputs that `bound(k)` admits, as bitmasks.
std::set<std::uint32_t> admitted(BoundFn bound, int n, int k, CardEncoding enc) {
  Solver s;
  auto vars = make_vars(s, n);
  bound(s, pos_lits(vars), k, enc);
  auto result = enumerate_models(s, vars);
  EXPECT_TRUE(result.complete());
  std::set<std::uint32_t> masks;
  for (const auto& model : result.models) {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i]) mask |= 1u << i;
    }
    masks.insert(mask);
  }
  return masks;
}

TEST(Cardinality, SequentialCounterMatchesTotalizerExhaustively) {
  // Every bound, every n <= 9 and every 0 <= k <= n: the sequential
  // counter admits exactly the assignments whose weight satisfies the
  // bound (so the model count is the binomial sum) — the same set the
  // totalizer admits.
  struct Bound {
    const char* name;
    BoundFn fn;
    bool (*holds)(int weight, int k);
  };
  const Bound bounds[] = {
      {"exactly", encode_exactly, [](int w, int k) { return w == k; }},
      {"at_least", encode_at_least, [](int w, int k) { return w >= k; }},
      {"at_most", encode_at_most, [](int w, int k) { return w <= k; }},
  };
  for (const Bound& bound : bounds) {
    for (int n = 1; n <= 9; ++n) {
      for (int k = 0; k <= n; ++k) {
        SCOPED_TRACE(::testing::Message() << bound.name << " n=" << n << " k=" << k);
        std::uint64_t expect = 0;
        for (int w = 0; w <= n; ++w) {
          if (bound.holds(w, k)) expect += binomial(n, w);
        }
        const auto seq = admitted(bound.fn, n, k, CardEncoding::SequentialCounter);
        EXPECT_EQ(seq.size(), expect);
        for (std::uint32_t mask : seq) {
          EXPECT_TRUE(bound.holds(std::popcount(mask), k)) << "mask " << mask;
        }
        EXPECT_EQ(seq, admitted(bound.fn, n, k, CardEncoding::Totalizer));
      }
    }
  }
}

TEST(Cardinality, SequentialOutputsAreTheUnaryCount) {
  // Both directions are encoded: every input assignment extends to
  // exactly one output assignment, and it is o[j] = (weight > j).
  for (int n = 1; n <= 7; ++n) {
    for (int cap = 1; cap <= n + 1; ++cap) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " cap=" << cap);
      Solver s;
      auto vars = make_vars(s, n);
      const auto outs = sequential_outputs(s, pos_lits(vars), cap);
      ASSERT_EQ(static_cast<int>(outs.size()), std::min(cap, n));
      std::vector<Var> projection = vars;
      for (Lit o : outs) projection.push_back(o.var());
      auto result = enumerate_models(s, projection);
      ASSERT_TRUE(result.complete());
      EXPECT_EQ(result.models.size(), std::uint64_t{1} << n);
      for (const auto& model : result.models) {
        const int weight = static_cast<int>(
            std::accumulate(model.begin(), model.begin() + n, 0));
        for (std::size_t j = 0; j < outs.size(); ++j) {
          EXPECT_EQ(model[static_cast<std::size_t>(n) + j] != outs[j].negated(),
                    weight > static_cast<int>(j));
        }
      }
    }
  }
}

TEST(Cardinality, SequentialCounterSizeIsLinearInK) {
  // The paper's CAN query shape: exactly-22 of 1000. The counter may add
  // n·(k+1) registers plus slack n, and about 4 clauses per register —
  // not the O(n·(n−k)) of an at-most-(n−k) counter over the negations.
  constexpr int n = 1000;
  constexpr int k = 22;
  Solver s;
  auto vars = make_vars(s, n);
  const std::size_t clauses_before = s.num_clauses();
  ASSERT_TRUE(encode_exactly(s, pos_lits(vars), k, CardEncoding::SequentialCounter));
  EXPECT_LE(s.num_vars() - n, n * (k + 1) + n);
  EXPECT_LE(s.num_clauses() - clauses_before, std::size_t{4} * n * (k + 1));
  EXPECT_EQ(s.solve(), Status::Sat);
  int weight = 0;
  for (Var v : vars) weight += s.model_value(v) == LBool::True ? 1 : 0;
  EXPECT_EQ(weight, k);
}

}  // namespace
}  // namespace tp::sat
