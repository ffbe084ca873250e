// Unit and property tests for tp::f2::Matrix and LiChecker.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "f2/matrix.hpp"

namespace tp::f2 {
namespace {

TEST(Matrix, IdentityActsAsIdentity) {
  Matrix id = Matrix::identity(8);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    BitVec x = BitVec::random(8, rng);
    EXPECT_EQ(id.multiply(x), x);
  }
  EXPECT_EQ(id.rank(), 8u);
}

TEST(Matrix, FromColumnsLayout) {
  // Columns (1,0), (1,1), (0,1): A = [1 1 0; 0 1 1].
  std::vector<BitVec> cols = {BitVec::from_string("01"), BitVec::from_string("11"),
                              BitVec::from_string("10")};
  Matrix a = Matrix::from_columns(cols);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_TRUE(a.get(0, 0));
  EXPECT_TRUE(a.get(0, 1));
  EXPECT_FALSE(a.get(0, 2));
  EXPECT_FALSE(a.get(1, 0));
  EXPECT_TRUE(a.get(1, 1));
  EXPECT_TRUE(a.get(1, 2));
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(a.column(c), cols[c]);
}

TEST(Matrix, MultiplyMatchesColumnSum) {
  Rng rng(5);
  std::vector<BitVec> cols;
  for (int i = 0; i < 10; ++i) cols.push_back(BitVec::random(6, rng));
  Matrix a = Matrix::from_columns(cols);
  BitVec x = BitVec::random(10, rng);
  BitVec expect(6);
  for (std::size_t i = 0; i < 10; ++i) {
    if (x.get(i)) expect ^= cols[i];
  }
  EXPECT_EQ(a.multiply(x), expect);
}

TEST(Matrix, RankOfDependentRows) {
  Matrix m(3, 4);
  m.row(0) = BitVec::from_string("1010");
  m.row(1) = BitVec::from_string("0110");
  m.row(2) = m.row(0) ^ m.row(1);  // dependent
  EXPECT_EQ(m.rank(), 2u);
}

TEST(Matrix, SolveConsistentSystem) {
  Rng rng(11);
  Matrix a(5, 8);
  for (std::size_t r = 0; r < 5; ++r) a.row(r) = BitVec::random(8, rng);
  BitVec x_true = BitVec::random(8, rng);
  BitVec b = a.multiply(x_true);
  auto sol = a.solve(b);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(a.multiply(sol->particular), b);
  for (const BitVec& n : sol->nullspace) {
    EXPECT_TRUE(a.multiply(n).is_zero());
    EXPECT_EQ(a.multiply(sol->particular ^ n), b);
  }
}

TEST(Matrix, SolveInconsistentSystem) {
  // x0 = 0 and x0 = 1 simultaneously.
  Matrix a(2, 1);
  a.set(0, 0, true);
  a.set(1, 0, true);
  BitVec b(2);
  b.set(0, true);  // row0: x0 = 1, row1: x0 = 0
  EXPECT_FALSE(a.solve(b).has_value());
}

TEST(Matrix, SolutionCountIsTwoToNullity) {
  // 3 independent equations over 6 unknowns -> 2^3 = 8 solutions.
  Rng rng(17);
  Matrix a(3, 6);
  a.row(0) = BitVec::from_string("100101");
  a.row(1) = BitVec::from_string("010011");
  a.row(2) = BitVec::from_string("001110");
  ASSERT_EQ(a.rank(), 3u);
  auto sol = a.solve(BitVec::from_string("101"));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->nullspace.size(), 3u);
  EXPECT_EQ(sol->count(), 8u);
}

TEST(Matrix, NullspaceBasisIsIndependent) {
  Rng rng(23);
  Matrix a(4, 10);
  for (std::size_t r = 0; r < 4; ++r) a.row(r) = BitVec::random(10, rng);
  auto sol = a.solve(BitVec(4));
  ASSERT_TRUE(sol.has_value());  // homogeneous is always consistent
  EXPECT_TRUE(Matrix::linearly_independent(sol->nullspace));
}

TEST(Matrix, LinearlyIndependentDetectsDependence) {
  std::vector<BitVec> vecs = {BitVec::from_string("1100"), BitVec::from_string("0110"),
                              BitVec::from_string("1010")};  // v0 ^ v1 == v2
  EXPECT_FALSE(Matrix::linearly_independent(vecs));
  vecs.pop_back();
  EXPECT_TRUE(Matrix::linearly_independent(vecs));
}

// ---- Degenerate shapes (regressions: from_columns({}) used to read
// cols.front() of an empty vector) ----

TEST(Matrix, FromColumnsEmptyListIsZeroByZero) {
  Matrix a = Matrix::from_columns({});
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(a.cols(), 0u);
  EXPECT_EQ(a.rank(), 0u);
}

TEST(Matrix, ZeroRowSystemIsUnconstrained) {
  Matrix a(0, 4);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(0));
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(sol->particular.is_zero());
  EXPECT_EQ(sol->nullspace.size(), 4u);  // every column free
  EXPECT_TRUE(Matrix::linearly_independent(sol->nullspace));
}

TEST(Matrix, ZeroColumnSystemConsistencyDependsOnRhs) {
  Matrix a(3, 0);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(3));  // 0 = 0: the empty vector solves it
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->nullspace.size(), 0u);
  BitVec b(3);
  b.set(0, true);
  EXPECT_FALSE(a.solve(b).has_value());  // 0 = 1: inconsistent
}

TEST(Matrix, ZeroByZeroSystem) {
  Matrix a(0, 0);
  EXPECT_EQ(a.rank(), 0u);
  auto sol = a.solve(BitVec(0));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(sol->count(), 1u);
}

// ---- LiChecker ----

TEST(LiChecker, RejectsZeroAndDuplicates) {
  LiChecker li(8, 4);
  EXPECT_FALSE(li.can_add(BitVec(8)));
  BitVec v = BitVec::from_uint(8, 5);
  EXPECT_TRUE(li.can_add(v));
  li.add(v);
  EXPECT_FALSE(li.can_add(v));
}

TEST(LiChecker, Depth3RejectsPairSum) {
  LiChecker li(8, 3);
  BitVec a = BitVec::from_uint(8, 0x03);
  BitVec b = BitVec::from_uint(8, 0x05);
  li.add(a);
  li.add(b);
  EXPECT_FALSE(li.can_add(a ^ b));
  EXPECT_TRUE(li.can_add(BitVec::from_uint(8, 0x07)));
}

TEST(LiChecker, Depth4RejectsTripleSum) {
  LiChecker li(10, 4);
  BitVec a = BitVec::from_uint(10, 0x003);
  BitVec b = BitVec::from_uint(10, 0x014);
  BitVec c = BitVec::from_uint(10, 0x060);
  li.add(a);
  li.add(b);
  li.add(c);
  EXPECT_FALSE(li.can_add(a ^ b ^ c));
  // Depth 3 checker accepts the same candidate (only pair sums excluded).
  LiChecker li3(10, 3);
  li3.add(a);
  li3.add(b);
  li3.add(c);
  EXPECT_TRUE(li3.can_add(a ^ b ^ c));
}

// Regression: the pairwise XORs only serve depth >= 3 queries, so shallow
// checkers must not record the quadratic set at all.
TEST(LiChecker, ShallowDepthsSkipPairXorBookkeeping) {
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    LiChecker li(24, depth);
    Rng rng(900 + depth);
    while (li.size() < 20) {
      BitVec v = BitVec::random(24, rng);
      if (li.can_add(v)) li.add(v);
    }
    EXPECT_EQ(li.pair_xor_count(), 0u) << "depth " << depth;
  }
  // Control: depth 3 does populate it (one entry per unordered pair; at
  // 24 bits the 190 random pair sums are collision-free for this seed).
  LiChecker li3(24, 3);
  Rng rng(950);
  while (li3.size() < 20) {
    BitVec v = BitVec::random(24, rng);
    if (li3.can_add(v)) li3.add(v);
  }
  EXPECT_EQ(li3.pair_xor_count(), 20u * 19u / 2u);
}

// Property: any set accepted by LiChecker(depth d) has every subset of
// size <= d linearly independent (cross-check against Gaussian rank).
class LiCheckerPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LiCheckerPropertyTest, AllSmallSubsetsIndependent) {
  const std::size_t depth = GetParam();
  const std::size_t dim = 10;
  Rng rng(depth * 101 + 7);
  LiChecker li(dim, depth);
  while (li.size() < 12) {
    BitVec v = BitVec::random(dim, rng);
    if (li.can_add(v)) li.add(v);
  }
  const auto& vecs = li.members();
  const std::size_t n = vecs.size();
  // Enumerate all subsets of size <= depth.
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    const auto bits = static_cast<std::size_t>(__builtin_popcount(mask));
    if (bits > depth) continue;
    std::vector<BitVec> subset;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(vecs[i]);
    }
    EXPECT_TRUE(Matrix::linearly_independent(subset))
        << "dependent subset mask=" << mask << " at depth " << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, LiCheckerPropertyTest, ::testing::Values(1, 2, 3, 4));

// Differential fuzz: the word-packed path and the hash-set reference give
// the same can_add answer on every candidate of one stream, and end with
// the same members and pairwise-XOR count. Widths straddle the cutoff
// (27 and 40 are hash-set on both sides). Candidates mix zero, fresh
// random vectors and XORs of 1-4 members, so each depth's rejection
// rule fires: one member is a duplicate, two a pair sum, three a triple.
class LiCheckerDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(LiCheckerDifferentialTest, PackedMatchesReference) {
  const auto [dim, depth] = GetParam();
  LiChecker fast(dim, depth);
  LiChecker ref = LiChecker::reference(dim, depth);
  EXPECT_EQ(fast.packed(), dim <= LiChecker::kMaxPackedDim);
  EXPECT_FALSE(ref.packed());
  Rng rng(dim * 1000 + depth);
  std::size_t rejected = 0;
  for (std::size_t step = 0; step < 3000 && ref.size() < 200; ++step) {
    const std::uint64_t kind = rng.below(8);
    BitVec v(dim);
    if (kind >= 1 && kind <= 4 && ref.size() > 0) {
      for (std::uint64_t i = 0; i < kind; ++i) v ^= ref.members()[rng.below(ref.size())];
    } else if (kind != 0) {
      v = BitVec::random(dim, rng);
    }
    const bool want = ref.can_add(v);
    ASSERT_EQ(fast.can_add(v), want) << "step " << step << " candidate " << v.to_string();
    if (want) {
      fast.add(v);
      ref.add(v);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(ref.size(), 4u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(fast.members(), ref.members());
  EXPECT_EQ(fast.pair_xor_count(), ref.pair_xor_count());
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LiCheckerDifferentialTest,
    ::testing::Combine(::testing::Values(8, 13, 24, 26, 27, 40),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::size_t>>& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_depth" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tp::f2
