// Tests for DIMACS(+XOR) parsing, writing, and Cnf utilities.

#include <gtest/gtest.h>

#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/drat.hpp"
#include "sat/reference.hpp"
#include "sat/solver.hpp"

namespace tp::sat {
namespace {

TEST(Dimacs, ParsesPlainCnf) {
  std::istringstream in(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n");
  Cnf cnf = parse_dimacs(in);
  EXPECT_EQ(cnf.num_vars, 3);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0], (std::vector<Lit>{mk_lit(0), ~mk_lit(1)}));
  EXPECT_EQ(cnf.clauses[1], (std::vector<Lit>{mk_lit(1), mk_lit(2)}));
  EXPECT_TRUE(cnf.xors.empty());
}

TEST(Dimacs, ParsesXorClauses) {
  std::istringstream in(
      "p cnf 3 2\n"
      "x1 2 3 0\n"
      "x-1 2 0\n");
  Cnf cnf = parse_dimacs(in);
  ASSERT_EQ(cnf.xors.size(), 2u);
  EXPECT_EQ(cnf.xors[0].first, (std::vector<Var>{0, 1, 2}));
  EXPECT_TRUE(cnf.xors[0].second);  // x1^x2^x3 = 1
  EXPECT_EQ(cnf.xors[1].first, (std::vector<Var>{0, 1}));
  EXPECT_FALSE(cnf.xors[1].second);  // ~x1^x2 = 1 <=> x1^x2 = 0
}

// Parse `text`, which must fail, and return the thrown DimacsError.
DimacsError parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    parse_dimacs(in);
  } catch (const DimacsError& e) {
    return e;
  }
  ADD_FAILURE() << "expected DimacsError for: " << text;
  return DimacsError(0, "no error");
}

TEST(Dimacs, RejectsMalformedHeader) {
  std::istringstream in("p sat 3 1\n1 0\n");
  EXPECT_THROW(parse_dimacs(in), std::runtime_error);

  const DimacsError wrong_fmt = parse_error("p sat 3 1\n1 0\n");
  EXPECT_EQ(wrong_fmt.line(), 1u);
  EXPECT_NE(std::string(wrong_fmt.what()).find("expected 'p cnf'"),
            std::string::npos);

  const DimacsError truncated = parse_error("p cnf 3\n");
  EXPECT_EQ(truncated.line(), 1u);
  EXPECT_NE(std::string(truncated.what()).find("malformed problem line"),
            std::string::npos);

  const DimacsError negative = parse_error("p cnf -3 1\n1 0\n");
  EXPECT_EQ(negative.line(), 1u);
  EXPECT_NE(std::string(negative.what()).find("negative count"),
            std::string::npos);
}

TEST(Dimacs, HeaderCountsAreCheckedNotTrusted) {
  // A huge but representable declared count allocates nothing: num_vars
  // comes from the literals the body references.
  std::istringstream in("p cnf 2000000000 1\n1 -3 0\n");
  const Cnf cnf = parse_dimacs(in);
  EXPECT_EQ(cnf.num_vars, 3);
  Solver s;
  ASSERT_TRUE(cnf.load_into(s));
  EXPECT_EQ(s.num_vars(), 3);
  EXPECT_EQ(s.solve(), Status::Sat);

  // Counts and literals that do not fit an int are rejected, not wrapped.
  const DimacsError vars = parse_error("p cnf 2147483648 1\n1 0\n");
  EXPECT_EQ(vars.line(), 1u);
  EXPECT_NE(std::string(vars.what()).find("exceeds"), std::string::npos);
  const DimacsError clauses = parse_error("p cnf 1 4294967297\n1 0\n");
  EXPECT_EQ(clauses.line(), 1u);
  const DimacsError literal = parse_error("p cnf 1 1\n-2147483648 0\n");
  EXPECT_EQ(literal.line(), 2u);
  EXPECT_NE(std::string(literal.what()).find("literal"), std::string::npos);

  // A literal must fit a Lit (2·var + sign in an int): 2^30 is the
  // largest magnitude; 2e9 used to wrap into a negative literal code.
  std::istringstream lit_max("p cnf 1 1\n-1073741824 0\n");
  EXPECT_EQ(parse_dimacs(lit_max).clauses.front().front(), Lit(1073741823, true));
  const DimacsError wide = parse_error("p cnf 1 1\n2000000000 0\n");
  EXPECT_EQ(wide.line(), 2u);
  EXPECT_NE(std::string(wide.what()).find("exceeds 1073741824"), std::string::npos);

  // INT_MAX itself is a valid count.
  std::istringstream at_max("p cnf 2147483647 0\n");
  EXPECT_EQ(parse_dimacs(at_max).num_vars, 0);
}

TEST(Dimacs, LoadAllocatesOnlyReferencedVariables) {
  // One literal naming variable 1e9 used to make load_into allocate 1e9
  // solver variables and end in std::bad_alloc.
  std::istringstream in("p cnf 1 1\n1000000000 0\n");
  const Cnf cnf = parse_dimacs(in);
  EXPECT_EQ(cnf.num_vars, 1000000000);
  EXPECT_EQ(cnf.file_vars(), std::vector<Var>{999999999});
  Solver s;
  ASSERT_TRUE(cnf.load_into(s));
  EXPECT_EQ(s.num_vars(), 1);
  ASSERT_EQ(s.solve(), Status::Sat);
  EXPECT_EQ(s.model_value(0), LBool::True);

  // Sparse clauses and XORs keep their meaning under the monotone
  // renumbering 1 -> 0, 5000 -> 1, 9000 -> 2.
  std::istringstream sparse("p cnf 9000 3\n1 -5000 0\nx5000 9000 0\n-1 0\n");
  const Cnf gaps = parse_dimacs(sparse);
  EXPECT_EQ(gaps.file_vars(), (std::vector<Var>{0, 4999, 8999}));
  Solver t;
  ASSERT_TRUE(gaps.load_into(t));
  EXPECT_EQ(t.num_vars(), 3);
  ASSERT_EQ(t.solve(), Status::Sat);
  EXPECT_EQ(t.model_value(0), LBool::False);
  EXPECT_EQ(t.model_value(1), LBool::False);
  EXPECT_EQ(t.model_value(2), LBool::True);

  // Numbering within 2x the referenced count plus kDenseSlack stays the
  // identity, unreferenced variables included.
  std::istringstream dense("p cnf 1000 1\n1000 0\n");
  EXPECT_EQ(parse_dimacs(dense).file_vars().size(), 1000u);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  std::istringstream in("p cnf 2 1\n1 2\n");
  EXPECT_THROW(parse_dimacs(in), std::runtime_error);

  // The error names the offending 1-based line, with and without a
  // trailing newline and regardless of what follows the broken clause.
  const DimacsError eof = parse_error("p cnf 2 1\n1 2");
  EXPECT_EQ(eof.line(), 2u);
  EXPECT_NE(std::string(eof.what()).find("not 0-terminated"),
            std::string::npos);
  EXPECT_NE(std::string(eof.what()).find("line 2"), std::string::npos);

  const DimacsError mid_file = parse_error("p cnf 2 3\n1 0\n1 2\n-1 0\n");
  EXPECT_EQ(mid_file.line(), 3u);

  const DimacsError in_xor = parse_error("p cnf 2 1\nx1 2\n");
  EXPECT_EQ(in_xor.line(), 2u);
}

TEST(Dimacs, RejectsJunkLiteral) {
  const DimacsError junk = parse_error("p cnf 2 1\n1 z 0\n");
  EXPECT_EQ(junk.line(), 2u);
  EXPECT_NE(std::string(junk.what()).find("got 'z'"), std::string::npos);
}

TEST(Dimacs, RejectsTrailingTokens) {
  const DimacsError trailing = parse_error("p cnf 2 1\n1 0 2\n");
  EXPECT_EQ(trailing.line(), 2u);
  EXPECT_NE(std::string(trailing.what()).find("after the terminating 0"),
            std::string::npos);
}

TEST(Dimacs, WriteParseRoundTrip) {
  Cnf cnf;
  cnf.num_vars = 5;
  cnf.clauses = {{mk_lit(0), ~mk_lit(3)}, {mk_lit(4)}};
  cnf.xors = {{{0, 1, 2}, true}, {{2, 4}, false}};

  std::ostringstream out;
  write_dimacs(cnf, out);
  std::istringstream in(out.str());
  Cnf parsed = parse_dimacs(in);

  EXPECT_EQ(parsed.num_vars, cnf.num_vars);
  EXPECT_EQ(parsed.clauses, cnf.clauses);
  EXPECT_EQ(parsed.xors, cnf.xors);
}

TEST(Dimacs, WritesEmptyXorWithParityAsEmptyClause) {
  // An empty XOR asserting parity 1 is plain falsity; the writer must not
  // silently drop it or the round-trip flips UNSAT to SAT.
  Cnf cnf;
  cnf.num_vars = 1;
  cnf.xors = {{{}, true}, {{}, false}};
  std::ostringstream out;
  write_dimacs(cnf, out);
  std::istringstream in(out.str());
  const Cnf parsed = parse_dimacs(in);
  ASSERT_EQ(parsed.clauses.size(), 1u);
  EXPECT_TRUE(parsed.clauses[0].empty());
  EXPECT_FALSE(parsed.satisfied_by({false}));
}

TEST(Dimacs, SatisfiedByChecksClausesAndXors) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.clauses = {{mk_lit(0), mk_lit(1)}};
  cnf.xors = {{{1, 2}, true}};
  EXPECT_TRUE(cnf.satisfied_by({true, false, true}));
  EXPECT_FALSE(cnf.satisfied_by({false, false, true}));   // clause fails
  EXPECT_FALSE(cnf.satisfied_by({true, true, true}));     // xor fails
}

TEST(Dimacs, LoadIntoSolverAgreesWithReference) {
  std::istringstream in(
      "p cnf 4 3\n"
      "1 2 0\n"
      "-3 4 0\n"
      "x1 3 4 0\n");
  Cnf cnf = parse_dimacs(in);
  const auto models = reference_all_models(cnf);
  Solver s;
  ASSERT_TRUE(cnf.load_into(s));
  EXPECT_EQ(s.solve(), models.empty() ? Status::Unsat : Status::Sat);
}

TEST(Dimacs, LoadIntoCanonicalizesClauses) {
  // The loader must drop tautologies and merge duplicate literals before
  // the clauses reach the solver. Observe the stream through the proof
  // axiom hook, which records clauses exactly as the solver receives them.
  std::istringstream in(
      "p cnf 3 4\n"
      "1 -1 2 0\n"   // tautology: must vanish entirely
      "2 2 3 0\n"    // duplicate literal: stored once
      "-3 1 -3 0\n"  // duplicate negative literal
      "1 2 3 0\n");  // already canonical
  Cnf cnf = parse_dimacs(in);

  MemoryProof proof;
  SolverOptions opts;
  opts.proof = &proof;
  Solver s(opts);
  EXPECT_TRUE(cnf.load_into(s));

  ASSERT_EQ(proof.formula().size(), 3u);  // tautology never arrived
  // load_into sorts by literal code (positive before negative per var).
  EXPECT_EQ(proof.formula()[0], (IntClause{2, 3}));
  EXPECT_EQ(proof.formula()[1], (IntClause{1, -3}));
  EXPECT_EQ(proof.formula()[2], (IntClause{1, 2, 3}));

  // Canonicalization must not change satisfiability.
  EXPECT_EQ(s.solve(), Status::Sat);
  const auto reference = reference_all_models(cnf);
  EXPECT_FALSE(reference.empty());
}

TEST(Dimacs, GrowsVarCountFromLiterals) {
  // Header says 2 vars but a clause mentions var 5.
  std::istringstream in("p cnf 2 1\n5 0\n");
  Cnf cnf = parse_dimacs(in);
  EXPECT_EQ(cnf.num_vars, 5);
}

}  // namespace
}  // namespace tp::sat
