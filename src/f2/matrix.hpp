#pragma once
// matrix.hpp — dense matrices and linear-system solving over F2.
//
// The reconstruction problem of the paper is, in linear-algebra form,
// "find all x in F2^m with A·x = TP and |x| = k" where the columns of A are
// the timestamps (paper §4.2). This module provides the plain linear
// algebra: rank, consistency, one particular solution and a null-space
// basis, which together describe the full (unweighted) solution set with
// 2^(m - rank) elements. The SAT layer adds the cardinality constraint.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "f2/bitvec.hpp"

namespace tp::f2 {

namespace detail {

/// Row-reduce `rows` in place to reduced row-echelon form over columns
/// [0, col_limit); columns >= col_limit never become pivots but are
/// updated by every row operation, so an augmented RHS (or a transform
/// block [A | I]) can ride along inside the row words. Returns the pivot
/// columns in increasing order; pivot row i ends up at rows[i], and rows
/// without a pivot end up zero (over [0, col_limit)) at the back.
///
/// Blocked "method of four Russians" elimination: pivots are collected in
/// stripes of up to ~log2(rows) columns, a 2^s table of stripe-row
/// combinations is built with one whole-row XOR per entry, and each
/// remaining row is cleared across the whole stripe with s bit reads plus
/// a single table XOR instead of s row XORs.
std::vector<std::size_t> row_reduce(std::vector<BitVec>& rows,
                                    std::size_t col_limit);

}  // namespace detail

/// Result of solving a linear system A·x = b over F2.
struct LinearSolution {
  /// One particular solution (any x with A·x = b).
  BitVec particular;
  /// Basis of the null space of A; the full solution set is
  /// { particular + sum of any subset of basis vectors }.
  std::vector<BitVec> nullspace;

  /// Number of solutions = 2^nullspace.size() (as long as it fits 64 bits).
  std::uint64_t count() const {
    return nullspace.size() >= 64 ? UINT64_MAX
                                  : (std::uint64_t{1} << nullspace.size());
  }
};

/// A rows × cols matrix over F2, stored row-major as BitVecs.
class Matrix {
 public:
  /// Zero matrix of the given shape.
  Matrix(std::size_t rows, std::size_t cols);

  /// Build a matrix whose columns are the given vectors (all of equal
  /// dimension, which becomes the row count). This matches the paper's
  /// A = [TS(1) | ... | TS(m)].
  static Matrix from_columns(const std::vector<BitVec>& columns);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Element access.
  bool get(std::size_t r, std::size_t c) const { return data_[r].get(c); }
  void set(std::size_t r, std::size_t c, bool v) { data_[r].set(c, v); }

  /// Row access (rows are BitVecs of dimension cols()).
  const BitVec& row(std::size_t r) const { return data_[r]; }
  BitVec& row(std::size_t r) { return data_[r]; }

  /// Column c as a BitVec of dimension rows().
  BitVec column(std::size_t c) const;

  /// Matrix-vector product A·x (x has dimension cols(), result rows()).
  BitVec multiply(const BitVec& x) const;

  /// Rank via Gaussian elimination (does not modify *this).
  std::size_t rank() const;

  /// Solve A·x = b. Returns std::nullopt when inconsistent; otherwise a
  /// particular solution plus a null-space basis describing all solutions.
  std::optional<LinearSolution> solve(const BitVec& b) const;

  /// True iff the given set of vectors is linearly independent.
  static bool linearly_independent(const std::vector<BitVec>& vectors);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<BitVec> data_;
};

/// Incrementally maintained check that every subset of size <= depth of a
/// growing set of vectors stays linearly independent ("LI-d" in the paper,
/// §4.3). Supports depth 1..4. Equivalent characterisations used:
///   depth 1: no zero vector;
///   depth 2: all vectors distinct (and nonzero);
///   depth 3: v ∉ {a ^ b} for existing pairs;
///   depth 4: v ^ a ∉ {b ^ c}  (all pairwise XORs distinct).
/// The pairwise-XOR set makes the depth-4 check O(|S|) per candidate
/// instead of O(|S|^3).
///
/// Storage depends only on the width, never on the answers, which are the
/// same on both paths:
///  * word-packed (dim <= kMaxPackedDim): members are uint64_t words and
///    the members plus their pairwise XORs share one flat bitmap over
///    F2^dim (2^dim bits, at most 8 MiB; only at depth >= 2). A candidate
///    costs one bit test, plus one per member at depth 4, with no
///    allocation; add() sets one bit per member.
///  * hash-set (wider, or reference()): unordered_sets of BitVecs, one
///    heap node per member and per pairwise XOR. A candidate costs one
///    BitVec temporary and one hash probe per member at depth 4.
/// The cutoff is where the bitmap stops paying: at dim = 26 it is 8 MiB,
/// against ~55 MB of set nodes for the m = 1024 LI-4 encoding, and each
/// extra bit doubles it.
class LiChecker {
 public:
  /// Widest dimension stored word-packed.
  static constexpr std::size_t kMaxPackedDim = 26;

  /// depth must be in [1, 4]; dim is the vector dimension b.
  LiChecker(std::size_t dim, std::size_t depth);

  /// A checker on the hash-set path at any width: the reference the
  /// word-packed path is tested against.
  static LiChecker reference(std::size_t dim, std::size_t depth);

  /// True iff the current set plus `candidate` would still be LI-depth.
  bool can_add(const BitVec& candidate) const;

  /// Add a vector (precondition: can_add(v)).
  void add(const BitVec& v);

  /// Number of vectors added so far.
  std::size_t size() const { return members_.size(); }

  /// The vectors added so far, in insertion order.
  const std::vector<BitVec>& members() const { return members_; }

  /// Number of distinct pairwise XORs. Only depths >= 3 consult them, so
  /// lower depths keep none rather than paying O(|S|^2) bookkeeping.
  std::size_t pair_xor_count() const {
    return packed_ ? packed_pair_xors_ : pair_xors_.size();
  }

  /// True iff this checker stores its set word-packed.
  bool packed() const { return packed_; }

 private:
  LiChecker(std::size_t dim, std::size_t depth, bool packed);

  bool seen(std::uint64_t x) const { return (seen_[x >> 6] >> (x & 63)) & 1u; }
  /// Sets bit x of seen_; true iff it was clear.
  bool mark(std::uint64_t x) {
    const bool fresh = !seen(x);
    seen_[x >> 6] |= std::uint64_t{1} << (x & 63);
    return fresh;
  }

  std::size_t dim_;
  std::size_t depth_;
  bool packed_;
  std::vector<BitVec> members_;
  // Word-packed path.
  std::vector<std::uint64_t> words_;  // members_, one word each
  std::vector<std::uint64_t> seen_;   // bitmap: members and pairwise XORs
  std::size_t packed_pair_xors_ = 0;
  // Hash-set path.
  std::unordered_set<BitVec> member_set_;
  std::unordered_set<BitVec> pair_xors_;
};

}  // namespace tp::f2
