#include "f2/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tp::f2 {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows, BitVec(cols)) {}

Matrix Matrix::from_columns(const std::vector<BitVec>& columns) {
  // An empty column list is a legal degenerate input (an m=0 trace log):
  // the 0x0 matrix, not UB. Previously this dereferenced columns.front().
  if (columns.empty()) return Matrix(0, 0);
  const std::size_t rows = columns.front().size();
  Matrix m(rows, columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    assert(columns[c].size() == rows);
    for (std::size_t r = 0; r < rows; ++r) {
      if (columns[c].get(r)) m.data_[r].set(c, true);
    }
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.data_[i].set(i, true);
  return m;
}

BitVec Matrix::column(std::size_t c) const {
  assert(c < cols_);
  BitVec v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (data_[r].get(c)) v.set(r, true);
  }
  return v;
}

BitVec Matrix::multiply(const BitVec& x) const {
  assert(x.size() == cols_);
  BitVec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (data_[r].dot(x)) out.set(r, true);
  }
  return out;
}

namespace detail {

std::vector<std::size_t> row_reduce(std::vector<BitVec>& rows,
                                    std::size_t col_limit) {
  std::vector<std::size_t> pivots;
  if (rows.empty() || col_limit == 0) return pivots;
  const std::size_t nrows = rows.size();
  assert(col_limit <= rows.front().size());

  // Stripe width: the 2^s table costs ~2^s row XORs to build and saves
  // (s - 1) row XORs per remaining row, so s ~ log2(nrows) - 2 balances
  // the two; clamped to [1, 8] (a 256-entry table already amortizes).
  std::size_t lg = 0;
  while ((std::size_t{1} << (lg + 1)) <= nrows) ++lg;
  const std::size_t stripe_max = std::clamp<std::size_t>(lg >= 2 ? lg - 2 : 1, 1, 8);

  std::size_t next_row = 0;
  std::size_t col = 0;
  while (col < col_limit && next_row < nrows) {
    // Collect a stripe of up to stripe_max pivots. Rows below next_row are
    // not yet reduced by the stripe, so a candidate's true bit at `col` is
    // its stored bit corrected by the stripe rows its stripe-column bits
    // select — exact because the stripe rows are kept mutually reduced
    // (each has 1 at its own pivot column, 0 at the others).
    const std::size_t base = next_row;
    std::vector<std::size_t> stripe_cols;
    while (col < col_limit && stripe_cols.size() < stripe_max &&
           next_row < nrows) {
      std::size_t found = nrows;
      for (std::size_t r = next_row; r < nrows && found == nrows; ++r) {
        bool bit = rows[r].get(col);
        for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
          if (rows[r].get(stripe_cols[j])) bit ^= rows[base + j].get(col);
        }
        if (bit) found = r;
      }
      if (found == nrows) {
        ++col;
        continue;
      }
      std::swap(rows[found], rows[next_row]);
      for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
        if (rows[next_row].get(stripe_cols[j])) rows[next_row] ^= rows[base + j];
      }
      for (std::size_t j = 0; j < stripe_cols.size(); ++j) {
        if (rows[base + j].get(col)) rows[base + j] ^= rows[next_row];
      }
      stripe_cols.push_back(col);
      pivots.push_back(col);
      ++next_row;
      ++col;
    }
    const std::size_t s = stripe_cols.size();
    if (s == 0) continue;  // no pivot in the remaining columns; loop exits

    // table[mask] = XOR of the stripe rows selected by mask, built with one
    // row XOR per entry via table[mask without lowest bit].
    std::vector<BitVec> table;
    table.reserve(std::size_t{1} << s);
    table.emplace_back(rows.front().size());
    for (std::size_t mask = 1; mask < (std::size_t{1} << s); ++mask) {
      const auto low = static_cast<std::size_t>(std::countr_zero(mask));
      table.push_back(table[mask & (mask - 1)] ^ rows[base + low]);
    }

    // Clear the whole stripe from every other row (Jordan: above and
    // below) with s bit reads and one table XOR per row.
    for (std::size_t r = 0; r < nrows; ++r) {
      if (r >= base && r < base + s) continue;
      std::size_t mask = 0;
      for (std::size_t j = 0; j < s; ++j) {
        if (rows[r].get(stripe_cols[j])) mask |= std::size_t{1} << j;
      }
      if (mask != 0) rows[r] ^= table[mask];
    }
  }
  return pivots;
}

}  // namespace detail

std::size_t Matrix::rank() const {
  std::vector<BitVec> rows = data_;
  return detail::row_reduce(rows, cols_).size();
}

std::optional<LinearSolution> Matrix::solve(const BitVec& b) const {
  assert(b.size() == rows_);
  // Augmented matrix [A | b] with the RHS bit kept inside the row words at
  // column index cols_ — widening is a word copy, not a per-bit loop.
  std::vector<BitVec> aug;
  aug.reserve(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    aug.push_back(data_[r].resized(cols_ + 1));
    if (b.get(r)) aug.back().set(cols_, true);
  }
  std::vector<std::size_t> pivots = detail::row_reduce(aug, cols_ + 1);
  // Inconsistent iff some pivot landed on the augmented column.
  if (!pivots.empty() && pivots.back() == cols_) return std::nullopt;

  LinearSolution sol{BitVec(cols_), {}};
  // Particular solution: free variables 0, pivot variables take the
  // augmented value of their row.
  std::vector<bool> is_pivot(cols_, false);
  for (std::size_t r = 0; r < pivots.size(); ++r) {
    is_pivot[pivots[r]] = true;
    if (aug[r].get(cols_)) sol.particular.set(pivots[r], true);
  }
  // Null-space basis: one vector per free column f — set x_f = 1 and give
  // each pivot variable the coefficient of column f in its (reduced) row.
  for (std::size_t f = 0; f < cols_; ++f) {
    if (is_pivot[f]) continue;
    BitVec v(cols_);
    v.set(f, true);
    for (std::size_t r = 0; r < pivots.size(); ++r) {
      if (aug[r].get(f)) v.set(pivots[r], true);
    }
    sol.nullspace.push_back(std::move(v));
  }
  return sol;
}

bool Matrix::linearly_independent(const std::vector<BitVec>& vectors) {
  if (vectors.empty()) return true;
  std::vector<BitVec> rows = vectors;
  return detail::row_reduce(rows, rows.front().size()).size() == vectors.size();
}

LiChecker::LiChecker(std::size_t dim, std::size_t depth)
    : LiChecker(dim, depth, dim <= kMaxPackedDim) {}

LiChecker LiChecker::reference(std::size_t dim, std::size_t depth) {
  return LiChecker(dim, depth, false);
}

LiChecker::LiChecker(std::size_t dim, std::size_t depth, bool packed)
    : dim_(dim), depth_(depth), packed_(packed) {
  assert(depth >= 1 && depth <= 4);
  if (packed_ && depth_ >= 2) seen_.assign(((std::size_t{1} << dim_) + 63) / 64, 0);
}

bool LiChecker::can_add(const BitVec& candidate) const {
  assert(candidate.size() == dim_);
  if (candidate.is_zero()) return false;                       // depth 1
  if (packed_) {
    // seen_ holds S (depth >= 2) and S ^ S (depth >= 3). A depth-4 hit
    // v ^ a == c on a member c would mean v == a ^ c, which the first
    // test already rejected, so sharing one bitmap is exact.
    const std::uint64_t v = candidate.to_uint();
    if (depth_ >= 2 && seen(v)) return false;
    if (depth_ >= 4) {
      for (const std::uint64_t a : words_) {
        if (seen(v ^ a)) return false;
      }
    }
    return true;
  }
  if (depth_ >= 2 && member_set_.contains(candidate)) return false;
  if (depth_ >= 3 && pair_xors_.contains(candidate)) return false;
  if (depth_ >= 4) {
    // {v, a, b, c} dependent <=> v ^ a == b ^ c. A hit v ^ a == a ^ b would
    // mean v == b which depth 2 already excluded, so the set test is exact.
    for (const BitVec& a : members_) {
      if (pair_xors_.contains(candidate ^ a)) return false;
    }
  }
  return true;
}

void LiChecker::add(const BitVec& v) {
  assert(can_add(v));
  if (packed_) {
    const std::uint64_t w = v.to_uint();
    if (depth_ >= 3) {
      // v ^ a is never a member (can_add), so every newly set bit is a
      // new pairwise XOR.
      for (const std::uint64_t a : words_) packed_pair_xors_ += mark(w ^ a);
    }
    if (depth_ >= 2) mark(w);
    words_.push_back(w);
    members_.push_back(v);
    return;
  }
  // Each auxiliary set is maintained only at the depths whose can_add
  // consults it; below that it would be pure O(|S|^2) ballast.
  if (depth_ >= 3) {
    for (const BitVec& a : members_) pair_xors_.insert(v ^ a);
  }
  members_.push_back(v);
  if (depth_ >= 2) member_set_.insert(v);
}

}  // namespace tp::f2
