#pragma once
// dimacs.hpp — reading/writing DIMACS CNF extended with XOR clauses.
//
// The extension follows CryptoMiniSat's convention: a line starting with
// 'x' is an XOR clause, e.g. "x1 2 -3 0" means x1 ⊕ x2 ⊕ ¬x3 = true.
// Negating a literal flips the parity of the constraint, so every XOR
// clause normalizes to (set of variables, required parity).

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sat/interface.hpp"
#include "sat/types.hpp"

namespace tp::sat {

/// Parse failure with the 1-based input line it occurred on. what() is
/// "dimacs: line N: <detail>"; line() gives N for programmatic use.
class DimacsError : public std::runtime_error {
 public:
  DimacsError(std::size_t line, const std::string& detail)
      : std::runtime_error("dimacs: line " + std::to_string(line) + ": " +
                           detail),
        line_(line) {}

  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// A problem in memory: plain clauses plus normalized XOR constraints.
/// Used as the neutral exchange format between DIMACS files, the CDCL
/// solver and the brute-force reference solver.
struct Cnf {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  /// Each entry: (variables, parity) meaning XOR of variables == parity.
  std::vector<std::pair<std::vector<Var>, bool>> xors;

  /// Grow num_vars to cover variable v.
  void ensure_var(Var v) {
    if (v + 1 > num_vars) num_vars = v + 1;
  }

  /// The file variable behind each solver variable load_into creates, in
  /// increasing order. This is the identity 0..num_vars-1 while num_vars
  /// is at most twice the number of distinct variables the clauses and
  /// XORs reference plus kDenseSlack, so dense files and hand-built
  /// problems keep their numbering. Beyond that only the referenced
  /// variables get solver variables: a body naming variable 1e9 once costs
  /// one solver variable, not 1e9.
  std::vector<Var> file_vars() const;

  /// Add every clause and XOR to a solver (native XOR path), file variable
  /// file_vars()[i] as solver variable i. Returns false iff the solver
  /// became unsatisfiable.
  bool load_into(SolverInterface& solver) const;

  /// Unreferenced variables file_vars() keeps solver variables for.
  static constexpr int kDenseSlack = 1024;

  /// True iff the given full assignment satisfies all clauses and XORs.
  bool satisfied_by(const std::vector<bool>& assignment) const;
};

/// Parse extended DIMACS. Throws DimacsError (a std::runtime_error whose
/// message carries the offending 1-based line number) on malformed input:
/// a bad problem line (including a count above INT_MAX), a literal whose
/// magnitude exceeds 2^30 (the largest variable a Lit can name), a clause
/// without its terminating 0, non-numeric junk inside a clause, or tokens
/// after the terminating 0. num_vars is the largest
/// variable the body references; the header's counts are checked but not
/// trusted.
Cnf parse_dimacs(std::istream& in);

/// Write extended DIMACS.
void write_dimacs(const Cnf& cnf, std::ostream& out);

}  // namespace tp::sat
