#pragma once
// sr_encoder.hpp — the one SAT emission of the SR formula (paper §4.2:
// an XOR clause per timeprint bit, Sinz's counter for |x| = k, the known
// properties) and the decode steps every engine shares around it. The
// fresh path, check_hypothesis, the cube splitter, the incremental
// template and the joint decoder differ only in the SrSpec they pass:
// classic or substituted rows, constant or selector right-hand sides, a
// fixed or unary count, one window or several. Variables are created in
// one fixed order — cycle (or free-column) variables, then per row its
// selector and pivot, then the counter, then the properties' auxiliaries
// — which tests/test_golden_formula.cpp pins per engine.

#include <optional>
#include <span>
#include <vector>

#include "f2/bitvec.hpp"
#include "sat/interface.hpp"
#include "timeprint/presolve.hpp"
#include "timeprint/reconstruct.hpp"

namespace tp::core {

/// A cycle slot with no solver variable (a dropped constant pivot).
inline constexpr sat::Var kNoVar = -1;

/// One trace-cycle window of an SR formula.
struct SrWindow {
  /// Row constants, bit r for row r: TP for classic rows, T·TP for
  /// substituted rows. nullptr: each row gets a fresh selector s appended
  /// with XOR constant 0, so assuming s sets the constant per solve.
  const f2::BitVec* rhs = nullptr;
  std::size_t k = 0;  ///< |x| = k (unused under SrSpec::unary_cap)
};

struct SrSpec {
  /// One window per log entry, each over its own m cycle variables.
  /// Substituted and unary formulas have exactly one window.
  std::vector<SrWindow> windows;
  /// Substituted rows: rank(A) reduced rows, each defining its pivot over
  /// the free-column variables. A constant pivot is unit-fixed when a
  /// property needs the full cycle array, is its own selector in selector
  /// mode, and is dropped (its value pre-counted against k) otherwise.
  /// nullptr = the b classic rows of A.
  const F2Presolve* presolve = nullptr;
  /// Set: one totalizer with this many unary outputs instead of fixing k
  /// with encode_exactly(options.card_encoding).
  std::optional<std::size_t> unary_cap;

  /// The fresh path's formula for one entry (rhs is TP, or T·TP with
  /// `presolve`).
  static SrSpec fixed(const f2::BitVec& rhs, std::size_t k,
                      const F2Presolve* presolve = nullptr) {
    return {{{&rhs, k}}, presolve, std::nullopt};
  }
};

struct SrFormula {
  /// The span's cycle variables (kNoVar: a dropped constant pivot); the
  /// properties are encoded over this array.
  std::vector<sat::Var> cycle_vars;
  /// Substituted rows: the free-column variables in free_cols() order, the
  /// projection whose models F2Presolve::expand() completes.
  std::vector<sat::Var> free_vars;
  std::vector<sat::Var> selectors;  ///< selector mode: one per row
  std::vector<sat::Lit> card_outs;  ///< unary mode: o[j] = "at least j+1"
  bool ok = true;                   ///< false iff already unsatisfiable
};

/// Emit rows, cardinality and then `properties` into `solver`;
/// options.native_xor picks native XOR rows or their CNF translation.
SrFormula encode_sr(sat::SolverInterface& solver, const TimestampEncoding& encoding,
                    const SrSpec& spec, const std::vector<const Property*>& properties,
                    const ReconstructionOptions& options);

/// The presolve shortcut every engine takes before building a solver:
/// an inconsistent system has a complete empty preimage, and nullity(A) <=
/// options.presolve_enum_limit is decoded by walking the affine solution
/// space (max_solutions and verify_models honoured). std::nullopt: the
/// entry needs a solver. Sets no solver sizes and emits no trace events.
std::optional<ReconstructionResult> presolve_shortcut(
    const F2Presolve& presolve, const F2Presolve::Analysis& analysis,
    const TimestampEncoding& encoding, const LogEntry& entry,
    const std::vector<const Property*>& properties,
    const ReconstructionOptions& options);

/// The one model→Signal step. A model assigns the free-column variables
/// when `analysis` is given (expanded through `presolve`), the span's cycle
/// variables otherwise. With `verify`, require_verified runs against
/// `windows` and `properties`.
std::vector<Signal> signals_from_models(
    const std::vector<std::vector<bool>>& models, const TimestampEncoding& encoding,
    std::span<const LogEntry> windows, const std::vector<const Property*>& properties,
    bool verify, const F2Presolve* presolve = nullptr,
    const F2Presolve::Analysis* analysis = nullptr);

}  // namespace tp::core
