#pragma once
// reconstruct.hpp — the Signal Reconstruction (SR) problem and its
// SAT-based solution.
//
// SR (paper §4.2): given an encoding TS, a timeprint TP and a change count
// k, find all signals S with α̃(S) = (TP, k). In linear-algebra form: all
// x ∈ F2^m with A·x = TP and |x| = k, where A's columns are the
// timestamps. SR is NP-hard (maximum-likelihood decoding, Berlekamp–
// McEliece–van Tilborg 1978).
//
// The SAT encoding introduces one variable per clock cycle; each bit j of
// the linear system becomes one XOR clause over the variables whose
// timestamp has bit j set (negated when TP's bit j is 0); the cardinality
// constraint |x| = k uses Sinz's sequential counter, whose registers
// r[i][j] mean "at least j+1 of the first i+1 cycle variables are true"
// (both directions), so |x| = k is two units on its last row over at most
// m·(k+1) registers (sat/cardinality.hpp). Known temporal properties add
// their clauses to prune the search (paper §5.1.3). Models are enumerated
// with blocking clauses, projected onto the cycle variables.
//
// Every engine — this fresh path, check_hypothesis, the cube splitter
// (batch.hpp), the incremental template (incremental.hpp, selector rows
// and a totalizer under assumptions) and the joint decoder (joint.hpp) —
// writes that formula through the one encoder, encode_sr()
// (sr_encoder.hpp), and takes the same presolve shortcut before it:
// inconsistent → empty preimage, small nullity → direct enumeration,
// otherwise the SAT decode.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sat/allsat.hpp"
#include "sat/cardinality.hpp"
#include "sat/interface.hpp"
// solver_options() returns the sat::SolverOptions config struct by value,
// and that struct is defined in solver.hpp; no concrete sat::Solver is
// named here.
// tp-lint: allow(solver-interface-only) SolverOptions definition
#include "sat/solver.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/presolve.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

namespace tp::core {

/// Knobs of one reconstruction run. Inherits the shared solver knobs from
/// sat::SolverConfig (interface.hpp): use_gauss, gauss_max_unassigned,
/// tracer, proof — the same fields SolverOptions inherits, so
/// solver_options() no longer hand-copies them. use_gauss defaults to
/// *true* here (the paper's path; the raw solver defaults to false).
struct ReconstructionOptions : sat::SolverConfig {
  ReconstructionOptions() { use_gauss = true; }

  /// Cardinality encoding for the |x| = k constraint.
  sat::CardEncoding card_encoding = sat::CardEncoding::SequentialCounter;
  /// true: native XOR constraints (CryptoMiniSat-style, the paper's path);
  /// false: Tseitin-chained CNF (ablation).
  bool native_xor = true;
  /// Which solver backend every engine of this run builds through
  /// make_solver(): one sat::Solver, or a sat::PortfolioSolver racing
  /// `portfolio_members` diversified configurations per solve with
  /// first-wins cancellation and learnt-clause sharing. reconstruct_split
  /// always stays single-backend — cube-and-conquer is already the
  /// parallel axis there, and nesting races inside cubes oversubscribes.
  sat::SolverBackend solver_backend = sat::SolverBackend::Single;
  /// Portfolio width (ignored for the single backend).
  std::size_t portfolio_members = 4;
  /// Portfolio diversification preset (ignored for the single backend).
  sat::PortfolioDiversity portfolio_diversity = sat::PortfolioDiversity::Mixed;
  /// Stop after this many reconstructed signals (paper's .1/.10 columns).
  std::uint64_t max_solutions = UINT64_MAX;
  /// Decode streams through the incremental template engine
  /// (timeprint/incremental.hpp): the SR base is encoded once per worker
  /// and every further entry is just assumption literals, with learnt
  /// clauses, phases and activities warm-started across entries. Consumed
  /// by BatchReconstructor::reconstruct_all (per-worker template cache);
  /// Reconstructor::reconstruct and reconstruct_split keep the
  /// fresh-solver path regardless (the reference oracle). The template
  /// engine assumes on the totalizer's unary outputs whatever
  /// card_encoding says (the sequential counter's outputs were measured
  /// there and do not dominate, EXPERIMENTS.md); card_encoding selects
  /// the fresh path's encoding.
  bool incremental = false;
  /// Consult the shared F2 echelon factorization (timeprint/presolve.hpp)
  /// before emitting any CNF: an inconsistent linear system returns a
  /// complete empty preimage without a solver; a system whose nullity is
  /// at most presolve_enum_limit is decoded by direct enumeration of the
  /// affine solution space (no solver either); everything else gets the
  /// substituted encoding — rank(A) XOR definitions (pivot variable =
  /// XOR of free-column variables ⊕ constant) replace the b raw rows,
  /// constant pivots drop out of the solver entirely, enumeration
  /// projects onto the free columns and pivot values are substituted back
  /// into each model. Silently ignored when a DRAT proof sink is
  /// attached: the certified path must derive every verdict inside the
  /// solver, so it keeps the classic encoding. check_hypothesis and
  /// reconstruct_split also stay classic (single solve / cube-split over
  /// full cycle variables).
  bool presolve = true;
  /// Largest nullity the presolve decodes by direct enumeration
  /// (2^nullity candidates are walked; keep this small).
  std::size_t presolve_enum_limit = 4;
  /// Resource limits for the whole run (including `limits.interrupt`, the
  /// cooperative cancellation token honoured by every solve of the run).
  sat::SolveLimits limits;
  // Inherited from sat::SolverConfig:
  //
  //  * tracer — propagated to the SAT solver and enumeration layers, so a
  //    traced run yields "sr.reconstruct"/"sr.encode" spans wrapping
  //    "allsat.enumerate", "allsat.model" and "solver.*" lines. The
  //    tracer is thread-safe and shared by every worker of a batch run;
  //    it must outlive the run.
  //  * proof — DRAT proof sink (sat/drat.hpp). When attached, the solver
  //    logs every axiom/learnt/deleted clause of the run so an UNSAT or
  //    enumeration-complete answer can be certified by the independent
  //    checker (blocking clauses enter the axiom stream: the final UNSAT
  //    certifies "no models beyond the enumerated ones"). Requires
  //    use_gauss = false (validate() throws otherwise) and serves exactly
  //    one engine instance: the batch engines refuse it (their clones
  //    would interleave one stream); a portfolio routes it to member 0.
  /// Re-validate every enumerated signal (and every hypothesis-check
  /// witness) against A·x = TP, |x| = k and the registered properties
  /// using only f2::Matrix arithmetic (timeprint/verify.hpp), independent
  /// of the SAT encoding. A violation throws std::logic_error — it means
  /// the encoding or solver is wrong, never the input.
  bool verify_models = false;

  /// Reject inconsistent knob combinations (throws std::invalid_argument):
  /// the Gaussian engine only exists on the native-XOR path, a Gauss gate
  /// without the Gauss engine is dead, and max_solutions == 0 would make
  /// every run vacuously "complete". Called by reconstruct(),
  /// check_hypothesis() and the batch engine before encoding anything.
  void validate() const;

  /// The SolverOptions these knobs induce — since both structs inherit
  /// sat::SolverConfig this is one config-slice assignment, the single
  /// source of truth for every engine that builds a solver for an SR query
  /// (fresh, split and template paths).
  sat::SolverOptions solver_options() const;

  /// Build the selected backend (solver_backend / portfolio_members /
  /// portfolio_diversity) over solver_options() via sat::SolverFactory.
  std::unique_ptr<sat::SolverInterface> make_solver() const;
};

/// Outcome of a reconstruction run.
struct ReconstructionResult {
  /// Reconstructed signals, in discovery order.
  std::vector<Signal> signals;
  /// Unsat => enumeration complete (`signals` is the full preimage).
  sat::Status final_status = sat::Status::Unknown;
  /// Wall-clock seconds until each signal was found.
  std::vector<double> seconds_to_each;
  /// Total wall-clock seconds.
  double seconds_total = 0.0;
  /// Solver effort (aggregated over all workers for a parallel run).
  sat::SolverStats stats;
  /// Encoded problem size.
  int num_vars = 0;
  std::size_t num_clauses = 0;
  std::size_t num_xors = 0;

  /// True iff every signal of the preimage was found.
  bool complete() const { return final_status == sat::Status::Unsat; }
};

/// Verdict of a hypothesis check over all reconstructions.
enum class CheckVerdict {
  HoldsForAll,     ///< every signal explaining (TP, k) satisfies the hypothesis
  ViolatedBySome,  ///< a counterexample reconstruction exists (see witness)
  Unknown,         ///< resource limit hit
};

/// Human-readable verdict name.
const char* to_string(CheckVerdict v);

/// Result of Reconstructor::check_hypothesis.
struct CheckResult {
  CheckVerdict verdict = CheckVerdict::Unknown;
  /// A reconstruction violating the hypothesis, when ViolatedBySome.
  std::optional<Signal> witness;
  double seconds = 0.0;
  /// Solver effort.
  sat::SolverStats stats;
  /// Encoded problem size (same meaning as in ReconstructionResult).
  int num_vars = 0;
  std::size_t num_clauses = 0;
  std::size_t num_xors = 0;
};

/// Solves SR instances against one timestamp encoding, with optional known
/// properties pruning the search space.
class Reconstructor {
 public:
  /// The encoding must outlive the reconstructor. Factors the encoding's
  /// matrix once (f2::Echelonizer via F2Presolve); every query of this
  /// reconstructor shares the factorization.
  explicit Reconstructor(const TimestampEncoding& encoding)
      : enc_(&encoding),
        presolve_(std::make_shared<const F2Presolve>(encoding)) {}

  /// Register a known (verified) property; its clauses are added to every
  /// query. The property must outlive the reconstructor.
  void add_property(const Property& property) { properties_.push_back(&property); }

  /// Currently registered properties.
  const std::vector<const Property*>& properties() const { return properties_; }

  /// Enumerate signals with α̃(S) = entry, subject to the registered
  /// properties.
  ReconstructionResult reconstruct(const LogEntry& entry,
                                   const ReconstructionOptions& options = {}) const;

  /// Decide whether *every* signal explaining `entry` (under the registered
  /// properties) satisfies `hypothesis`: encodes the hypothesis' negation
  /// and asks for a counterexample; UNSAT proves the hypothesis (the
  /// paper's §5.2.1 deadline proof). Throws std::invalid_argument if the
  /// hypothesis cannot provide a negation.
  CheckResult check_hypothesis(const LogEntry& entry, const Property& hypothesis,
                               const ReconstructionOptions& options = {}) const;

  /// Exhaustive reference reconstruction: enumerate all C(m, k) subsets
  /// (tests and the didactic Figure-4 example only; m must be small).
  static std::vector<Signal> brute_force(const TimestampEncoding& encoding,
                                         const LogEntry& entry,
                                         const std::vector<const Property*>& props = {});

  /// The encoding this reconstructor solves against.
  const TimestampEncoding& encoding() const { return *enc_; }

  /// The shared F2 factorization of the encoding's matrix.
  const F2Presolve& presolve() const { return *presolve_; }

 private:
  // The template engine shares this reconstructor's factorization.
  friend class TemplateReconstructor;

  const TimestampEncoding* enc_;
  std::shared_ptr<const F2Presolve> presolve_;
  std::vector<const Property*> properties_;
};

}  // namespace tp::core
