#include "timeprint/incremental.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/allsat.hpp"
#include "timeprint/sr_encoder.hpp"

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::Status;
using sat::Var;

namespace {

// stats() is cumulative over the solver's lifetime; an entry's effort is
// the difference against the snapshot taken before its solve.
sat::SolverStats stats_delta(const sat::SolverStats& after,
                             const sat::SolverStats& before) {
  sat::SolverStats d;
  d.conflicts = after.conflicts - before.conflicts;
  d.decisions = after.decisions - before.decisions;
  d.propagations = after.propagations - before.propagations;
  d.xor_propagations = after.xor_propagations - before.xor_propagations;
  d.restarts = after.restarts - before.restarts;
  d.learnt_clauses = after.learnt_clauses - before.learnt_clauses;
  d.removed_clauses = after.removed_clauses - before.removed_clauses;
  d.minimized_literals = after.minimized_literals - before.minimized_literals;
  d.gauss_runs = after.gauss_runs - before.gauss_runs;
  d.inprocess_rounds = after.inprocess_rounds - before.inprocess_rounds;
  return d;
}

}  // namespace

TemplateReconstructor::TemplateReconstructor(const Reconstructor& reconstructor,
                                             const ReconstructionOptions& options,
                                             std::size_t k_max)
    : enc_(reconstructor.enc_),
      properties_(reconstructor.properties_),
      options_(options),
      k_max_(k_max == 0 ? reconstructor.enc_->m() : k_max),
      presolve_(reconstructor.presolve_) {
  options_.validate();
  build();
}

TemplateReconstructor::TemplateReconstructor(const TemplateReconstructor& other)
    : enc_(other.enc_),
      properties_(other.properties_),
      options_(other.options_),
      k_max_(other.k_max_),
      presolve_(other.presolve_),
      presolved_base_(other.presolved_base_),
      solver_(other.solver_->clone()),
      cycle_vars_(other.cycle_vars_),
      selectors_(other.selectors_),
      card_outs_(other.card_outs_),
      encode_ok_(other.encode_ok_) {}

std::unique_ptr<TemplateReconstructor> TemplateReconstructor::clone() const {
  return std::unique_ptr<TemplateReconstructor>(new TemplateReconstructor(*this));
}

void TemplateReconstructor::build() {
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("incremental.template_builds");

  // A template master's formula is solved thousands of times, so the
  // front-end trade-off shifts: a BVE step that *grows* the clause count
  // taxes every future propagation for a one-time variable saving. Run
  // the preprocessor NiVER-style — strictly shrinking eliminations only.
  ReconstructionOptions master_options = options_;
  master_options.preprocess_bve_growth = 0;
  solver_ = master_options.make_solver();

  // Selector rows (rhs 0, s_j appended) and one shared totalizer to k_max:
  // per entry, TP (or, substituted, T·TP) becomes selector assumptions and
  // |x| = k the two assumptions o[k-1] ("at least k") and ~o[k] ("not at
  // least k+1"); cap = k_max+1 so the upper-bound literal exists for
  // k = k_max. The substituted base has rank(A) rows instead of b, the
  // b - rank(A) dependent rows being exactly the per-entry consistency
  // check on T·TP; a constant pivot is its own selector.
  presolved_base_ = options_.presolve && options_.proof == nullptr;
  const std::size_t m = enc_->m();
  SrSpec spec;
  spec.windows = {SrWindow{}};
  spec.presolve = presolved_base_ ? presolve_.get() : nullptr;
  spec.unary_cap = k_max_ + 1 < m ? k_max_ + 1 : m;
  SrFormula formula = encode_sr(*solver_, *enc_, spec, properties_, options_);
  cycle_vars_ = std::move(formula.cycle_vars);
  selectors_ = std::move(formula.selectors);
  card_outs_ = std::move(formula.card_outs);

  // Hard-freeze only the *assumption-bearing* variables: per-entry
  // assumptions land on the selectors and the totalizer outputs. Cycle
  // variables stay eliminable — a preprocessing front-end restores them
  // on demand when an AllSAT blocking clause mentions one, and per-entry
  // models are reconstructed through the stashed witness clauses, so
  // signal sets stay bit-identical to the classic path. (Guard literals
  // are created per entry, after the build, so they are never candidates
  // for elimination in the first place.)
  for (Var s : selectors_) solver_->freeze(s);
  for (Lit o : card_outs_) solver_->freeze(o.var());

  // Preprocess-once: finalize the master now, so per-entry solves (and
  // every clone() this template serves as a cache master for) start from
  // the already-preprocessed, densely renumbered formula.
  solver_->prepare();

  std::int64_t eliminated = 0;
  for (Var v : cycle_vars_) {
    if (solver_->var_eliminated(v)) ++eliminated;
  }
  static obs::Gauge& cycle_elim = obs::MetricsRegistry::global().gauge(
      "incremental.cycle_vars_eliminated");
  cycle_elim.set(eliminated);

  encode_ok_ = formula.ok && solver_->okay();
  ++stats_.builds;
  builds.add(1);
}

ReconstructionResult TemplateReconstructor::reconstruct(const LogEntry& entry) {
  static obs::Counter& learnt_retained =
      obs::MetricsRegistry::global().counter("incremental.learnt_retained");

  require_timeprint_width(entry.tp, enc_->width());
  const std::size_t m = enc_->m();

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  obs::Tracer::Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->span(
        "sr.reconstruct",
        {{"m", static_cast<std::uint64_t>(m)},
         {"k", static_cast<std::uint64_t>(entry.k)},
         {"properties", static_cast<std::uint64_t>(properties_.size())},
         {"engine", "template"}});
  }

  ReconstructionResult result;
  auto record_size = [&] {
    result.num_vars = solver_->num_vars();
    result.num_clauses = solver_->num_clauses();
    result.num_xors = solver_->num_xors();
  };
  auto finish = [&](const char* event) {
    result.seconds_total =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (event != nullptr && options_.tracer != nullptr) options_.tracer->event(event);
    if (span.active()) {
      span.add("signals", static_cast<std::uint64_t>(result.signals.size()));
      span.add("status", sat::to_string(result.final_status));
      span.finish();
    }
    return std::move(result);
  };

  ++stats_.entries;
  if (stats_.entries > 1) {
    const auto retained = static_cast<std::int64_t>(solver_->num_learnts());
    stats_.learnt_retained += retained;
    learnt_retained.add(retained);
  }

  // k > m needs no solver at all — the preimage is empty.
  if (entry.k > m) {
    result.final_status = Status::Unsat;
    record_size();
    return finish("sr.trivial_unsat");
  }
  // Presolved fast paths, shared with the fresh and batch engines: an
  // inconsistent linear system has a complete empty preimage, and a
  // small-nullity encoding is decoded by walking the affine solution
  // space directly — neither touches the solver.
  F2Presolve::Analysis analysis;
  if (presolved_base_) {
    analysis = presolve_->analyze(entry.tp);
    if (std::optional<ReconstructionResult> shortcut = presolve_shortcut(
            *presolve_, analysis, *enc_, entry, properties_, options_)) {
      result = std::move(*shortcut);
      record_size();
      return finish(analysis.consistent ? "sr.presolve_decode" : "sr.presolve_unsat");
    }
  }

  // A change count above k_max needs totalizer outputs the template never
  // built: rebuild once at the safe maximum and keep serving from there.
  if (entry.k > k_max_) {
    k_max_ = m;
    build();
    // Rebuild edge of the inprocessing schedule: tighten the fresh base
    // once before the stream resumes.
    solver_->inprocess();
    ++stats_.inprocess_rounds;
  }

  record_size();
  if (!encode_ok_) {
    // The base itself (properties vs. structure) is contradictory: every
    // entry has an empty, complete preimage.
    result.final_status = Status::Unsat;
    return finish("sr.trivial_unsat");
  }

  sat::AllSatOptions as;
  as.max_models = options_.max_solutions;
  as.limits = options_.limits;
  as.tracer = options_.tracer;
  as.fixed_weight = entry.k;
  // Selector r carries row r's constant: bit r of TP, or of the
  // transformed timeprint T·TP on the substituted base.
  const f2::BitVec& rhs = presolved_base_ ? analysis.transformed : entry.tp;
  as.assumptions.reserve(selectors_.size() + 2);
  for (std::size_t r = 0; r < selectors_.size(); ++r) {
    as.assumptions.push_back(Lit(selectors_[r], /*negated=*/!rhs.get(r)));
  }
  if (entry.k >= 1) as.assumptions.push_back(card_outs_[entry.k - 1]);
  if (entry.k < card_outs_.size()) as.assumptions.push_back(~card_outs_[entry.k]);

  // Fresh guard per entry; retired below so this entry's blocking clauses
  // cannot constrain the next one.
  const Lit guard = mk_lit(solver_->new_var());
  as.guard = guard;

  const sat::SolverStats before = solver_->stats();
  const sat::AllSatResult models =
      sat::enumerate_models(*solver_, cycle_vars_, as);
  // Retire the entry: fixing ¬guard root-satisfies this run's blocking
  // clauses (and any learnt clause carrying ¬guard); simplify() then sweeps
  // that ballast out of the databases so the solver's propagation cost
  // stays flat over arbitrarily long entry streams. Every
  // inprocess_interval entries the sweep is upgraded to a budgeted
  // inprocess() round (backward subsumption + failed-literal probing on
  // top of the vivifying simplify()).
  solver_->add_clause({~guard});
  const std::uint32_t interval = options_.inprocess_interval;
  if (interval != 0 && stats_.entries % interval == 0) {
    solver_->inprocess();
    ++stats_.inprocess_rounds;
  } else {
    solver_->simplify();
  }
  result.stats = stats_delta(solver_->stats(), before);

  result.final_status = models.final_status;
  result.seconds_to_each = models.seconds_to_model;
  result.signals = signals_from_models(models.models, *enc_, {&entry, 1},
                                       properties_, options_.verify_models);
  return finish(nullptr);
}

}  // namespace tp::core
