#include "timeprint/reconstruct.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timeprint/sr_encoder.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {

using sat::SolverInterface;
using sat::Status;
using sat::Var;

void ReconstructionOptions::validate() const {
  if (use_gauss && !native_xor) {
    throw std::invalid_argument(
        "ReconstructionOptions: use_gauss requires native_xor (the Gaussian "
        "engine operates on native XOR rows, not their CNF translation)");
  }
  if (gauss_max_unassigned != 0 && !use_gauss) {
    throw std::invalid_argument(
        "ReconstructionOptions: gauss_max_unassigned is set but use_gauss is "
        "false");
  }
  if (max_solutions == 0) {
    throw std::invalid_argument(
        "ReconstructionOptions: max_solutions must be at least 1");
  }
  if (proof != nullptr && use_gauss) {
    throw std::invalid_argument(
        "ReconstructionOptions: proof logging is incompatible with use_gauss "
        "(DRAT cannot express Gaussian row-combination reasoning)");
  }
  if (solver_backend == sat::SolverBackend::Portfolio && portfolio_members == 0) {
    throw std::invalid_argument(
        "ReconstructionOptions: a portfolio needs at least one member");
  }
}

sat::SolverOptions ReconstructionOptions::solver_options() const {
  sat::SolverOptions so;
  static_cast<sat::SolverConfig&>(so) = *this;  // the shared knob slice
  return so;
}

std::unique_ptr<sat::SolverInterface> ReconstructionOptions::make_solver() const {
  sat::PortfolioOptions popts;
  popts.members = portfolio_members;
  popts.diversity = portfolio_diversity;
  return sat::SolverFactory::make(solver_backend, solver_options(), popts);
}

const char* to_string(CheckVerdict v) {
  switch (v) {
    case CheckVerdict::HoldsForAll: return "holds-for-all";
    case CheckVerdict::ViolatedBySome: return "violated-by-some";
    case CheckVerdict::Unknown: return "unknown";
  }
  return "?";
}

ReconstructionResult Reconstructor::reconstruct(
    const LogEntry& entry, const ReconstructionOptions& options) const {
  options.validate();
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("sr.reconstructions");
  static obs::Counter& signals_total =
      obs::MetricsRegistry::global().counter("sr.signals");
  static obs::Timing& run_time =
      obs::MetricsRegistry::global().timing("sr.reconstruct_seconds");

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  obs::Tracer::Span span;
  if (options.tracer != nullptr) {
    span = options.tracer->span(
        "sr.reconstruct",
        {{"m", static_cast<std::uint64_t>(enc_->m())},
         {"k", static_cast<std::uint64_t>(entry.k)},
         {"properties", static_cast<std::uint64_t>(properties_.size())}});
  }

  ReconstructionResult result;
  auto finish = [&](ReconstructionResult& r) {
    runs.add(1);
    signals_total.add(static_cast<std::int64_t>(r.signals.size()));
    run_time.observe(r.seconds_total);
    if (span.active()) {
      span.add("signals", static_cast<std::uint64_t>(r.signals.size()));
      span.add("status", sat::to_string(r.final_status));
      span.finish();
    }
  };

  // The certified path keeps the classic encoding: every verdict must be
  // derivable inside the solver for the DRAT stream to check out.
  const bool use_presolve = options.presolve && options.proof == nullptr;
  F2Presolve::Analysis analysis;
  if (use_presolve) {
    analysis = presolve_->analyze(entry.tp);
    if (std::optional<ReconstructionResult> shortcut = presolve_shortcut(
            *presolve_, analysis, *enc_, entry, properties_, options)) {
      result = std::move(*shortcut);
      if (options.tracer != nullptr) {
        options.tracer->event(
            analysis.consistent ? "sr.presolve_decode" : "sr.presolve_unsat",
            {{"signals", static_cast<std::uint64_t>(result.signals.size())}});
      }
      finish(result);
      return result;
    }
  }

  const std::unique_ptr<SolverInterface> solver_ptr = options.make_solver();
  SolverInterface& solver = *solver_ptr;
  obs::Tracer::Span encode_span;
  if (options.tracer != nullptr) encode_span = options.tracer->span("sr.encode");
  // Only the enumeration projection outlives the encoding: the free
  // columns (substituted; the pivots are substituted back into each model)
  // or the cycle variables.
  std::vector<Var> projection;
  bool encode_ok = false;
  {
    SrFormula formula = encode_sr(
        solver, *enc_,
        use_presolve ? SrSpec::fixed(analysis.transformed, entry.k, presolve_.get())
                     : SrSpec::fixed(entry.tp, entry.k),
        properties_, options);
    encode_ok = formula.ok;
    projection = std::move(use_presolve ? formula.free_vars : formula.cycle_vars);
  }
  if (encode_span.active()) {
    encode_span.add("ok", encode_ok);
    encode_span.add("presolved", use_presolve);
    encode_span.add("vars", static_cast<std::int64_t>(solver.num_vars()));
    encode_span.add("clauses", static_cast<std::uint64_t>(solver.num_clauses()));
    encode_span.add("xors", static_cast<std::uint64_t>(solver.num_xors()));
    encode_span.finish();
  }

  result.num_vars = solver.num_vars();
  result.num_clauses = solver.num_clauses();
  result.num_xors = solver.num_xors();

  if (!encode_ok || !solver.okay()) {
    // The encoding itself is contradictory (e.g. k > m, or a property that
    // cannot coexist with the cardinality bound): the preimage is empty and
    // complete. Don't spin up the enumeration machinery.
    result.final_status = Status::Unsat;
    result.stats = solver.stats();
    result.seconds_total =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (options.tracer != nullptr) options.tracer->event("sr.trivial_unsat");
  } else {
    sat::AllSatOptions as;
    as.max_models = options.max_solutions;
    as.limits = options.limits;
    as.with_config(options);
    const sat::AllSatResult models = sat::enumerate_models(solver, projection, as);

    result.final_status = models.final_status;
    result.seconds_to_each = models.seconds_to_model;
    result.seconds_total = models.seconds_total;
    result.stats = solver.stats();
    result.signals = signals_from_models(
        models.models, *enc_, {&entry, 1}, properties_, options.verify_models,
        presolve_.get(), use_presolve ? &analysis : nullptr);
  }

  finish(result);
  return result;
}

CheckResult Reconstructor::check_hypothesis(const LogEntry& entry,
                                            const Property& hypothesis,
                                            const ReconstructionOptions& options) const {
  options.validate();
  const std::unique_ptr<Property> negated = hypothesis.negation();
  if (negated == nullptr) {
    throw std::invalid_argument("check_hypothesis: property '" +
                                hypothesis.describe() +
                                "' does not provide a negation");
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  obs::Tracer::Span span;
  if (options.tracer != nullptr) {
    span = options.tracer->span(
        "sr.check",
        {{"m", static_cast<std::uint64_t>(enc_->m())},
         {"k", static_cast<std::uint64_t>(entry.k)},
         {"hypothesis", hypothesis.describe()}});
  }

  const std::unique_ptr<SolverInterface> solver_ptr = options.make_solver();
  SolverInterface& solver = *solver_ptr;
  std::vector<const Property*> properties = properties_;
  properties.push_back(negated.get());
  const SrFormula formula =
      encode_sr(solver, *enc_, SrSpec::fixed(entry.tp, entry.k), properties, options);
  const std::vector<Var>& cycle_vars = formula.cycle_vars;

  CheckResult result;
  result.num_vars = solver.num_vars();
  result.num_clauses = solver.num_clauses();
  result.num_xors = solver.num_xors();

  if (!formula.ok || !solver.okay()) {
    // No assignment satisfies the encoding plus the negated hypothesis —
    // vacuously, every reconstruction satisfies the hypothesis. Skip the
    // solve (which would only rediscover the root-level conflict).
    result.verdict = CheckVerdict::HoldsForAll;
    result.stats = solver.stats();
    result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    if (options.tracer != nullptr) options.tracer->event("sr.trivial_unsat");
    if (span.active()) {
      span.add("verdict", to_string(result.verdict));
      span.finish();
    }
    return result;
  }

  const Status st = solver.solve(options.limits);

  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.stats = solver.stats();
  switch (st) {
    case Status::Unsat:
      result.verdict = CheckVerdict::HoldsForAll;
      break;
    case Status::Sat: {
      result.verdict = CheckVerdict::ViolatedBySome;
      Signal witness(enc_->m());
      for (std::size_t i = 0; i < cycle_vars.size(); ++i) {
        if (solver.model_value(cycle_vars[i]) == sat::LBool::True) {
          witness.set_change(i);
        }
      }
      if (options.verify_models) {
        // The witness must be a genuine preimage member that violates the
        // hypothesis; re-check both halves independently of the encoding.
        require_verified(*enc_, entry, {witness}, properties_);
        if (hypothesis.holds(witness)) {
          throw std::logic_error(
              "model verification failed: check_hypothesis witness satisfies "
              "the hypothesis it should violate");
        }
      }
      result.witness = std::move(witness);
      break;
    }
    case Status::Unknown:
      result.verdict = CheckVerdict::Unknown;
      break;
  }
  if (span.active()) {
    span.add("verdict", to_string(result.verdict));
    span.finish();
  }
  return result;
}

namespace {

// Recursively choose the remaining changes of a k-subset, maintaining the
// running timeprint, and collect matching signals.
void brute_force_rec(const TimestampEncoding& enc, const LogEntry& entry,
                     const std::vector<const Property*>& props, std::size_t next,
                     std::size_t chosen, f2::BitVec& acc,
                     std::vector<std::size_t>& picks, std::vector<Signal>& out) {
  const std::size_t m = enc.m();
  if (chosen == entry.k) {
    if (acc == entry.tp) {
      Signal s = Signal::from_change_cycles(m, picks);
      for (const Property* p : props) {
        if (!p->holds(s)) return;
      }
      out.push_back(std::move(s));
    }
    return;
  }
  if (m - next < entry.k - chosen) return;  // not enough cycles left
  for (std::size_t i = next; i < m; ++i) {
    acc ^= enc.timestamp(i);
    picks.push_back(i);
    brute_force_rec(enc, entry, props, i + 1, chosen + 1, acc, picks, out);
    picks.pop_back();
    acc ^= enc.timestamp(i);
  }
}

}  // namespace

std::vector<Signal> Reconstructor::brute_force(
    const TimestampEncoding& encoding, const LogEntry& entry,
    const std::vector<const Property*>& props) {
  std::vector<Signal> out;
  f2::BitVec acc(encoding.width());
  std::vector<std::size_t> picks;
  brute_force_rec(encoding, entry, props, 0, 0, acc, picks, out);
  return out;
}

}  // namespace tp::core
