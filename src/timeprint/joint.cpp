#include "timeprint/joint.hpp"

#include <memory>
#include <stdexcept>

#include "timeprint/sr_encoder.hpp"

namespace tp::core {

ReconstructionResult JointReconstructor::reconstruct(
    const std::vector<LogEntry>& entries, const ReconstructionOptions& options) const {
  options.validate();
  if (entries.empty()) {
    throw std::invalid_argument("JointReconstructor: no log entries to decode");
  }

  const std::unique_ptr<sat::SolverInterface> solver_ptr = options.make_solver();
  sat::SolverInterface& solver = *solver_ptr;
  // Window w owns span cycles [w·m, (w+1)·m): its own rows and count; the
  // properties range over the whole span.
  SrSpec spec;
  for (const LogEntry& e : entries) spec.windows.push_back({&e.tp, e.k});
  const SrFormula formula = encode_sr(solver, *enc_, spec, properties_, options);

  // Sizes and effort are read after the enumeration, blocking clauses
  // included.
  ReconstructionResult result;
  auto record = [&] {
    result.stats = solver.stats();
    result.num_vars = solver.num_vars();
    result.num_clauses = solver.num_clauses();
    result.num_xors = solver.num_xors();
  };
  if (!formula.ok || !solver.okay()) {
    result.final_status = sat::Status::Unsat;  // empty and complete
    record();
    return result;
  }

  sat::AllSatOptions as;
  as.max_models = options.max_solutions;
  as.limits = options.limits;
  as.with_config(options);
  const sat::AllSatResult models =
      sat::enumerate_models(solver, formula.cycle_vars, as);

  result.final_status = models.final_status;
  result.seconds_to_each = models.seconds_to_model;
  result.seconds_total = models.seconds_total;
  record();
  result.signals = signals_from_models(models.models, *enc_, entries, properties_,
                                       options.verify_models);
  return result;
}

}  // namespace tp::core
