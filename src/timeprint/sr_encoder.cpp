#include "timeprint/sr_encoder.hpp"

#include <cassert>
#include <chrono>

#include "sat/cardinality.hpp"
#include "sat/xor_to_cnf.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {

using sat::Lit;
using sat::mk_lit;
using sat::Var;

SrFormula encode_sr(sat::SolverInterface& solver, const TimestampEncoding& encoding,
                    const SrSpec& spec, const std::vector<const Property*>& properties,
                    const ReconstructionOptions& options) {
  const std::size_t m = encoding.m();
  const std::size_t b = encoding.width();
  assert(!spec.windows.empty());
  assert(spec.windows.size() == 1 || (spec.presolve == nullptr && !spec.unary_cap));

  SrFormula f;
  auto add_row = [&](std::vector<Var> vars, bool rhs) {
    f.ok = (options.native_xor ? solver.add_xor(std::move(vars), rhs)
                               : sat::add_xor_as_cnf(solver, vars, rhs)) &&
           f.ok;
  };
  auto new_selector = [&](const SrWindow& win) {
    if (win.rhs != nullptr) return kNoVar;
    const Var s = solver.new_var();
    f.selectors.push_back(s);
    return s;
  };

  const f2::Echelonizer* ech =
      spec.presolve != nullptr ? &spec.presolve->echelon() : nullptr;
  if (ech != nullptr) {
    f.cycle_vars.assign(m, kNoVar);
    f.free_vars.reserve(ech->nullity());
    for (std::size_t c : ech->free_cols()) {
      f.cycle_vars[c] = solver.new_var();
      f.free_vars.push_back(f.cycle_vars[c]);
    }
  } else {
    const std::size_t span = spec.windows.size() * m;
    f.cycle_vars.reserve(span);
    for (std::size_t i = 0; i < span; ++i) f.cycle_vars.push_back(solver.new_var());
  }

  for (std::size_t w = 0; w < spec.windows.size(); ++w) {
    const SrWindow& win = spec.windows[w];
    if (win.rhs != nullptr) require_timeprint_width(*win.rhs, b);
    const Var* x = f.cycle_vars.data() + w * m;
    // Constant pivots without a variable: their value 1 is a change already
    // spent, so the window's count shrinks by fixed_ones.
    std::size_t fixed_ones = 0;
    if (ech == nullptr) {
      // A·x = TP: one XOR per timeprint bit over the cycles that set it.
      for (std::size_t j = 0; j < b; ++j) {
        std::vector<Var> row;
        for (std::size_t i = 0; i < m; ++i) {
          if (encoding.timestamp(i).get(j)) row.push_back(x[i]);
        }
        const Var s = new_selector(win);
        if (s != kNoVar) row.push_back(s);
        add_row(std::move(row), win.rhs != nullptr && win.rhs->get(j));
      }
    } else {
      // Properties constrain the full cycle array, so with any registered
      // a constant pivot must exist as a (unit-fixed) variable.
      const bool keep_constant_pivots = !properties.empty();
      for (std::size_t r = 0; r < ech->rank(); ++r) {
        const f2::BitVec& reduced = ech->reduced_rows()[r];
        const std::size_t pivot = ech->pivot_cols()[r];
        const bool c = win.rhs != nullptr && win.rhs->get(r);
        std::vector<Var> row;
        for (std::size_t col : ech->free_cols()) {
          if (reduced.get(col)) row.push_back(f.cycle_vars[col]);
        }
        const Var s = new_selector(win);
        if (row.empty() && s != kNoVar) {
          f.cycle_vars[pivot] = s;  // pivot = selector: no variable, no row
          continue;
        }
        if (row.empty() && !keep_constant_pivots) {
          if (c) ++fixed_ones;
          continue;
        }
        const Var y = solver.new_var();
        f.cycle_vars[pivot] = y;
        if (row.empty()) {
          f.ok = solver.add_clause({Lit(y, /*negated=*/!c)}) && f.ok;
          continue;
        }
        row.push_back(y);
        if (s != kNoVar) row.push_back(s);
        add_row(std::move(row), c);
      }
      if (fixed_ones > win.k) {  // forced changes already exceed k
        f.ok = false;
        return f;
      }
    }

    std::vector<Lit> lits;
    lits.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (x[i] != kNoVar) lits.push_back(mk_lit(x[i]));
    }
    if (spec.unary_cap) {
      f.card_outs =
          sat::totalizer_outputs(solver, lits, static_cast<int>(*spec.unary_cap));
    } else {
      f.ok = sat::encode_exactly(solver, lits, static_cast<int>(win.k - fixed_ones),
                                 options.card_encoding) &&
             f.ok;
    }
  }

  for (const Property* p : properties) f.ok = p->encode(solver, f.cycle_vars) && f.ok;
  return f;
}

std::optional<ReconstructionResult> presolve_shortcut(
    const F2Presolve& presolve, const F2Presolve::Analysis& analysis,
    const TimestampEncoding& encoding, const LogEntry& entry,
    const std::vector<const Property*>& properties,
    const ReconstructionOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ReconstructionResult result;
  if (!analysis.consistent) {
    // A·x = TP has no solution even without the weight constraint.
    result.final_status = sat::Status::Unsat;
    return result;
  }
  if (presolve.nullity() > options.presolve_enum_limit) return std::nullopt;
  // The whole affine solution space is small: walk it, filtering on
  // |x| = k and the properties. Zero solver variables.
  F2Presolve::Decoded dec = presolve.decode_by_enumeration(
      analysis, entry.k, properties, options.max_solutions);
  result.signals = std::move(dec.signals);
  result.final_status = dec.truncated ? sat::Status::Sat : sat::Status::Unsat;
  if (options.verify_models) {
    require_verified(encoding, entry, result.signals, properties);
  }
  result.seconds_total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.seconds_to_each.assign(result.signals.size(), result.seconds_total);
  return result;
}

std::vector<Signal> signals_from_models(
    const std::vector<std::vector<bool>>& models, const TimestampEncoding& encoding,
    std::span<const LogEntry> windows, const std::vector<const Property*>& properties,
    bool verify, const F2Presolve* presolve, const F2Presolve::Analysis* analysis) {
  std::vector<Signal> signals;
  signals.reserve(models.size());
  for (const std::vector<bool>& model : models) {
    if (analysis != nullptr) {
      signals.push_back(Signal::from_bits(presolve->expand(*analysis, model)));
      continue;
    }
    Signal s(windows.size() * encoding.m());
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i]) s.set_change(i);
    }
    signals.push_back(std::move(s));
  }
  if (verify) require_verified(encoding, windows, signals, properties);
  return signals;
}

}  // namespace tp::core
