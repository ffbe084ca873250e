#include "timeprint/presolve.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace tp::core {

void require_timeprint_width(const f2::BitVec& tp, std::size_t width) {
  if (tp.size() != width) {
    throw std::invalid_argument("timeprint of " + std::to_string(tp.size()) +
                                " bits, encoding has " + std::to_string(width));
  }
}

F2Presolve::Analysis F2Presolve::analyze(const f2::BitVec& tp) const {
  require_timeprint_width(tp, ech_.rows());
  Analysis a;
  a.transformed = ech_.transform(tp);
  a.consistent = ech_.consistent_transformed(a.transformed);
  return a;
}

std::vector<F2Presolve::Analysis> F2Presolve::analyze_batch(
    const std::vector<f2::BitVec>& tps) const {
  for (const f2::BitVec& tp : tps) require_timeprint_width(tp, ech_.rows());
  std::vector<f2::BitVec> transformed = ech_.transform_batch(tps);
  std::vector<Analysis> out(transformed.size());
  for (std::size_t i = 0; i < transformed.size(); ++i) {
    out[i].consistent = ech_.consistent_transformed(transformed[i]);
    out[i].transformed = std::move(transformed[i]);
  }
  return out;
}

f2::BitVec F2Presolve::expand(const Analysis& analysis,
                              const std::vector<bool>& free_assignment) const {
  assert(analysis.consistent);
  assert(free_assignment.size() == ech_.nullity());
  f2::BitVec x = ech_.particular_from_transformed(analysis.transformed);
  for (std::size_t j = 0; j < free_assignment.size(); ++j) {
    if (free_assignment[j]) x ^= ech_.nullspace()[j];
  }
  return x;
}

F2Presolve::Decoded F2Presolve::decode_by_enumeration(
    const Analysis& analysis, std::size_t k,
    const std::vector<const Property*>& properties,
    std::uint64_t max_solutions) const {
  assert(analysis.consistent);
  assert(ech_.nullity() < 64);
  Decoded out;
  const auto& ns = ech_.nullspace();
  const std::uint64_t total = std::uint64_t{1} << ns.size();
  f2::BitVec x = ech_.particular_from_transformed(analysis.transformed);
  // Gray-code walk of the affine space: candidate i differs from its
  // predecessor by exactly one null-space vector.
  for (std::uint64_t i = 0;;) {
    if (x.popcount() == k) {
      Signal s = Signal::from_bits(x);
      bool keep = true;
      for (const Property* p : properties) {
        if (!p->holds(s)) {
          keep = false;
          break;
        }
      }
      if (keep) {
        out.signals.push_back(std::move(s));
        if (out.signals.size() >= max_solutions && i + 1 < total) {
          out.truncated = true;
          break;
        }
      }
    }
    if (++i >= total) break;
    x ^= ns[static_cast<std::size_t>(std::countr_zero(i))];
  }
  return out;
}

}  // namespace tp::core
