#pragma once
// verify.hpp — solver-independent verification of reconstructed signals.
//
// The UNSAT side of a reconstruction answer is certified by DRAT proofs
// (sat/drat.hpp); this is the SAT/AllSAT side. Each enumerated signal is
// re-validated against the *mathematical* SR statement — A·x = TP over F2,
// |x| = k, and the registered temporal properties — using only f2::Matrix
// arithmetic and Property::holds(). Nothing here touches the SAT encoding,
// the solver, or the enumeration machinery, so an encoding bug (a wrong
// XOR row, a miscounted cardinality circuit, a property clause with the
// wrong sign) cannot also hide the evidence.
//
// Combined, the two sides certify a complete AllSAT answer end to end:
// every returned signal is checked to be a real preimage member (here),
// and the final UNSAT — "no models beyond the enumerated ones" — is
// checkable against the formula plus the emitted blocking clauses (there).

#include <span>
#include <string>
#include <vector>

#include "timeprint/encoding.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/signal.hpp"

namespace tp::core {

/// Outcome of verifying one batch of signals against one log entry.
struct VerifyResult {
  bool ok = true;
  std::size_t checked = 0;  ///< signals examined (all of them when ok)
  std::string failure;      ///< first violation, empty when ok

  explicit operator bool() const { return ok; }
};

/// Check every signal in `signals` against a span of consecutive
/// trace-cycle windows under `encoding`: each signal has
/// windows.size()·m cycles, and for every window w its slice x_w satisfies
/// A·x_w = TP_w (recomputed with f2::Matrix::multiply) and |x_w| = k_w;
/// each property holds on the whole signal, and no signal appears twice.
/// Stops at the first violation.
VerifyResult verify_signals(const TimestampEncoding& encoding,
                            std::span<const LogEntry> windows,
                            const std::vector<Signal>& signals,
                            const std::vector<const Property*>& properties = {});

/// The single-window form: one trace-cycle against `entry`.
inline VerifyResult verify_signals(const TimestampEncoding& encoding,
                                   const LogEntry& entry,
                                   const std::vector<Signal>& signals,
                                   const std::vector<const Property*>& properties = {}) {
  return verify_signals(encoding, std::span<const LogEntry>(&entry, 1), signals,
                        properties);
}

/// verify_signals, but a violation throws std::logic_error with the
/// failure text — the hook form the reconstruction engines call when
/// ReconstructionOptions::verify_models is set.
void require_verified(const TimestampEncoding& encoding,
                      std::span<const LogEntry> windows,
                      const std::vector<Signal>& signals,
                      const std::vector<const Property*>& properties = {});

inline void require_verified(const TimestampEncoding& encoding, const LogEntry& entry,
                             const std::vector<Signal>& signals,
                             const std::vector<const Property*>& properties = {}) {
  require_verified(encoding, std::span<const LogEntry>(&entry, 1), signals,
                   properties);
}

}  // namespace tp::core
