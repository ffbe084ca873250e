#pragma once
// metrics.hpp — quality metrics of a timestamp encoding.
//
// The choice of timestamps governs the reconstruction ambiguity (paper
// §4.3): the relevant code-theoretic quantities are the rank of the
// timestamp matrix (how much of F2^b the code spans), the minimum weight
// of small timestamp combinations (a lower bound witness on the code
// distance: LI-4 <=> no <=4-subset sums to zero <=> distance >= 5 of the
// associated code), and how densely the encoding packs the b-bit space.
// Their only caller is tests/test_metrics.cpp, which pins them as sanity
// checks on the encodings; no bench or example includes this header.

#include <cstddef>

#include "timeprint/encoding.hpp"

namespace tp::core {

/// Summary statistics of an encoding.
struct EncodingStats {
  std::size_t m = 0;      ///< number of timestamps
  std::size_t b = 0;      ///< timestamp width
  std::size_t rank = 0;   ///< rank of [TS(1) | ... | TS(m)]
  /// Largest d in [0, 4] such that every subset of <= d timestamps is
  /// linearly independent (the verified LI depth).
  std::size_t li_depth = 0;
  /// Fraction of the 2^b space occupied by the m timestamps.
  double density = 0.0;
  /// Expected number of reconstructions of a random weight-k entry,
  /// exp2(log2 C(m,k) - rank): the usable ambiguity estimate (uses rank,
  /// not b, because timeprints only range over the column span).
  double expected_solutions_k4 = 0.0;
  /// Minimum Hamming weight over all timestamps (weight-1 witness).
  std::size_t min_timestamp_weight = 0;
  /// Minimum Hamming weight over all pairwise XORs (distance witness: a
  /// low value means two cycles are nearly confusable under bit errors).
  std::size_t min_pair_distance = 0;
};

/// Compute the statistics (O(m^2) in the pairwise scan).
EncodingStats encoding_stats(const TimestampEncoding& encoding);

}  // namespace tp::core
