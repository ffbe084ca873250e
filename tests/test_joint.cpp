// Tests for joint reconstruction across adjacent trace-cycles.

#include <gtest/gtest.h>

#include <stdexcept>

#include "can/forensics.hpp"
#include "timeprint/joint.hpp"
#include "timeprint/verify.hpp"

namespace tp::core {
namespace {

TEST(Joint, SingleWindowEqualsPlainReconstruction) {
  auto enc = TimestampEncoding::random_constrained(16, 9, 4, 3);
  Logger logger(enc);
  const Signal s = Signal::from_change_cycles(16, {2, 3, 9});
  const LogEntry entry = logger.log(s);

  Reconstructor plain(enc);
  auto a = plain.reconstruct(entry);
  JointReconstructor joint(enc);
  auto b = joint.reconstruct({entry});
  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(a.signals.size(), b.signals.size());
}

TEST(Joint, TwoWindowsFactorize) {
  // Without span properties, solutions of two windows are the cartesian
  // product of each window's solutions.
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 5);
  Logger logger(enc);
  f2::Rng rng(9);
  const Signal s0 = Signal::random_with_changes(12, 3, rng);
  const Signal s1 = Signal::random_with_changes(12, 2, rng);
  const LogEntry e0 = logger.log(s0);
  const LogEntry e1 = logger.log(s1);

  Reconstructor plain(enc);
  const std::size_t n0 = plain.reconstruct(e0).signals.size();
  const std::size_t n1 = plain.reconstruct(e1).signals.size();

  JointReconstructor joint(enc);
  auto jr = joint.reconstruct({e0, e1});
  ASSERT_TRUE(jr.complete());
  EXPECT_EQ(jr.signals.size(), n0 * n1);
  for (const Signal& s : jr.signals) {
    EXPECT_EQ(s.length(), 24u);
    // Each half must abstract to its window's entry.
    Signal lo(12), hi(12);
    for (std::size_t i = 0; i < 12; ++i) {
      lo.set_change(i, s.has_change(i));
      hi.set_change(i, s.has_change(12 + i));
    }
    EXPECT_EQ(logger.log(lo), e0);
    EXPECT_EQ(logger.log(hi), e1);
  }
}

TEST(Joint, SpanPropertyCrossesBoundary) {
  // A pattern straddling the boundary: changes at cycles 10, 11 (window 0)
  // and 12, 13 (window 1) of the concatenated span.
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 7);
  Logger logger(enc);
  Signal lo(12), hi(12);
  lo.set_change(10);
  lo.set_change(11);
  hi.set_change(0);
  hi.set_change(1);
  const LogEntry e0 = logger.log(lo);
  const LogEntry e1 = logger.log(hi);

  // Span property: four consecutive changes starting somewhere in [8, 16).
  std::vector<bool> pattern(4, true);
  can::FrameAtUnknownStart prop(24, pattern, 8, 16);

  JointReconstructor joint(enc);
  joint.add_property(prop);
  auto jr = joint.reconstruct({e0, e1});
  ASSERT_TRUE(jr.complete());
  ASSERT_FALSE(jr.signals.empty());
  for (const Signal& s : jr.signals) {
    EXPECT_TRUE(prop.holds(s));
  }
  // The actual concatenated signal is among the solutions.
  Signal actual(24);
  for (std::size_t c : {10u, 11u, 12u, 13u}) actual.set_change(c);
  EXPECT_NE(std::find(jr.signals.begin(), jr.signals.end(), actual),
            jr.signals.end());
}

TEST(Joint, InconsistentEntriesAreUnsat) {
  auto enc = TimestampEncoding::one_hot(8);
  // k = 1 with a zero timeprint is impossible under one-hot.
  JointReconstructor joint(enc);
  auto jr = joint.reconstruct({{f2::BitVec(8), 1}, {f2::BitVec(8), 0}});
  EXPECT_TRUE(jr.complete());
  EXPECT_TRUE(jr.signals.empty());
}

TEST(Joint, ThreeWindows) {
  auto enc = TimestampEncoding::one_hot(6);  // unambiguous per window
  Logger logger(enc);
  f2::Rng rng(4);
  std::vector<Signal> parts;
  std::vector<LogEntry> entries;
  for (int w = 0; w < 3; ++w) {
    parts.push_back(Signal::random_with_changes(6, 2, rng));
    entries.push_back(logger.log(parts.back()));
  }
  JointReconstructor joint(enc);
  auto jr = joint.reconstruct(entries);
  ASSERT_TRUE(jr.complete());
  ASSERT_EQ(jr.signals.size(), 1u);
  for (int w = 0; w < 3; ++w) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(jr.signals[0].has_change(static_cast<std::size_t>(w) * 6 + i),
                parts[static_cast<std::size_t>(w)].has_change(i));
    }
  }
}

TEST(Joint, EmptySpanIsRejected) {
  // No windows is a caller error, not a "complete" preimage holding one
  // zero-length signal; the guard holds in every build type.
  auto enc = TimestampEncoding::one_hot(6);
  JointReconstructor joint(enc);
  EXPECT_THROW(joint.reconstruct({}), std::invalid_argument);
  // A timeprint of the wrong width is rejected the same way.
  EXPECT_THROW(joint.reconstruct({{f2::BitVec(6), 1}, {f2::BitVec(5), 1}}),
               std::invalid_argument);
}

// Holds only without a change in span cycle 0, but encodes nothing: the
// solver cannot see the constraint, so only model verification catches
// the signals that violate it.
class UnencodedNoChangeAtZero final : public Property {
 public:
  bool holds(const Signal& s) const override { return !s.has_change(0); }
  bool encode(sat::SolverInterface&, const std::vector<sat::Var>&) const override {
    return true;
  }
  std::string describe() const override { return "no change at 0 (unencoded)"; }
};

TEST(Joint, VerifyModelsChecksEveryWindowAndTheSpanProperties) {
  auto enc = TimestampEncoding::random_constrained(12, 8, 4, 5);
  Logger logger(enc);
  const LogEntry e0 = logger.log(Signal::from_change_cycles(12, {0, 4}));
  const LogEntry e1 = logger.log(Signal::from_change_cycles(12, {3, 7, 11}));
  ReconstructionOptions verified;
  verified.verify_models = true;

  // Sound encoding: verification passes and changes nothing.
  JointReconstructor joint(enc);
  const ReconstructionResult plain = joint.reconstruct({e0, e1});
  const ReconstructionResult checked = joint.reconstruct({e0, e1}, verified);
  ASSERT_TRUE(checked.complete());
  EXPECT_EQ(checked.signals, plain.signals);
  EXPECT_TRUE(verify_signals(enc, std::vector<LogEntry>{e0, e1}, checked.signals));

  // A span property the encoding ignores: the preimage holds a signal
  // with a change at cycle 0 (the logged one), which verification flags.
  const UnencodedNoChangeAtZero lying;
  JointReconstructor unsound(enc);
  unsound.add_property(lying);
  EXPECT_NO_THROW(unsound.reconstruct({e0, e1}));
  EXPECT_THROW(unsound.reconstruct({e0, e1}, verified), std::logic_error);
}

TEST(Joint, VerifySignalsNamesTheFailingWindow) {
  auto enc = TimestampEncoding::one_hot(4);
  const LogEntry e0{f2::BitVec::from_uint(4, 0b01), 1};  // cycle 0
  const LogEntry e1{f2::BitVec::from_uint(4, 0b10), 1};  // cycle 1
  const std::vector<LogEntry> span = {e0, e1};
  // Window 0 right (cycle 0), window 1 wrong (cycle 4+0 instead of 4+1).
  const Signal wrong = Signal::from_change_cycles(8, {0, 4});
  const VerifyResult res = verify_signals(enc, span, {wrong});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("window 1"), std::string::npos) << res.failure;
  EXPECT_FALSE(verify_signals(enc, span, {Signal(4)}));  // not a span signal
}

}  // namespace
}  // namespace tp::core
