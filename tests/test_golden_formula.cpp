// Golden formula test: pins the exact SR formula every decode path emits.
//
// For fixed seeds each case records the encoded problem size
// (num_vars, num_clauses, num_xors), the solver effort
// (stats.propagations, stats.conflicts), the final status and the sorted
// signal set (count plus an FNV-1a hash). A refactor of the encoder that
// keeps the variables, their creation order, the clauses and the XOR rows
// bit-identical leaves every line unchanged; one that reorders or adds a
// single variable moves the propagation count. Signal-set equality alone
// (what the differential tests check) cannot see such a change.
//
// The expected strings were recorded once from the encoder as it stood
// before the SR emission was folded into one function; they are not to be
// re-recorded to make a formula change pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "f2/bitvec.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/joint.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/properties.hpp"
#include "timeprint/reconstruct.hpp"

namespace tp::core {
namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string signal_digest(const std::vector<Signal>& signals) {
  std::vector<std::string> sorted;
  sorted.reserve(signals.size());
  for (const Signal& s : signals) sorted.push_back(s.to_string());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const std::string& s : sorted) h = fnv1a(s + ";", h);
  char buf[64];
  std::snprintf(buf, sizeof buf, "signals=%zu hash=%016llx", sorted.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

std::string golden(int num_vars, std::size_t num_clauses, std::size_t num_xors,
                   const sat::SolverStats& stats) {
  return "vars=" + std::to_string(num_vars) +
         " clauses=" + std::to_string(num_clauses) +
         " xors=" + std::to_string(num_xors) +
         " props=" + std::to_string(stats.propagations) +
         " conflicts=" + std::to_string(stats.conflicts);
}

std::string golden(const ReconstructionResult& r) {
  return golden(r.num_vars, r.num_clauses, r.num_xors, r.stats) + " status=" +
         sat::to_string(r.final_status) + " " + signal_digest(r.signals);
}

std::string golden(const CheckResult& r) {
  return golden(r.num_vars, r.num_clauses, r.num_xors, r.stats) +
         " verdict=" + to_string(r.verdict) +
         " witness=" + (r.witness ? r.witness->to_string() : std::string("-"));
}

// m = 32 over b = 12 bits, LI-3: nullity 20, far above the enumeration
// limit, so every reconstruct() call reaches the solver.
TimestampEncoding wide_encoding() {
  return TimestampEncoding::random_constrained(32, 12, 3, /*seed=*/17);
}

// The wide encoding with two extra bits, each owned by one cycle (3 and
// 17): those columns become pivots whose reduced rows have no free
// support, so the substituted encoding meets constant pivots (dropped
// without properties, unit-fixed with them).
TimestampEncoding encoding_with_constant_pivots() {
  const TimestampEncoding base = wide_encoding();
  std::vector<f2::BitVec> cols;
  for (std::size_t i = 0; i < base.m(); ++i) {
    f2::BitVec c(base.width() + 2);
    for (std::size_t j = 0; j < base.width(); ++j) c.set(j, base.timestamp(i).get(j));
    if (i == 3) c.set(base.width(), true);
    if (i == 17) c.set(base.width() + 1, true);
    cols.push_back(std::move(c));
  }
  return TimestampEncoding::from_vectors(std::move(cols), 3);
}

LogEntry logged(const TimestampEncoding& enc, std::vector<std::size_t> cycles) {
  return Logger(enc).log(Signal::from_change_cycles(enc.m(), cycles));
}

// Six entries: four genuinely logged (k = 2..5), one random timeprint and
// one with k = 0.
std::vector<LogEntry> short_stream(const TimestampEncoding& enc) {
  std::vector<LogEntry> out;
  out.push_back(logged(enc, {1, 9}));
  out.push_back(logged(enc, {0, 5, 21}));
  out.push_back(logged(enc, {2, 3, 14, 30}));
  f2::Rng rng(3);
  out.push_back({f2::BitVec::random(enc.width(), rng), 3});
  out.push_back(logged(enc, {4, 7, 8, 17, 26}));
  out.push_back({f2::BitVec(enc.width()), 0});
  return out;
}

ReconstructionOptions classic() {
  ReconstructionOptions o;
  o.presolve = false;
  return o;
}

ReconstructionOptions cnf_xor(bool presolve) {
  ReconstructionOptions o;
  o.presolve = presolve;
  o.native_xor = false;
  o.use_gauss = false;
  return o;
}

TEST(GoldenFormula, FreshClassic) {
  const TimestampEncoding enc = wide_encoding();
  const Reconstructor rec(enc);
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {2, 3, 14, 30, 31}), classic())),
            "vars=208 clauses=668 xors=12 props=168848 conflicts=3305 status=UNSAT signals=56 hash=a585c64fc0f51783");
}

TEST(GoldenFormula, FreshSubstituted) {
  const TimestampEncoding enc = wide_encoding();
  const Reconstructor rec(enc);
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {2, 3, 14, 30, 31}))),
            "vars=208 clauses=668 xors=12 props=164394 conflicts=3128 status=UNSAT signals=56 hash=a585c64fc0f51783");
}

TEST(GoldenFormula, FreshSubstitutedTotalizer) {
  const TimestampEncoding enc = wide_encoding();
  const Reconstructor rec(enc);
  ReconstructionOptions o;
  o.card_encoding = sat::CardEncoding::Totalizer;
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {2, 3, 14, 30, 31}), o)),
            "vars=138 clauses=603 xors=12 props=139035 conflicts=3210 status=UNSAT signals=56 hash=a585c64fc0f51783");
}

TEST(GoldenFormula, FreshSubstitutedConstantPivots) {
  const TimestampEncoding enc = encoding_with_constant_pivots();
  const Reconstructor rec(enc);
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {3, 6, 11, 25}))),
            "vars=143 clauses=420 xors=12 props=8263 conflicts=172 status=UNSAT signals=3 hash=9522c7810725393a");
}

TEST(GoldenFormula, FreshSubstitutedWithProperties) {
  const TimestampEncoding enc = encoding_with_constant_pivots();
  const ExistsConsecutivePair pair;
  const MinChangesBefore dk(20, 2);
  Reconstructor rec(enc);
  rec.add_property(pair);
  rec.add_property(dk);
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {3, 6, 7, 25}))),
            "vars=250 clauses=562 xors=12 props=16056 conflicts=261 status=UNSAT signals=3 hash=802f81f422d8f128");
}

TEST(GoldenFormula, FreshClassicWithProperties) {
  const TimestampEncoding enc = wide_encoding();
  const ExistsConsecutivePair pair;
  Reconstructor rec(enc);
  rec.add_property(pair);
  EXPECT_EQ(golden(rec.reconstruct(logged(enc, {2, 3, 14, 30, 31}), classic())),
            "vars=239 clauses=731 xors=12 props=158930 conflicts=2648 status=UNSAT signals=26 hash=679bb856004c1cdb");
}

TEST(GoldenFormula, CnfXorClassicAndSubstituted) {
  const TimestampEncoding enc = wide_encoding();
  const Reconstructor rec(enc);
  const LogEntry e = logged(enc, {2, 3, 14, 30});
  EXPECT_EQ(golden(rec.reconstruct(e, cnf_xor(false))),
            "vars=332 clauses=1189 xors=0 props=290636 conflicts=3037 status=UNSAT signals=8 hash=e11c3b0ff45894b9");
  EXPECT_EQ(golden(rec.reconstruct(e, cnf_xor(true))),
            "vars=292 clauses=1029 xors=0 props=122829 conflicts=1317 status=UNSAT signals=8 hash=e11c3b0ff45894b9");
}

TEST(GoldenFormula, CheckHypothesis) {
  const TimestampEncoding enc = wide_encoding();
  const ExistsConsecutivePair pair;
  Reconstructor rec(enc);
  rec.add_property(pair);
  const LogEntry e = logged(enc, {2, 3, 14, 30, 31});
  EXPECT_EQ(golden(rec.check_hypothesis(e, MinChangesBefore(16, 2))),
            "vars=269 clauses=835 xors=12 props=1049 conflicts=20 verdict=violated-by-some witness=00000000000000001000001000010110");
  EXPECT_EQ(golden(rec.check_hypothesis(e, MinChangesBefore(16, 1))),
            "vars=239 clauses=731 xors=12 props=859 conflicts=16 verdict=violated-by-some witness=00000000000000001000001000010110");
}

TEST(GoldenFormula, SplitOneThread) {
  const TimestampEncoding enc = wide_encoding();
  BatchReconstructor batch(enc);
  BatchOptions o;
  o.num_threads = 1;
  o.cube_vars = 3;
  EXPECT_EQ(golden(batch.reconstruct_split(logged(enc, {2, 3, 14, 30, 31}), o)),
            "vars=208 clauses=668 xors=12 props=207105 conflicts=3874 status=UNSAT signals=56 hash=a585c64fc0f51783");
}

void expect_stream(TemplateReconstructor& tmpl, const std::vector<LogEntry>& stream,
                   const std::vector<std::string>& expected) {
  ASSERT_EQ(stream.size(), expected.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(golden(tmpl.reconstruct(stream[i])), expected[i]) << "entry " << i;
  }
}

TEST(GoldenFormula, TemplateClassic) {
  const TimestampEncoding enc = wide_encoding();
  const Reconstructor rec(enc);
  TemplateReconstructor tmpl(rec, classic(), /*k_max=*/4);
  expect_stream(tmpl, short_stream(enc), {
      "vars=143 clauses=530 xors=12 props=10073 conflicts=47 status=UNSAT signals=1 hash=f3d1e4592b49a49a",
      "vars=144 clauses=530 xors=12 props=15005 conflicts=171 status=UNSAT signals=1 hash=68ac144457f9f4ed",
      "vars=145 clauses=530 xors=12 props=46954 conflicts=901 status=UNSAT signals=8 hash=e11c3b0ff45894b9",
      "vars=146 clauses=530 xors=12 props=16077 conflicts=176 status=UNSAT signals=2 hash=3742c9cb29bc9519",
      "vars=204 clauses=1312 xors=12 props=193938 conflicts=3123 status=UNSAT signals=56 hash=da8328ec6a4b1583",
      "vars=205 clauses=1312 xors=12 props=50421 conflicts=0 status=UNSAT signals=1 hash=76e4301157351b7a"});
  EXPECT_EQ(tmpl.stats().builds, 2);  // the k = 5 entry forces a rebuild
}

TEST(GoldenFormula, TemplateSubstituted) {
  const TimestampEncoding enc = encoding_with_constant_pivots();
  const Reconstructor rec(enc);
  TemplateReconstructor tmpl(rec, ReconstructionOptions{});
  expect_stream(tmpl, short_stream(enc), {
      "vars=204 clauses=1312 xors=12 props=52121 conflicts=41 status=UNSAT signals=1 hash=f3d1e4592b49a49a",
      "vars=205 clauses=1312 xors=12 props=56993 conflicts=158 status=UNSAT signals=1 hash=68ac144457f9f4ed",
      "vars=206 clauses=1312 xors=12 props=55953 conflicts=133 status=UNSAT signals=2 hash=61fa92239729d98f",
      "vars=207 clauses=1312 xors=12 props=58162 conflicts=176 status=UNSAT signals=0 hash=cbf29ce484222325",
      "vars=208 clauses=1312 xors=12 props=74552 conflicts=537 status=UNSAT signals=9 hash=aa2aa60d21edac01",
      "vars=209 clauses=1312 xors=12 props=50293 conflicts=0 status=UNSAT signals=1 hash=76e4301157351b7a"});
}

TEST(GoldenFormula, TemplateSubstitutedWithPropertiesCnfXor) {
  const TimestampEncoding enc = wide_encoding();
  const MinChangesBefore dk(20, 1);
  Reconstructor rec(enc);
  rec.add_property(dk);
  TemplateReconstructor tmpl(rec, cnf_xor(true));
  expect_stream(tmpl, short_stream(enc), {
      "vars=346 clauses=1885 xors=0 props=58460 conflicts=98 status=UNSAT signals=1 hash=f3d1e4592b49a49a",
      "vars=347 clauses=1883 xors=0 props=72172 conflicts=218 status=UNSAT signals=1 hash=68ac144457f9f4ed",
      "vars=348 clauses=1883 xors=0 props=146988 conflicts=988 status=UNSAT signals=8 hash=e11c3b0ff45894b9",
      "vars=349 clauses=1883 xors=0 props=67950 conflicts=186 status=UNSAT signals=2 hash=3742c9cb29bc9519",
      "vars=350 clauses=1883 xors=0 props=511406 conflicts=4852 status=UNSAT signals=56 hash=da8328ec6a4b1583",
      "vars=351 clauses=1883 xors=0 props=50056 conflicts=1 status=UNSAT signals=0 hash=cbf29ce484222325"});
}

TEST(GoldenFormula, Joint) {
  const TimestampEncoding enc = TimestampEncoding::random_constrained(16, 8, 3, 5);
  const LogEntry e0 = logged(enc, {1, 6, 13});
  const LogEntry e1 = logged(enc, {0, 9});
  const JointReconstructor plain(enc);
  EXPECT_EQ(golden(plain.reconstruct({e0, e1})),
            "vars=133 clauses=373 xors=16 props=2062 conflicts=66 status=UNSAT signals=4 hash=babff626f546cc79");

  const MinChangesBefore dk(18, 4);
  JointReconstructor spanned(enc);
  spanned.add_property(dk);
  ReconstructionOptions o = cnf_xor(false);
  o.card_encoding = sat::CardEncoding::Totalizer;
  EXPECT_EQ(golden(spanned.reconstruct({e0, e1}, o)),
            "vars=274 clauses=1041 xors=0 props=8339 conflicts=130 status=UNSAT signals=4 hash=babff626f546cc79");
}

}  // namespace
}  // namespace tp::core
