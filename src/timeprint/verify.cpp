#include "timeprint/verify.hpp"

#include <set>
#include <stdexcept>
#include <vector>

#include "f2/matrix.hpp"

namespace tp::core {

VerifyResult verify_signals(const TimestampEncoding& encoding,
                            std::span<const LogEntry> windows,
                            const std::vector<Signal>& signals,
                            const std::vector<const Property*>& properties) {
  VerifyResult res;
  const f2::Matrix a = encoding.to_matrix();
  const std::size_t m = encoding.m();
  const std::size_t span = windows.size() * m;
  auto fail = [&](const std::string& what) {
    res.ok = false;
    res.failure = "signal " + std::to_string(res.checked) + " " + what;
    return res;
  };
  std::set<std::vector<bool>> seen;
  for (const Signal& s : signals) {
    if (s.bits().size() != span) {
      return fail("has " + std::to_string(s.bits().size()) + " cycles, expected " +
                  std::to_string(span));
    }
    for (std::size_t w = 0; w < windows.size(); ++w) {
      // Window w's slice (the signal itself for a single window).
      f2::BitVec slice;
      if (windows.size() > 1) {
        slice = f2::BitVec(m);
        for (std::size_t i = 0; i < m; ++i) slice.set(i, s.bits().get(w * m + i));
      }
      const f2::BitVec& x = windows.size() > 1 ? slice : s.bits();
      const std::string where =
          windows.size() > 1 ? " in window " + std::to_string(w) : "";
      if (a.multiply(x) != windows[w].tp) {
        return fail("does not reproduce the timeprint (A·x != TP)" + where);
      }
      if (x.popcount() != windows[w].k) {
        return fail("has " + std::to_string(x.popcount()) + " changes" + where +
                    ", entry says " + std::to_string(windows[w].k));
      }
    }
    for (const Property* p : properties) {
      if (!p->holds(s)) return fail("violates property '" + p->describe() + "'");
    }
    std::vector<bool> key;
    key.reserve(span);
    for (std::size_t i = 0; i < span; ++i) key.push_back(s.bits().get(i));
    if (!seen.insert(std::move(key)).second) return fail("enumerated twice");
    ++res.checked;
  }
  return res;
}

void require_verified(const TimestampEncoding& encoding,
                      std::span<const LogEntry> windows,
                      const std::vector<Signal>& signals,
                      const std::vector<const Property*>& properties) {
  const VerifyResult res = verify_signals(encoding, windows, signals, properties);
  if (!res.ok) {
    throw std::logic_error("model verification failed: " + res.failure);
  }
}

}  // namespace tp::core
