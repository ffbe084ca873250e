#pragma once
// spans.hpp — in-memory spans recorded around the benchmark's calls into
// each library layer.
//
// A span has a name, start, end, the span that encloses it and an id that
// ties together the spans of one entry, query or simulation run. Layer
// spans are named "<layer>.<operation>" (for example "rtlsim.step"); the
// busy time of a per-layer metric "<layer>.<operation>_s" is the summed
// duration of its spans. Spans without a dot ("setup", "round", "query")
// only give structure. Per-cycle layers (SoC tick, rtl::Simulator::step,
// monitor tick) are spanned per block of cycles, because a clock read per
// ~12 ns tick would swamp the tick.
//
// With tracing off, scope() records nothing and reads no clock.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;   ///< static string
  double start = 0.0; ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 at top level
  std::uint64_t id = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; closes at scope exit. Scopes must nest (one thread).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // nullptr when tracing is off
    int index_ = -1;
  };

  Scope scope(const char* name, std::uint64_t id = 0) {
    return Scope(enabled_ ? this : nullptr, name, id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans called `name`.
  double busy(const std::string& name) const;

  /// Self time per layer (the part before the first dot of a layer span's
  /// name): each layer span's duration minus the part of it covered by
  /// enclosed layer spans.
  std::map<std::string, double> layer_self_times() const;

  /// Spans and layer self times as JSON.
  tp::obs::Json to_json() const;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

/// Run `fn` inside a span and return its result (by value, elided).
template <typename Fn>
auto in_span(Tracer& tracer, const char* name, std::uint64_t id, Fn&& fn) {
  auto scope = tracer.scope(name, id);
  return fn();
}

}  // namespace perfbench
