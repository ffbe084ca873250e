#pragma once
// perfbench.hpp — shared pieces of the end-to-end timeprint benchmark.
//
// Every workload drives the library the way a user would: simulate the
// traced signal, clock it through the RTL agg-log unit and the UART into
// a TraceArchive, then decode or triage it through the public API, and
// check every answer against an oracle. The benchmark only times calls
// from the outside (spans.hpp) and reads counts from the structs the
// library returns and from obs::MetricsRegistry.
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "spans.hpp"
#include "timeprint/archive.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/reconstruct.hpp"

namespace perfbench {

/// Settings of one benchmark run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds the measured rounds should fill (at least one round).
  double seconds = 10.0;
  /// Self-test sizes: same code path, tiny parameters.
  bool tiny = false;
  /// Self-test fault: flip TP bit 0 of the first archived entry the
  /// workload reads, so the oracles must report a failure.
  bool flip_tp_bit = false;
  /// Decode worker threads (stream_decode only): min(4, usable_cpus()).
  std::size_t workers = 1;
};

/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t usable_cpus();

/// Outcome of one measured round: everything from the first simulated
/// cycle to the last answer.
struct RoundRecord {
  double wall_s = 0.0;    ///< first simulated cycle -> last answer
  /// simulate -> agg-log -> UART -> archive (saved and reloaded on
  /// refresh_ingest); recorded per round, not a metric.
  double ingest_s = 0.0;
  std::uint64_t cycles = 0;           ///< traced clock cycles ingested
  std::uint64_t entries_answered = 0; ///< entries carried to their answer
  std::vector<double> query_s;        ///< one latency per library query
};

/// Operation accounting for failed_frac.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Count one operation; a failure is reported on stderr as
  /// "FAIL <what> round=<round> item=<item>".
  void check(bool ok, const char* what, std::uint64_t round, std::uint64_t item = 0);
};

/// What a workload pass hands back to main().
struct PassResult {
  std::vector<double> setup_s;      ///< one sample per set-up repetition
  std::vector<RoundRecord> rounds;
  Tally tally;
  /// Per-layer counts (times come from the tracer).
  std::map<std::string, double> counts;
  /// Workload parameters for the run identity.
  tp::obs::Json params = tp::obs::Json::object();
  /// Wall seconds of the whole pass (set-up + rounds, oracles excluded).
  double timed_wall_s = 0.0;
  /// Free-text findings printed as "note" lines.
  std::vector<std::string> notes;
};

/// A workload pass. `rounds` == 0: run rounds until cfg.seconds of
/// measured wall time are filled; otherwise run exactly that many (the
/// traced pass repeats the untraced pass's rounds).
using WorkloadFn = PassResult (*)(const RunConfig& cfg, Tracer& tracer,
                                  std::size_t rounds);

PassResult run_stream_decode(const RunConfig& cfg, Tracer& tracer, std::size_t rounds);
PassResult run_can_forensics(const RunConfig& cfg, Tracer& tracer, std::size_t rounds);
PassResult run_refresh_ingest(const RunConfig& cfg, Tracer& tracer, std::size_t rounds);

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Independent per-round seed derived from the run seed (splitmix64).
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

/// True once another round would overrun the measured-time budget:
/// after at least one round, stop when the mean round time would push the
/// measured wall past cfg.seconds.
bool budget_spent(const RunConfig& cfg, const std::vector<RoundRecord>& rounds,
                  std::size_t fixed_rounds);

/// Median of a non-empty sample (copies).
double median(std::vector<double> values);

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per next(), and restores the original CPU mask on destruction.
/// Single-threaded work steps it per unit of work (set-up repetition,
/// disputed CAN frame, refresh round) so each run samples every CPU alike:
/// on shared hosts one vCPU can run 1.7x slower than another for minutes,
/// and a thread left where the scheduler put it makes whole runs fast or
/// slow. Without permission to set affinity it does nothing.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;  // allowed CPUs at construction
  std::size_t step_ = 0;
};

/// Build the workload's set-up repeatedly, one "setup" span and one
/// seconds sample each; setup_s is their median. Up to 21 builds where
/// set-up takes milliseconds, stopping once 2 s are spent, so LI-4
/// generation of tens of seconds is built once.
template <typename Setup, typename Params>
void build_setup(std::optional<Setup>& setup, std::vector<double>& samples,
                 const Params& params, Tracer& tracer) {
  double spent = 0.0;
  CpuRotation cpus;
  while (samples.empty() || (samples.size() < 21 && spent < 2.0)) {
    cpus.next();
    setup.reset();
    const auto t0 = Clock::now();
    {
      auto span = tracer.scope("setup", samples.size());
      setup.emplace(params, tracer, samples.size());
    }
    samples.push_back(seconds_between(t0, Clock::now()));
    spent += samples.back();
  }
}

/// Oracle shared by every workload: each archived entry of `channel`
/// must equal core::Logger::log of the trace-cycle of `bits` it covers,
/// and the channel must hold exactly one entry per trace-cycle. One
/// operation per trace-cycle.
void check_archive(const tp::core::TimestampEncoding& encoding,
                   const tp::core::TraceChannel& channel,
                   const std::vector<bool>& bits, Tally& tally, std::uint64_t round);

/// Add one SR run's counts (returned by Reconstructor or inside a
/// BatchResult) to the reconstruct.* and sat.* per-layer metrics.
void count_sr_run(std::map<std::string, double>& counts,
                  const tp::core::ReconstructionResult& result);

/// Self-test fault: flip TP bit 0 of the channel's entry `index`.
void flip_tp_bit(tp::core::TraceChannel& channel, std::uint64_t index);

}  // namespace perfbench
