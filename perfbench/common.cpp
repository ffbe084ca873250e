#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "perfbench.hpp"
#include "timeprint/logger.hpp"
#include "timeprint/signal.hpp"

namespace perfbench {

void Tally::check(bool ok, const char* what, std::uint64_t round, std::uint64_t item) {
  ++attempted;
  if (ok) return;
  if (++failed <= 20) {
    std::fprintf(stderr, "FAIL %s round=%llu item=%llu\n", what,
                 static_cast<unsigned long long>(round),
                 static_cast<unsigned long long>(item));
  }
}

std::size_t usable_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&mask)));
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus_) CPU_SET(cpu, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[step_++ % cpus_.size()], &mask);
  sched_setaffinity(0, sizeof(mask), &mask);  // best effort
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool budget_spent(const RunConfig& cfg, const std::vector<RoundRecord>& rounds,
                  std::size_t fixed_rounds) {
  if (fixed_rounds != 0) return rounds.size() >= fixed_rounds;
  if (rounds.empty()) return false;
  double wall = 0.0;
  for (const RoundRecord& r : rounds) wall += r.wall_s;
  const double mean = wall / static_cast<double>(rounds.size());
  return wall + mean > cfg.seconds;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void check_archive(const tp::core::TimestampEncoding& encoding,
                   const tp::core::TraceChannel& channel,
                   const std::vector<bool>& bits, Tally& tally, std::uint64_t round) {
  const std::size_t m = encoding.m();
  const std::size_t cycles = bits.size() / m;
  const tp::core::Logger logger(encoding);
  for (std::size_t t = 0; t < cycles; ++t) {
    tp::core::Signal truth(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (bits[t * m + i]) truth.set_change(i);
    }
    const auto archived = channel.at(t);
    tally.check(archived.has_value() && archived->entry == logger.log(truth),
                "archived entry differs from core::Logger", round, t);
  }
  // Entries beyond the signal (never expected) are failures too.
  for (std::uint64_t t = cycles; t < channel.total_appended(); ++t) {
    tally.check(false, "archived entry beyond the signal", round, t);
  }
}

void count_sr_run(std::map<std::string, double>& counts,
                  const tp::core::ReconstructionResult& result) {
  counts["reconstruct.calls"] += 1;
  counts["reconstruct.vars"] += result.num_vars;
  counts["reconstruct.clauses"] += static_cast<double>(result.num_clauses);
  counts["reconstruct.xors"] += static_cast<double>(result.num_xors);
  counts["sat.conflicts"] += static_cast<double>(result.stats.conflicts);
  counts["sat.decisions"] += static_cast<double>(result.stats.decisions);
  counts["sat.propagations"] += static_cast<double>(result.stats.propagations);
}

void flip_tp_bit(tp::core::TraceChannel& channel, std::uint64_t index) {
  std::vector<tp::core::LogEntry> entries;
  for (std::uint64_t i = channel.first_retained(); i < channel.total_appended(); ++i) {
    entries.push_back(channel.at(i)->entry);
  }
  auto& tp_bits = entries.at(index - channel.first_retained()).tp;
  tp_bits.flip(0);
  channel.restore(channel.first_retained(), std::move(entries));
}

}  // namespace perfbench
