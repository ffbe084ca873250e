// bench_ablation_card — ablation: Sinz sequential-counter cardinality
// encoding (the paper's choice, [20]) vs the Bailleux–Boufkhad totalizer,
// on first-solution reconstruction queries. The vars/clauses counters are
// the encoded size of the last query.

#include <benchmark/benchmark.h>

#include "bench_gbench.hpp"
#include "timeprint/design.hpp"
#include "timeprint/reconstruct.hpp"

using namespace tp;

namespace {

void run_reconstruction(benchmark::State& state, sat::CardEncoding enc_kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto enc =
      core::TimestampEncoding::random_constrained(m, core::paper_width(m), 4, 42);
  core::Logger logger(enc);

  std::uint64_t seed = 1;
  int vars = 0;
  std::size_t clauses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    f2::Rng rng(seed++);
    const core::Signal s = core::Signal::random_with_changes(m, k, rng);
    const core::LogEntry entry = logger.log(s);
    state.ResumeTiming();

    core::Reconstructor rec(enc);
    core::ReconstructionOptions opt;
    opt.card_encoding = enc_kind;
    opt.max_solutions = 1;
    auto result = rec.reconstruct(entry, opt);
    benchmark::DoNotOptimize(result.signals.size());
    vars = result.num_vars;
    clauses = result.num_clauses;
  }
  state.counters["vars"] = vars;
  state.counters["clauses"] = static_cast<double>(clauses);
}

void BM_SinzSequentialCounter(benchmark::State& state) {
  run_reconstruction(state, sat::CardEncoding::SequentialCounter);
}
void BM_Totalizer(benchmark::State& state) {
  run_reconstruction(state, sat::CardEncoding::Totalizer);
}

}  // namespace

BENCHMARK(BM_SinzSequentialCounter)
    ->Args({32, 4})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({96, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Totalizer)
    ->Args({32, 4})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({96, 4})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return tp::bench::gbench_main("ablation_card", argc, argv);
}
