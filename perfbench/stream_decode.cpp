// stream_decode — the Table 1 stream: trace-cycles with k drawn from
// 1..4 at uniform positions, logged through agg-log -> UART -> archive,
// then the whole archived channel decoded by one
// BatchReconstructor::reconstruct_all at library defaults.
//
// Decoding does nearly all the work (a k=4 entry at m=64, b=13 costs
// seconds, the ingest microseconds), so this is where decoder, cardinality
// and batch-scheduling changes show.
#include <algorithm>
#include <optional>

#include "f2/bitvec.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "rig.hpp"
#include "timeprint/batch.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/reconstruct.hpp"

namespace perfbench {
namespace {

struct Params {
  std::size_t m = 64;
  std::size_t b = 13;  // Table 1's width for m = 64
  std::uint64_t encoding_seed = 42;
  std::size_t k_min = 1;
  std::size_t k_max = 4;
  std::size_t entries_per_round = 64;
  double entry_limit_s = 60.0;  // safety net; a hit is a failed entry
};

Params params_for(const RunConfig& cfg) {
  Params p;
  if (cfg.tiny) {
    p.m = 32;
    p.b = 12;
    p.k_max = 3;
    p.entries_per_round = 6;
  }
  return p;
}

/// Encoding, decoder and ingest hardware: what a user builds before the
/// first trace-cycle arrives.
struct Setup {
  tp::core::TimestampEncoding enc;
  tp::core::BatchReconstructor decoder;
  IngestRig rig;

  Setup(const Params& p, Tracer& tracer, std::uint64_t id)
      : enc(in_span(tracer, "encoding.gen", id,
                    [&] {
                      return tp::core::TimestampEncoding::random_constrained(
                          p.m, p.b, 4, p.encoding_seed);
                    })),
        decoder(in_span(tracer, "presolve.factor", id,
                        [&] { return tp::core::BatchReconstructor(enc); })),
        rig(enc) {}
};

using Cycles = std::vector<std::size_t>;

Cycles sorted_cycles(const tp::core::Signal& s) { return s.change_cycles(); }

std::vector<Cycles> preimage(const std::vector<tp::core::Signal>& signals) {
  std::vector<Cycles> out;
  out.reserve(signals.size());
  for (const auto& s : signals) out.push_back(sorted_cycles(s));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

PassResult run_stream_decode(const RunConfig& cfg, Tracer& tracer, std::size_t rounds) {
  const Params p = params_for(cfg);
  PassResult out;
  out.params.set("m", static_cast<std::uint64_t>(p.m))
      .set("b", static_cast<std::uint64_t>(p.b))
      .set("encoding", "random_constrained LI-4")
      .set("encoding_seed", p.encoding_seed)
      .set("k_min", static_cast<std::uint64_t>(p.k_min))
      .set("k_max", static_cast<std::uint64_t>(p.k_max))
      .set("entries_per_round", static_cast<std::uint64_t>(p.entries_per_round))
      .set("workers", static_cast<std::uint64_t>(cfg.workers));
  const auto pass_start = Clock::now();
  double oracle_s = 0.0;

  std::optional<Setup> setup;
  build_setup(setup, out.setup_s, p, tracer);
  const tp::core::TimestampEncoding& enc = setup->enc;

  tp::core::BatchOptions options;
  options.num_threads = cfg.workers;
  options.recon.limits.max_seconds = p.entry_limit_s;
  // Template-cache counters, read as deltas over the pass. They stay 0
  // while `incremental` is off by default.
  auto& registry = tp::obs::MetricsRegistry::global();
  const auto builds0 = registry.counter_value("incremental.template_builds");
  const auto hits0 = registry.counter_value("incremental.template_hits");

  for (std::size_t r = 0; !budget_spent(cfg, out.rounds, rounds); ++r) {
    tp::f2::Rng rng(round_seed(cfg.seed, r));
    // Equal numbers of each k, in seeded order: every round carries the
    // same decode work mix, so rounds and seeds stay comparable.
    std::vector<std::size_t> ks;
    for (std::size_t i = 0; i < p.entries_per_round; ++i) {
      ks.push_back(p.k_min + i % (p.k_max - p.k_min + 1));
    }
    for (std::size_t i = ks.size(); i > 1; --i) std::swap(ks[i - 1], ks[rng.below(i)]);

    RoundRecord rec;
    tp::core::TraceArchive archive;
    tp::core::TraceChannel& channel = archive.channel("stream", p.m, p.b);
    std::vector<tp::core::Signal> source;
    std::vector<bool> bits;
    tp::core::BatchResult decoded;
    std::vector<tp::core::LogEntry> entries;

    const auto t0 = Clock::now();
    {
      auto round_span = tracer.scope("round", r);
      for (std::size_t k : ks) {
        source.push_back(tp::core::Signal::random_with_changes(p.m, k, rng));
        for (std::size_t i = 0; i < p.m; ++i) bits.push_back(source.back().has_change(i));
      }
      setup->rig.begin(channel);
      for (std::size_t i = 0; i < bits.size(); i += kBlockCycles) {
        setup->rig.clock(bits, i, std::min(bits.size(), i + kBlockCycles), tracer, r);
      }
      setup->rig.finish(tracer, r);
      rec.ingest_s = seconds_between(t0, Clock::now());
      if (cfg.flip_tp_bit && r == 0) flip_tp_bit(channel, 0);

      {
        auto span = tracer.scope("archive.lookup", r);
        for (const auto& e : channel.in_window(0, bits.size())) entries.push_back(e.entry);
      }
      const auto q0 = Clock::now();
      decoded = in_span(tracer, "batch.call", r, [&] {
        return setup->decoder.reconstruct_all(entries, options);
      });
      rec.query_s.push_back(seconds_between(q0, Clock::now()));
    }
    rec.wall_s = seconds_between(t0, Clock::now());
    rec.cycles = setup->rig.cycles();
    rec.entries_answered = entries.size();

    // Oracles, outside the timed region.
    const auto o0 = Clock::now();
    check_archive(enc, channel, bits, out.tally, r);
    out.tally.check(setup->rig.framing_errors() == 0 && setup->rig.max_queue_depth() <= 1,
                    "UART framing error or backlog", r);
    for (std::size_t i = 0; i < source.size(); ++i) {
      if (i >= decoded.results.size()) {
        out.tally.check(false, "entry not decoded", r, i);
        continue;
      }
      const auto& res = decoded.results[i];
      const auto got = preimage(res.signals);
      const auto want =
          preimage(tp::core::Reconstructor::brute_force(enc, entries[i]));
      const bool has_source =
          std::binary_search(got.begin(), got.end(), sorted_cycles(source[i]));
      out.tally.check(res.complete() && got == want && has_source,
                      "preimage incomplete, differs from brute force or lacks the source", r,
                      i);
    }
    oracle_s += seconds_between(o0, Clock::now());

    auto& c = out.counts;
    c["batch.entries"] += static_cast<double>(entries.size());
    c["batch.threads_used"] =
        std::max(c["batch.threads_used"], static_cast<double>(decoded.threads_used));
    c["decode.signals"] += static_cast<double>(decoded.signals_total());
    for (const auto& res : decoded.results) count_sr_run(c, res);
    c["rtlsim.cycles"] += static_cast<double>(setup->rig.cycles());
    c["rtlsim.framing_errors"] += static_cast<double>(setup->rig.framing_errors());
    c["rtlsim.uart_max_queue"] = std::max(
        c["rtlsim.uart_max_queue"], static_cast<double>(setup->rig.max_queue_depth()));
    out.rounds.push_back(std::move(rec));
  }
  out.counts["incremental.template_builds"] = static_cast<double>(
      registry.counter_value("incremental.template_builds") - builds0);
  out.counts["incremental.template_hits"] =
      static_cast<double>(registry.counter_value("incremental.template_hits") - hits0);
  out.timed_wall_s = seconds_between(pass_start, Clock::now()) - oracle_s;
  return out;
}

}  // namespace perfbench
