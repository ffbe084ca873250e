// can_forensics — §5.2.1: the CANoe-like bus with a seeded EngineData
// release, its line waveform logged through agg-log -> UART -> archive at
// the paper's m = 1000, b = 24. A round is seven disputed transmissions,
// each on a bus of its own; for each, the first EngineData instance alone
// in its trace-cycle is fetched by covering_cycle and two fresh
// Reconstructor queries run:
//   1. start recovery inside a narrow failure-report window
//      (FrameAtUnknownStart, max_solutions = 1);
//   2. the deadline-met hypothesis over a few early placements, which must
//      end UNSAT.
// Each query is a large-m fresh decode with a property (k = 22, so no
// small-k decoder applies); set-up is dominated by LI-4 generation.
//
// The disputed frames start at fixed cycles within their trace-cycles,
// spread evenly over the range the windows allow; the seed draws the
// trace-cycle, the injected delay and the order. The solver's work depends
// on the start cycle (2.3M to 9.4M propagations for the recovery query,
// changing within a few cycles), so start cycles drawn per seed would make
// whole runs up to a third slower or faster with seven frames a run.
#include <algorithm>
#include <optional>

#include "can/bus.hpp"
#include "can/forensics.hpp"
#include "can/traffic.hpp"
#include "f2/bitvec.hpp"
#include "perfbench.hpp"
#include "rig.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/reconstruct.hpp"

namespace perfbench {
namespace {

struct Params {
  std::size_t m = 1000;
  std::size_t b = 24;
  std::uint64_t encoding_seed = 2019;
  std::uint64_t bus_bits = 1000000;       // 200 ms of bus time at 5 Mbps
  std::size_t disputes_per_round = 7;     // about 30 s of queries at this commit
  std::size_t window = 4;                 // recovery window: true start +-4
  std::size_t deadline_placements = 4;    // candidate starts of the hypothesis
  std::size_t lateness = 48;              // cycles the frame ended past the deadline
  double query_limit_s = 60.0;            // safety net; a hit is a failed query
  std::vector<std::size_t> start_cycles;  // of the disputed frames, in their trace-cycles
};

Params params_for(const RunConfig& cfg) {
  Params p;
  if (cfg.tiny) {
    p.m = 256;
    p.b = 20;
    p.disputes_per_round = 1;
  }
  // Evenly spaced over the start cycles the recovery window and the
  // deadline placements allow.
  const std::size_t earliest = std::max(p.window, p.lateness + p.deadline_placements - 1);
  const std::size_t frame_bits =
      tp::can::frame_change_pattern(tp::can::engine_data_frame(), false).size();
  const std::size_t latest = p.m - frame_bits - p.window;
  for (std::size_t j = 0; j < p.disputes_per_round; ++j) {
    p.start_cycles.push_back(
        p.disputes_per_round == 1
            ? earliest
            : earliest + (latest - earliest) * j / (p.disputes_per_round - 1));
  }
  return p;
}

struct Setup {
  tp::core::TimestampEncoding enc;
  tp::core::Reconstructor decoder;
  IngestRig rig;
  std::vector<bool> pattern;

  Setup(const Params& p, Tracer& tracer, std::uint64_t id)
      : enc(in_span(tracer, "encoding.gen", id,
                    [&] {
                      return tp::core::TimestampEncoding::random_constrained(
                          p.m, p.b, 4, p.encoding_seed);
                    })),
        decoder(in_span(tracer, "presolve.factor", id,
                        [&] { return tp::core::Reconstructor(enc); })),
        rig(enc),
        pattern(tp::can::frame_change_pattern(tp::can::engine_data_frame(), false)) {}
};

/// One disputed EngineData transmission.
struct Instance {
  std::uint64_t start_bit = 0;
  std::size_t start_rel = 0;  // start cycle within its trace-cycle (hidden truth)
};

/// One disputed transmission's bus as the tracer saw it, and the answers.
struct Dispute {
  std::vector<bool> bits;  // change bit per bus bit
  std::size_t framing_errors = 0;
  std::size_t max_queue = 0;
  std::optional<Instance> instance;
  std::optional<std::size_t> found_start;
  tp::sat::Status deadline = tp::sat::Status::Unknown;
  std::size_t deadline_signals = 0;
};

/// The first EngineData instance alone in its trace-cycle, with room for
/// the recovery window and the deadline placements before it.
std::optional<Instance> pick_instance(const tp::can::CanBus& bus, const Params& p,
                                      std::size_t len) {
  const std::size_t earliest =
      std::max(p.window, p.lateness + p.deadline_placements - 1);
  for (const auto& r : bus.records()) {
    if (r.name != "EngineData") continue;
    const std::uint64_t t = r.start_bit / p.m;
    const std::size_t rel = static_cast<std::size_t>(r.start_bit % p.m);
    if (rel < earliest || rel + len + p.window > p.m) continue;
    const bool alone = std::none_of(
        bus.records().begin(), bus.records().end(), [&](const tp::can::BusRecord& o) {
          return &o != &r && o.start_bit < (t + 1) * p.m && o.end_bit > t * p.m;
        });
    if (alone) return Instance{r.start_bit, rel};
  }
  return std::nullopt;
}

}  // namespace

PassResult run_can_forensics(const RunConfig& cfg, Tracer& tracer, std::size_t rounds) {
  const Params p = params_for(cfg);
  PassResult out;
  out.params.set("m", static_cast<std::uint64_t>(p.m))
      .set("b", static_cast<std::uint64_t>(p.b))
      .set("encoding", "random_constrained LI-4")
      .set("encoding_seed", p.encoding_seed)
      .set("bus_bits_per_round", p.bus_bits)
      .set("instances_per_round", static_cast<std::uint64_t>(p.disputes_per_round))
      .set("queries_per_instance", 2)
      .set("recovery_window", static_cast<std::uint64_t>(p.window))
      .set("deadline_placements", static_cast<std::uint64_t>(p.deadline_placements))
      .set("lateness_cycles", static_cast<std::uint64_t>(p.lateness));
  auto starts = tp::obs::Json::array();
  for (std::size_t c : p.start_cycles) starts.push(static_cast<std::uint64_t>(c));
  out.params.set("start_cycles", std::move(starts));
  const auto pass_start = Clock::now();
  double oracle_s = 0.0;

  std::optional<Setup> setup;
  build_setup(setup, out.setup_s, p, tracer);
  const tp::core::TimestampEncoding& enc = setup->enc;
  const std::vector<bool>& pattern = setup->pattern;
  const std::size_t len = pattern.size();
  out.params.set("frame_bits", static_cast<std::uint64_t>(len));

  tp::core::ReconstructionOptions options;
  options.max_solutions = 1;
  options.limits.max_seconds = p.query_limit_s;

  CpuRotation cpus;
  for (std::size_t r = 0; !budget_spent(cfg, out.rounds, rounds); ++r) {
    tp::f2::Rng rng(round_seed(cfg.seed, r));
    std::vector<std::size_t> order = p.start_cycles;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

    RoundRecord rec;
    tp::core::TraceArchive archive;
    std::vector<Dispute> disputes(order.size());

    const auto t0 = Clock::now();
    {
      auto round_span = tracer.scope("round", r);
      for (std::size_t q = 0; q < disputes.size(); ++q) {
        Dispute& d = disputes[q];
        const std::uint64_t id = r * 1000 + q;
        cpus.next();
        auto dispute_span = tracer.scope("instance", id);
        // The first EngineData release lands at the chosen start cycle of a
        // seeded trace-cycle 10..40. The other messages are first released
        // before cycle 10 000 and next after 60 000 (m = 1000), so the frame
        // is alone and starts on time.
        tp::can::CanoeDemoConfig traffic;
        traffic.engine_extra_delay = rng.below(1000);
        traffic.engine_offset =
            p.m * (10 + rng.below(31)) + order[q] - traffic.engine_extra_delay;
        tp::can::CanBus bus = in_span(tracer, "can.sim", id, [&] {
          tp::can::CanBus b = tp::can::make_canoe_demo(traffic);
          b.run(p.bus_bits);
          return b;
        });
        // The tracer sees a change bit per bus bit; the line idles high.
        bool prev = true;
        for (bool level : bus.waveform()) {
          d.bits.push_back(level != prev);
          prev = level;
        }
        tp::core::TraceChannel& channel =
            archive.channel("can/" + std::to_string(q), p.m, p.b);
        setup->rig.begin(channel);
        for (std::size_t i = 0; i < d.bits.size(); i += kBlockCycles) {
          setup->rig.clock(d.bits, i, std::min(d.bits.size(), i + kBlockCycles), tracer, id);
        }
        setup->rig.finish(tracer, id);
        rec.cycles += setup->rig.cycles();
        d.framing_errors = setup->rig.framing_errors();
        d.max_queue = setup->rig.max_queue_depth();

        // The coarse software log names the disputed transmission.
        d.instance = pick_instance(bus, p, len);
        if (!d.instance.has_value()) continue;
        const Instance& in = *d.instance;
        if (cfg.flip_tp_bit && r == 0 && q == 0) flip_tp_bit(channel, in.start_bit / p.m);
        const auto entry = in_span(tracer, "archive.lookup", id,
                                   [&] { return channel.covering_cycle(in.start_bit); });
        if (!entry.has_value()) continue;
        auto query = [&](const tp::core::Property& property) {
          tp::core::Reconstructor decoder = setup->decoder;
          decoder.add_property(property);
          const auto q0 = Clock::now();
          auto res = in_span(tracer, "reconstruct.call", id, [&] {
            return decoder.reconstruct(entry->entry, options);
          });
          rec.query_s.push_back(seconds_between(q0, Clock::now()));
          count_sr_run(out.counts, res);
          return res;
        };
        // 1. When did the frame start? Searched in the failure-report window.
        const std::size_t lo = in.start_rel - p.window;
        const std::size_t hi = in.start_rel + p.window + 1;
        const auto found = query(tp::can::FrameAtUnknownStart(p.m, pattern, lo, hi));
        if (!found.signals.empty()) {
          const auto starts = tp::can::find_pattern(found.signals[0], pattern, lo, hi);
          if (!starts.empty()) d.found_start = starts[0];
        }
        // 2. "It ended by the deadline": every placement that would have.
        const std::size_t early_hi = in.start_rel - p.lateness + 1;
        const auto refuted = query(tp::can::FrameAtUnknownStart(
            p.m, pattern, early_hi - p.deadline_placements, early_hi));
        d.deadline = refuted.final_status;
        d.deadline_signals = refuted.signals.size();
      }
    }
    rec.wall_s = seconds_between(t0, Clock::now());
    for (const Dispute& d : disputes) rec.entries_answered += d.instance.has_value() ? 1 : 0;

    // Oracles, outside the timed region.
    const auto o0 = Clock::now();
    for (std::size_t q = 0; q < disputes.size(); ++q) {
      const Dispute& d = disputes[q];
      check_archive(enc, *archive.find("can/" + std::to_string(q)), d.bits, out.tally, r);
      out.tally.check(d.framing_errors == 0 && d.max_queue <= 1,
                      "UART framing error or backlog", r, q);
      out.tally.check(d.instance.has_value(),
                      "no EngineData instance alone in a trace-cycle", r, q);
      if (!d.instance.has_value()) continue;
      out.tally.check(d.found_start == d.instance->start_rel,
                      "recovered start differs from the simulated start", r, q);
      out.tally.check(d.deadline == tp::sat::Status::Unsat && d.deadline_signals == 0,
                      "deadline-met hypothesis did not end UNSAT", r, q);
    }
    oracle_s += seconds_between(o0, Clock::now());

    auto& c = out.counts;
    c["can.bits"] += static_cast<double>(p.bus_bits * disputes.size());
    c["rtlsim.cycles"] += static_cast<double>(rec.cycles);
    for (const Dispute& d : disputes) {
      c["rtlsim.framing_errors"] += static_cast<double>(d.framing_errors);
      c["rtlsim.uart_max_queue"] =
          std::max(c["rtlsim.uart_max_queue"], static_cast<double>(d.max_queue));
    }
    out.rounds.push_back(std::move(rec));
  }
  out.timed_wall_s = seconds_between(pass_start, Clock::now()) - oracle_s;
  return out;
}

}  // namespace perfbench
