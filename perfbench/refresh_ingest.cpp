// refresh_ingest — §5.2.2: the Lion3 SoC demo program with PSRAM refresh,
// swept over ambient temperature x refresh phase, plus reference
// simulations with the right and the wrong wait states. Each run's
// address-change signal goes through the RTL agg-log, the RV monitors and
// the UART into the archive; the archive is saved and reloaded and
// soc::compare_logs gives the triage verdicts. No SAT decode runs: here
// the archive is written, not read, and soc, rtlsim and monitor do the
// work, so decode optimisations should predict no change.
//
// b = 26 rather than the repo bench's 24: generation at b = 24 costs tens
// of seconds and would make the run mostly set-up, can_forensics already
// measures slow generation, and b does not change the ingest work.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "f2/bitvec.hpp"
#include "monitor/monitor.hpp"
#include "perfbench.hpp"
#include "rig.hpp"
#include "soc/analysis.hpp"
#include "soc/isa.hpp"
#include "soc/system.hpp"
#include "timeprint/archive.hpp"
#include "timeprint/encoding.hpp"
#include "timeprint/logger.hpp"

namespace perfbench {
namespace {

struct Params {
  std::size_t m = 1024;
  std::size_t b = 26;
  std::uint64_t encoding_seed = 7;
  std::size_t trace_cycles = 118;  // ~120k cycles per run, as in the paper bench
  std::vector<double> ambients_c = {25.0, 35.0, 45.0, 55.0, 65.0};
  std::size_t phases_per_ambient = 2;  // seeded refresh phases per round
  std::uint64_t refresh_base_interval = 2800;
  double refresh_slope = 30.0;
};

Params params_for(const RunConfig& cfg) {
  Params p;
  if (cfg.tiny) {
    p.m = 256;
    p.b = 20;
    p.ambients_c = {45.0, 65.0};
    p.phases_per_ambient = 1;
  }
  return p;
}

struct Setup {
  tp::core::TimestampEncoding enc;
  IngestRig rig;
  tp::soc::SocSystem::Config sim_right;  // reference: correct wait states
  tp::soc::SocSystem::Config sim_wrong;  // reference: the configuration bug
  tp::soc::SocSystem::Config fpga;       // refresh on; ambient/phase per run

  Setup(const Params& p, Tracer& tracer, std::uint64_t id)
      : enc(in_span(tracer, "encoding.gen", id,
                    [&] {
                      return tp::core::TimestampEncoding::random_constrained(
                          p.m, p.b, 4, p.encoding_seed);
                    })),
        rig(enc) {
    sim_right.program = tp::soc::demo_image(16, 256);
    sim_right.mem.wait_states = 1;
    sim_wrong = sim_right;
    sim_wrong.mem.wait_states = 0;
    fpga = sim_right;
    fpga.mem.refresh_enabled = true;
    fpga.mem.refresh_base_interval = p.refresh_base_interval;
    fpga.mem.refresh_slope = p.refresh_slope;
  }
};

/// One simulated run as the benchmark recorded it (truth for the oracles).
struct Run {
  std::string channel;
  std::vector<bool> bits;
  std::unique_ptr<tp::monitor::MonitorBank> bank;
  std::uint64_t collisions = 0;
  std::size_t framing_errors = 0;
  std::size_t max_queue = 0;
};

std::unique_ptr<tp::monitor::MonitorBank> make_bank(std::size_t m) {
  auto bank = std::make_unique<tp::monitor::MonitorBank>(m);
  bank->add(std::make_unique<tp::monitor::NoConsecutiveMonitor>());
  bank->add(std::make_unique<tp::monitor::MinGapMonitor>(2));
  bank->add(std::make_unique<tp::monitor::MaxGapMonitor>(m / 8));
  bank->add(std::make_unique<tp::monitor::DeadlineMonitor>(m / 2, 1));
  return bank;
}

/// Simulate one SoC configuration through SoC -> monitors -> agg-log ->
/// UART -> archive channel.
Run simulate(const Params& p, Setup& setup, const tp::soc::SocSystem::Config& config,
             std::string name, tp::core::TraceArchive& archive, Tracer& tracer,
             std::uint64_t id) {
  Run run;
  run.channel = std::move(name);
  run.bank = make_bank(p.m);
  tp::core::TraceChannel& channel = archive.channel(run.channel, p.m, p.b);
  tp::soc::SocSystem soc(config);
  const std::size_t cycles = p.trace_cycles * p.m;
  run.bits.resize(cycles);
  setup.rig.begin(channel);
  for (std::size_t i = 0; i < cycles; i += kBlockCycles) {
    const std::size_t end = std::min(cycles, i + kBlockCycles);
    {
      auto span = tracer.scope("soc.sim", id);
      for (std::size_t c = i; c < end; ++c) {
        soc.tick();
        run.bits[c] = soc.addr_changed();
      }
    }
    {
      auto span = tracer.scope("monitor.tick", id);
      for (std::size_t c = i; c < end; ++c) run.bank->tick(run.bits[c]);
    }
    setup.rig.clock(run.bits, i, end, tracer, id);
  }
  setup.rig.finish(tracer, id);
  run.collisions = soc.refresh_collisions();
  run.framing_errors = setup.rig.framing_errors();
  run.max_queue = setup.rig.max_queue_depth();
  return run;
}

/// compare_logs' answer computed from the recorded signals with the
/// behavioural logger.
tp::soc::Divergence truth_divergence(const tp::core::TimestampEncoding& enc,
                                     const std::vector<bool>& a,
                                     const std::vector<bool>& b) {
  const std::size_t m = enc.m();
  const tp::core::Logger logger(enc);
  tp::soc::Divergence d{0, 0, std::min(a.size(), b.size()) / m};
  d.first_k_mismatch = d.first_entry_mismatch = d.compared;
  for (std::size_t t = 0; t < d.compared; ++t) {
    tp::core::Signal sa(m), sb(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (a[t * m + i]) sa.set_change(i);
      if (b[t * m + i]) sb.set_change(i);
    }
    const auto ea = logger.log(sa), eb = logger.log(sb);
    if (ea.k != eb.k && d.first_k_mismatch == d.compared) d.first_k_mismatch = t;
    if (!(ea == eb) && d.first_entry_mismatch == d.compared) d.first_entry_mismatch = t;
  }
  return d;
}

/// A refresh collision makes SocSystem show the address event one cycle
/// late (its modelling note).
constexpr std::size_t kRefreshDelayCycles = 1;

/// First cycle at which two recorded signals differ, or the shorter
/// length when one is a prefix of the other.
std::size_t first_difference(const std::vector<bool>& a, const std::vector<bool>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t c = 0;
  while (c < n && a[c] == b[c]) ++c;
  return c;
}

bool same(const tp::soc::Divergence& x, const tp::soc::Divergence& y) {
  return x.first_k_mismatch == y.first_k_mismatch &&
         x.first_entry_mismatch == y.first_entry_mismatch && x.compared == y.compared;
}

tp::core::TraceLog to_log(const tp::core::TraceChannel& channel) {
  tp::core::TraceLog log(channel.m(), channel.width());
  for (std::uint64_t i = channel.first_retained(); i < channel.total_appended(); ++i) {
    log.append(channel.at(i)->entry);
  }
  return log;
}

}  // namespace

PassResult run_refresh_ingest(const RunConfig& cfg, Tracer& tracer, std::size_t rounds) {
  const Params p = params_for(cfg);
  PassResult out;
  out.params.set("m", static_cast<std::uint64_t>(p.m))
      .set("b", static_cast<std::uint64_t>(p.b))
      .set("encoding", "random_constrained LI-4")
      .set("encoding_seed", p.encoding_seed)
      .set("program", "demo_image(16, 256)")
      .set("trace_cycles_per_run", static_cast<std::uint64_t>(p.trace_cycles))
      .set("ambients", static_cast<std::uint64_t>(p.ambients_c.size()))
      .set("phases_per_ambient", static_cast<std::uint64_t>(p.phases_per_ambient))
      .set("runs_per_round",
           static_cast<std::uint64_t>(2 + p.ambients_c.size() * p.phases_per_ambient));
  const auto pass_start = Clock::now();
  double oracle_s = 0.0;

  std::optional<Setup> setup;
  build_setup(setup, out.setup_s, p, tracer);
  const tp::core::TimestampEncoding& enc = setup->enc;
  struct {
    std::size_t equal_k_first = 0, k_differs_first = 0, no_divergence = 0;
  } triage;

  CpuRotation cpus;
  for (std::size_t r = 0; !budget_spent(cfg, out.rounds, rounds); ++r) {
    cpus.next();
    tp::f2::Rng rng(round_seed(cfg.seed, r));
    RoundRecord rec;
    std::vector<Run> runs;
    std::optional<tp::core::TraceArchive> loaded;
    std::vector<tp::soc::Divergence> vs_right, vs_wrong;
    std::size_t archive_bytes = 0;

    const auto t0 = Clock::now();
    {
      auto round_span = tracer.scope("round", r);
      tp::core::TraceArchive archive;
      std::uint64_t id = r * 1000;
      runs.push_back(
          simulate(p, *setup, setup->sim_right, "sim/ws1", archive, tracer, id++));
      runs.push_back(
          simulate(p, *setup, setup->sim_wrong, "sim/ws0", archive, tracer, id++));
      for (double ambient : p.ambients_c) {
        for (std::size_t ph = 0; ph < p.phases_per_ambient; ++ph) {
          auto config = setup->fpga;
          config.mem.ambient_c = ambient;
          config.mem.refresh_phase = rng.below(p.refresh_base_interval);
          runs.push_back(simulate(p, *setup, config,
                                  "hw/" + std::to_string(runs.size() - 2), archive,
                                  tracer, id++));
        }
      }
      std::string saved;
      {
        auto span = tracer.scope("archive.save", r);
        std::ostringstream os;
        archive.save(os);
        saved = os.str();
      }
      archive_bytes = saved.size();
      {
        auto span = tracer.scope("archive.load", r);
        std::istringstream is(saved);
        loaded.emplace(tp::core::TraceArchive::load(is));
      }
      rec.ingest_s = seconds_between(t0, Clock::now());
      if (cfg.flip_tp_bit && r == 0) flip_tp_bit(*loaded->find(runs[2].channel), 0);

      // Triage: each hardware log against both reference simulations.
      const auto [right, wrong] = in_span(tracer, "archive.lookup", r, [&] {
        return std::array{to_log(*loaded->find("sim/ws1")), to_log(*loaded->find("sim/ws0"))};
      });
      for (std::size_t i = 2; i < runs.size(); ++i) {
        const std::uint64_t qid = r * 1000 + i;
        const auto q0 = Clock::now();
        const auto hw = in_span(tracer, "archive.lookup", qid,
                                [&] { return to_log(*loaded->find(runs[i].channel)); });
        {
          auto span = tracer.scope("analysis.compare", qid);
          vs_right.push_back(tp::soc::compare_logs(hw, right));
          vs_wrong.push_back(tp::soc::compare_logs(hw, wrong));
        }
        rec.query_s.push_back(seconds_between(q0, Clock::now()));
      }
    }
    rec.wall_s = seconds_between(t0, Clock::now());
    for (const Run& run : runs) rec.cycles += run.bits.size();
    rec.entries_answered = rec.cycles / p.m;

    // Oracles, outside the timed region.
    const auto o0 = Clock::now();
    for (const Run& run : runs) {
      check_archive(enc, *loaded->find(run.channel), run.bits, out.tally, r);
      out.tally.check(run.framing_errors == 0 && run.max_queue <= 1,
                      "UART framing error or backlog", r);
      // Every property a monitor certified holds on the recorded signal.
      const auto& history = run.bank->history();
      bool monitors_ok = history.size() == p.trace_cycles;
      for (std::size_t w = 0; monitors_ok && w < history.size(); ++w) {
        tp::core::Signal truth(p.m);
        for (std::size_t i = 0; i < p.m; ++i) {
          if (run.bits[w * p.m + i]) truth.set_change(i);
        }
        for (const auto& prop : run.bank->certified_for(w)) {
          monitors_ok = monitors_ok && prop->holds(truth);
        }
      }
      out.tally.check(monitors_ok, "monitor verdict contradicts the recorded signal", r);
    }
    for (std::size_t i = 0; i < vs_right.size(); ++i) {
      const Run& hw = runs[i + 2];
      // Both verdicts match the behavioural logger run over the recorded
      // signals, independent of RTL, UART, archive and compare_logs.
      const auto right = truth_divergence(enc, hw.bits, runs[0].bits);
      const auto wrong = truth_divergence(enc, hw.bits, runs[1].bits);
      out.tally.check(same(vs_right[i], right) && same(vs_wrong[i], wrong),
                      "triage verdict differs from the recorded signals", r, i);
      // The wrong wait states show up as a change-count mismatch.
      out.tally.check(vs_wrong[i].first_k_mismatch < vs_wrong[i].compared,
                      "wrong wait states gave no k mismatch", r, i);
      // After the fix the logs first diverge at equal k. Two exceptions
      // follow from the model and are checked, not assumed: no divergence
      // at all when no refresh collided, and k differing first when the
      // first delayed event lay within the refresh delay of the end of its
      // trace-cycle and so moved into the next one.
      const auto& fixed = vs_right[i];
      bool fixed_ok = true;
      if (fixed.first_entry_mismatch == fixed.compared) {
        ++triage.no_divergence;
        fixed_ok = hw.collisions == 0;
      } else if (fixed.first_k_mismatch == fixed.first_entry_mismatch) {
        ++triage.k_differs_first;
        const std::size_t c = first_difference(hw.bits, runs[0].bits);
        fixed_ok = c / p.m == fixed.first_entry_mismatch &&
                   p.m - c % p.m <= kRefreshDelayCycles;
      } else {
        ++triage.equal_k_first;
      }
      out.tally.check(fixed_ok, "fixed simulation: logs do not first diverge at equal k", r,
                      i);
    }
    oracle_s += seconds_between(o0, Clock::now());

    auto& c = out.counts;
    for (const Run& run : runs) {
      c["soc.cycles"] += static_cast<double>(run.bits.size());
      c["soc.refresh_collisions"] += static_cast<double>(run.collisions);
      c["rtlsim.cycles"] += static_cast<double>(run.bits.size());
      c["rtlsim.framing_errors"] += static_cast<double>(run.framing_errors);
      c["rtlsim.uart_max_queue"] =
          std::max(c["rtlsim.uart_max_queue"], static_cast<double>(run.max_queue));
    }
    c["archive.bytes"] += static_cast<double>(archive_bytes);
    out.rounds.push_back(std::move(rec));
  }
  out.notes.push_back(
      "fixed-simulation triage: " + std::to_string(triage.equal_k_first) +
      " runs first diverge at equal k, " + std::to_string(triage.k_differs_first) +
      " at differing k, " + std::to_string(triage.no_divergence) + " not at all");
  out.timed_wall_s = seconds_between(pass_start, Clock::now()) - oracle_s;
  return out;
}

}  // namespace perfbench
