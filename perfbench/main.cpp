// tp_perfbench — one workload of the end-to-end timeprint benchmark.
//
//   tp_perfbench --workload <stream_decode|can_forensics|refresh_ingest>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--out <dir>] [--commit <id>] [--source-sha256 <hex>]
//                [--tiny] [--flip-tp-bit]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the same rounds twice, untraced then traced, prints the
// per-layer metrics of the traced pass and the tracing overhead (traced
// minus untraced wall time), and writes the spans to --out.
// The last stdout line is the result object; the exit code is non-zero
// when any oracle failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; run.py refuses a result whose names differ.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"entries_per_s", "entries/s"},
    {"query_p50_s", "s"},
    {"verdict_s", "s"},
    {"ingest_cycles_per_s", "cycles/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"encoding.gen_s", "s"},
    {"presolve.factor_s", "s"},
    {"reconstruct.calls", "count"},
    {"reconstruct.call_s", "s"},
    {"reconstruct.vars", "count"},
    {"reconstruct.clauses", "count"},
    {"reconstruct.xors", "count"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"batch.entries", "count"},
    {"batch.call_s", "s"},
    {"batch.threads_used", "count"},
    {"decode.signals", "count"},
    {"incremental.template_builds", "count"},
    {"incremental.template_hits", "count"},
    {"can.bits", "count"},
    {"can.sim_s", "s"},
    {"soc.cycles", "count"},
    {"soc.sim_s", "s"},
    {"soc.refresh_collisions", "count"},
    {"rtlsim.cycles", "count"},
    {"rtlsim.step_s", "s"},
    {"rtlsim.uart_max_queue", "count"},
    {"rtlsim.framing_errors", "count"},
    {"monitor.tick_s", "s"},
    {"archive.append_s", "s"},
    {"archive.save_s", "s"},
    {"archive.load_s", "s"},
    {"archive.bytes", "bytes"},
    {"archive.lookup_s", "s"},
    {"analysis.compare_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_s", "s"},
};

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"stream_decode", &run_stream_decode},
    {"can_forensics", &run_can_forensics},
    {"refresh_ingest", &run_refresh_ingest},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "tp_perfbench: %s\n", why);
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  double value;
  const char* unit;
  std::size_t samples;
};

void print_metric(const char* name, const Metric& m) {
  std::printf("metric %-28s %16.9g %-10s n=%zu\n", name, m.value, m.unit, m.samples);
}

tp::obs::Json metrics_json(const std::vector<std::pair<const char*, Metric>>& metrics) {
  auto obj = tp::obs::Json::object();
  for (const auto& [name, m] : metrics) {
    obj.set(name, tp::obs::Json::object().set("value", m.value).set("unit", m.unit));
  }
  return obj;
}

std::vector<std::pair<const char*, Metric>> end_to_end(const PassResult& pass) {
  double entries = 0, wall = 0, cycles = 0;
  std::vector<double> walls, queries;
  for (const RoundRecord& r : pass.rounds) {
    entries += static_cast<double>(r.entries_answered);
    wall += r.wall_s;
    cycles += static_cast<double>(r.cycles);
    walls.push_back(r.wall_s);
    queries.insert(queries.end(), r.query_s.begin(), r.query_s.end());
  }
  const std::size_t n = pass.rounds.size();
  const std::map<std::string, std::pair<double, std::size_t>> values = {
      {"setup_s", {median(pass.setup_s), pass.setup_s.size()}},
      {"entries_per_s", {entries / wall, static_cast<std::size_t>(entries)}},
      {"query_p50_s", {median(queries), queries.size()}},
      {"verdict_s", {median(walls), n}},
      // Over the whole round, not the ingest stage alone: on stream_decode
      // the ingest lasts about a millisecond, too short to time steadily.
      {"ingest_cycles_per_s", {cycles / wall, n}},
      {"peak_rss_mb", {peak_rss_mb(), 1}},
  };
  std::vector<std::pair<const char*, Metric>> out;
  for (const MetricDef& d : kEndToEnd) {
    const auto& [value, samples] = values.at(d.name);
    out.emplace_back(d.name, Metric{value, d.unit, samples});
  }
  return out;
}

tp::obs::Json samples_json(const std::vector<double>& values) {
  auto arr = tp::obs::Json::array();
  for (double v : values) arr.push(v);
  return arr;
}

tp::obs::Json rounds_json(const std::vector<RoundRecord>& rounds) {
  auto arr = tp::obs::Json::array();
  for (const RoundRecord& r : rounds) {
    arr.push(tp::obs::Json::object()
                 .set("wall_s", r.wall_s)
                 .set("ingest_s", r.ingest_s)
                 .set("cycles", r.cycles)
                 .set("entries_answered", r.entries_answered)
                 .set("query_s", samples_json(r.query_s)));
  }
  return arr;
}

std::vector<std::pair<const char*, Metric>> per_layer(const PassResult& traced,
                                                      const Tracer& tracer,
                                                      double overhead_s) {
  double self_total = 0.0;
  for (const auto& [layer, t] : tracer.layer_self_times()) self_total += t;
  std::vector<std::pair<const char*, Metric>> out;
  for (const MetricDef& d : kPerLayer) {
    const std::string name = d.name;
    double value = 0.0;
    if (name == "trace.overhead_s") {
      value = overhead_s;
    } else if (name == "trace.unattributed_s") {
      value = traced.timed_wall_s - self_total;
    } else if (std::strcmp(d.unit, "s") == 0) {
      value = tracer.busy(name.substr(0, name.size() - 2));
    } else if (auto it = traced.counts.find(name); it != traced.counts.end()) {
      value = it->second;
    }
    out.emplace_back(d.name, Metric{value, d.unit, traced.rounds.size()});
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool trace = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::string out_dir = ".bench_out", commit = "unknown", source_sha = "unknown";
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cpus = usable_cpus();
  cfg.workers = std::min<std::size_t>(4, cpus);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      trace = v == "1";
      have_trace = true;
    } else if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--source-sha256") {
      source_sha = value();
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--flip-tp-bit") {
      cfg.flip_tp_bit = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("--workload must name a workload");
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }

  try {
    std::vector<std::pair<const char*, Metric>> metrics;
    PassResult measured;  // the pass whose metrics are printed
    Tally tally;
    tp::obs::Json spans;
    double overhead_s = 0.0;
    if (!trace) {
      Tracer off(false);
      measured = workload->fn(cfg, off, 0);
      metrics = end_to_end(measured);
      tally = measured.tally;
    } else {
      // Half the budget each, so the traced run takes about as long.
      RunConfig half = cfg;
      half.seconds = cfg.seconds / 2;
      Tracer off(false);
      const PassResult untraced = workload->fn(half, off, 0);
      Tracer on(true);
      measured = workload->fn(half, on, untraced.rounds.size());
      overhead_s = measured.timed_wall_s - untraced.timed_wall_s;
      metrics = per_layer(measured, on, overhead_s);
      tally.attempted = untraced.tally.attempted + measured.tally.attempted;
      tally.failed = untraced.tally.failed + measured.tally.failed;
      std::printf("self-time");
      double self_total = 0.0;
      for (const auto& [layer, t] : on.layer_self_times()) {
        std::printf(" %s=%.6f", layer.c_str(), t);
        self_total += t;
      }
      std::printf(" unattributed=%.6f traced_wall=%.6f untraced_wall=%.6f overhead=%.6f\n",
                  measured.timed_wall_s - self_total, measured.timed_wall_s,
                  untraced.timed_wall_s, overhead_s);
      spans = on.to_json();
    }
    for (const auto& note : measured.notes) std::printf("note %s\n", note.c_str());

    const auto identity =
        tp::obs::Json::object()
            .set("workload", cfg.workload)
            .set("seed", cfg.seed)
            .set("seconds", cfg.seconds)
            .set("trace", trace)
            .set("tiny", cfg.tiny)
            .set("rounds", static_cast<std::uint64_t>(measured.rounds.size()))
            .set("commit", commit)
            .set("source_sha256", source_sha)
            .set("build_type", TP_PERFBENCH_BUILD_TYPE)
            .set("compiler", TP_PERFBENCH_COMPILER)
            .set("hardware_concurrency", static_cast<std::uint64_t>(hw))
            .set("usable_cpus", static_cast<std::uint64_t>(cpus))
            .set("workers", static_cast<std::uint64_t>(cfg.workers))
            .set("params", measured.params);
    std::printf("identity %s\n", identity.dump().c_str());
    for (const auto& [name, m] : metrics) print_metric(name, m);
    print_metric("failed_frac",
                 Metric{tally.attempted == 0 ? 1.0
                                             : static_cast<double>(tally.failed) /
                                                   static_cast<double>(tally.attempted),
                        "ratio", static_cast<std::size_t>(tally.attempted)});

    const auto result = tp::obs::Json::object()
                            .set("correct", tally.failed == 0 && tally.attempted > 0)
                            .set("attempted", tally.attempted)
                            .set("failed", tally.failed)
                            .set("metrics", metrics_json(metrics));
    std::filesystem::create_directories(out_dir);
    const std::string path = out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + (trace ? "-trace" : "") + ".json";
    auto record = tp::obs::Json::object()
                      .set("identity", identity)
                      .set("result", result)
                      .set("setup_s", samples_json(measured.setup_s))
                      .set("rounds", rounds_json(measured.rounds));
    if (trace) record.set("overhead_s", overhead_s).set("trace", std::move(spans));
    std::ofstream(path) << record.dump() << "\n";
    std::printf("wrote %s\n", path.c_str());
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tp_perfbench: %s\n", e.what());
    return 2;
  }
}
