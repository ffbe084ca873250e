// tpr.cpp — command-line front end for timeprint logging and
// reconstruction ("the tool" of §5.2.1): generates encodings, abstracts
// signals to log entries, reconstructs signals from log entries, and
// checks hypotheses, with temporal properties given in the textual
// property language (see src/timeprint/parse.hpp).
//
// Usage:
//   tpr encode <m> <b> <depth> <seed>
//       Print the timestamp table of a random-constrained encoding.
//   tpr log <m> <b> <seed> <signal-bits>
//       Abstract a signal (cycle-0-first 0/1 string) to (TP, k).
//   tpr reconstruct <m> <b> <seed> <tp-bits> <k> [options]
//       Enumerate signals explaining (TP, k).
//   tpr check <m> <b> <seed> <tp-bits> <k> --hypothesis "<prop>" [options]
//       Prove or refute a hypothesis over all reconstructions.
//   tpr trace <m> <b> <seed> <tp-bits> <k> [options]
//       Replay a reconstruction with event tracing on and dump the JSONL
//       trace (solver/encode/enumeration spans and events) to stdout or,
//       with --out FILE, to a file; the solution summary goes to stderr.
//   tpr solve <cnf-file> [--proof FILE] [--binary-proof] [--preprocess]
//       Solve an extended-DIMACS instance with the CDCL core. With --proof,
//       every learnt/deleted clause is streamed as a DRAT proof (text by
//       default, binary with --binary-proof); an UNSAT run's proof ends
//       with the empty clause. --preprocess runs the CNF front-end
//       (bounded variable elimination, subsumption, failed-literal
//       probing, dense remapping — sat/preprocess.hpp) before the CDCL
//       loop; proofs stay checkable against the original instance.
//       Exit 0 = SAT, 1 = UNSAT, 2 = error.
//   tpr check-proof <cnf-file> <proof-file> [--binary-proof]
//       Replay a DRAT proof against the instance with the independent
//       RUP/RAT checker (shares no code with the solver). Exit 0 iff the
//       proof is valid AND derives the empty clause.
// Options:
//   --prop "<p1>; <p2>; ..."   known properties pruning the search
//   --max <n>                  stop after n solutions (default 10)
//   --timeout <seconds>        solver budget (default unlimited)
//   --out <file>               trace sink for `tpr trace` (default stdout)
//   --incremental              decode through the template engine
//                              (timeprint/incremental.hpp) instead of a
//                              fresh solver; `tpr trace` reports the
//                              incremental.* counters on stderr
//   --preprocess / --no-preprocess
//                              enable/disable the CNF preprocessing
//                              front-end ahead of every solve (default
//                              off); `tpr trace` reports the
//                              solver.preprocess.* counters on stderr
//
// Example:
//   tpr reconstruct 64 13 1 0101100110010 4 --prop "before 32 min 3" --max 5

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat.hpp"
#include "sat/solver.hpp"
#include "timeprint/incremental.hpp"
#include "timeprint/parse.hpp"
#include "timeprint/reconstruct.hpp"

using namespace tp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tpr encode <m> <b> <depth> <seed>\n"
               "  tpr log <m> <b> <seed> <signal-bits>\n"
               "  tpr reconstruct <m> <b> <seed> <tp-bits> <k> [--prop P] "
               "[--max N] [--timeout S] [--incremental] [--preprocess]\n"
               "      [--inprocess BUDGET] [--inprocess-every N]\n"
               "  tpr check <m> <b> <seed> <tp-bits> <k> --hypothesis P "
               "[--prop P] [--timeout S] [--preprocess]\n"
               "  tpr trace <m> <b> <seed> <tp-bits> <k> [--prop P] [--max N] "
               "[--timeout S] [--out FILE] [--incremental] [--preprocess]\n"
               "      [--inprocess BUDGET] [--inprocess-every N]\n"
               "  tpr solve <cnf-file> [--proof FILE] [--binary-proof] "
               "[--preprocess]\n"
               "  tpr check-proof <cnf-file> <proof-file> [--binary-proof]\n");
  return 2;
}

sat::Cnf read_cnf(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + path);
  return sat::parse_dimacs(in);
}

// Forwards a proof in the file's own variable numbering: solver variable i
// is file variable file_vars[i], and variables the solver adds beyond
// those get fresh numbers after the file's largest.
class FileNumberedProof : public sat::ProofSink {
 public:
  FileNumberedProof(std::unique_ptr<sat::ProofSink> out, std::vector<sat::Var> file_vars,
                    int num_vars)
      : out_(std::move(out)), file_vars_(std::move(file_vars)), num_vars_(num_vars) {}

  void axiom(const std::vector<sat::Lit>& lits) override { out_->axiom(rename(lits)); }
  void add(const std::vector<sat::Lit>& lits) override { out_->add(rename(lits)); }
  void del(const std::vector<sat::Lit>& lits) override { out_->del(rename(lits)); }

 private:
  const std::vector<sat::Lit>& rename(const std::vector<sat::Lit>& lits) {
    renamed_.clear();
    for (const sat::Lit l : lits) {
      const auto v = static_cast<std::size_t>(l.var());
      const sat::Var file =
          v < file_vars_.size() ? file_vars_[v]
                                : num_vars_ + static_cast<sat::Var>(v - file_vars_.size());
      renamed_.push_back(sat::Lit(file, l.negated()));
    }
    return renamed_;
  }

  std::unique_ptr<sat::ProofSink> out_;
  std::vector<sat::Var> file_vars_;
  int num_vars_;
  std::vector<sat::Lit> renamed_;
};

// tpr solve: DIMACS in, verdict (and optionally a DRAT proof) out.
int cmd_solve(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string proof_path;
  bool binary = false;
  bool preprocess = false;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--binary-proof") {
      binary = true;
    } else if (flag == "--preprocess") {
      preprocess = true;
    } else if (flag == "--no-preprocess") {
      preprocess = false;
    } else if (flag == "--proof" && i + 1 < argc) {
      proof_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const sat::Cnf cnf = read_cnf(argv[2]);

  std::ofstream proof_out;
  std::unique_ptr<sat::ProofSink> sink;
  if (!proof_path.empty()) {
    proof_out.open(proof_path,
                   binary ? std::ios::out | std::ios::binary : std::ios::out);
    if (!proof_out) {
      std::fprintf(stderr, "cannot open %s for writing\n", proof_path.c_str());
      return 2;
    }
    if (binary) {
      sink = std::make_unique<sat::BinaryDratWriter>(proof_out);
    } else {
      sink = std::make_unique<sat::TextDratWriter>(proof_out);
    }
  }

  // The solver numbers only the variables load_into gives it; the model
  // and the proof are reported in the file's numbering.
  const std::vector<sat::Var> file_vars = cnf.file_vars();
  if (sink && file_vars.size() != static_cast<std::size_t>(cnf.num_vars)) {
    sink = std::make_unique<FileNumberedProof>(std::move(sink), file_vars, cnf.num_vars);
  }

  sat::SolverOptions so;
  so.proof = sink.get();
  so.preprocess = preprocess;
  const std::unique_ptr<sat::SolverInterface> solver =
      sat::SolverFactory::make(so);
  sat::Status status = sat::Status::Unsat;
  if (cnf.load_into(*solver)) status = solver->solve();
  std::printf("s %s\n", status == sat::Status::Sat     ? "SATISFIABLE"
                        : status == sat::Status::Unsat ? "UNSATISFIABLE"
                                                       : "UNKNOWN");
  if (status == sat::Status::Sat) {
    std::string line = "v";
    for (std::size_t v = 0; v < file_vars.size(); ++v) {
      const long lit = file_vars[v] + 1L;
      line += ' ';
      line += std::to_string(
          solver->model_value(sat::Var(v)) == sat::LBool::True ? lit : -lit);
    }
    std::printf("%s 0\n", line.c_str());
  }
  return status == sat::Status::Sat ? 0 : status == sat::Status::Unsat ? 1 : 2;
}

// tpr check-proof: replay a DRAT proof with the independent checker.
int cmd_check_proof(int argc, char** argv) {
  if (argc < 4) return usage();
  bool binary = false;
  for (int i = 4; i < argc; ++i) {
    if (std::string(argv[i]) == "--binary-proof") {
      binary = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  const sat::Cnf cnf = read_cnf(argv[2]);
  std::ifstream pin(argv[3],
                    binary ? std::ios::in | std::ios::binary : std::ios::in);
  if (!pin) {
    std::fprintf(stderr, "cannot open %s\n", argv[3]);
    return 2;
  }
  const auto proof =
      binary ? sat::parse_drat_binary(pin) : sat::parse_drat_text(pin);

  sat::DratChecker checker;
  for (const auto& c : sat::clausal_view(cnf)) checker.add_clause(c);
  const auto res = checker.check(proof);
  std::printf("ops %zu\nvalid %s\nproved-unsat %s\n", res.ops_checked,
              res.valid ? "yes" : "no", res.proved_unsat ? "yes" : "no");
  if (!res.error.empty()) std::printf("error %s\n", res.error.c_str());
  return res.valid && res.proved_unsat ? 0 : 1;
}

std::size_t to_num(const char* s) { return std::strtoull(s, nullptr, 10); }

struct CommonOptions {
  std::unique_ptr<core::Property> known;
  std::unique_ptr<core::Property> hypothesis;
  std::uint64_t max_solutions = 10;
  double timeout = -1.0;
  std::string trace_out;
  bool incremental = false;
  bool preprocess = false;
  std::int64_t inprocess_budget = -1;   ///< -1 = SolverConfig default
  std::int64_t inprocess_interval = -1; ///< -1 = SolverConfig default
};

bool parse_flags(int argc, char** argv, int first, CommonOptions& out) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--incremental") {  // valueless
      out.incremental = true;
      continue;
    }
    if (flag == "--preprocess") {  // valueless
      out.preprocess = true;
      continue;
    }
    if (flag == "--no-preprocess") {  // valueless
      out.preprocess = false;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--prop") {
      out.known = core::parse_properties(value);
    } else if (flag == "--hypothesis") {
      out.hypothesis = core::parse_properties(value);
    } else if (flag == "--max") {
      out.max_solutions = to_num(value);
    } else if (flag == "--timeout") {
      out.timeout = std::atof(value);
    } else if (flag == "--out") {
      out.trace_out = value;
    } else if (flag == "--inprocess") {
      out.inprocess_budget = static_cast<std::int64_t>(to_num(value));
    } else if (flag == "--inprocess-every") {
      out.inprocess_interval = static_cast<std::int64_t>(to_num(value));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "check-proof") return cmd_check_proof(argc, argv);
    if (cmd == "encode") {
      if (argc != 6) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num(argv[2]), to_num(argv[3]), to_num(argv[4]), to_num(argv[5]));
      std::printf("# m=%zu b=%zu depth=%zu scheme=%s\n", enc.m(), enc.width(),
                  enc.depth(), to_string(enc.scheme()));
      for (std::size_t i = 0; i < enc.m(); ++i) {
        std::printf("TS(%zu) %s\n", i + 1, enc.timestamp(i).to_string().c_str());
      }
      return 0;
    }
    if (cmd == "log") {
      if (argc != 6) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num(argv[2]), to_num(argv[3]), 4, to_num(argv[4]));
      std::string bits = argv[5];
      if (bits.size() != enc.m()) {
        std::fprintf(stderr, "signal must have exactly m=%zu bits\n", enc.m());
        return 2;
      }
      core::Signal s(enc.m());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] == '1') s.set_change(i);
      }
      const core::LogEntry e = core::Logger(enc).log(s);
      std::printf("TP %s\nk %zu\n", e.tp.to_string().c_str(), e.k);
      return 0;
    }
    if (cmd == "reconstruct" || cmd == "check" || cmd == "trace") {
      if (argc < 7) return usage();
      const auto enc = core::TimestampEncoding::random_constrained(
          to_num(argv[2]), to_num(argv[3]), 4, to_num(argv[4]));
      const std::string tp_bits = argv[5];
      if (tp_bits.size() != enc.width()) {
        std::fprintf(stderr, "timeprint must have exactly b=%zu bits\n",
                     enc.width());
        return 2;
      }
      core::LogEntry entry{f2::BitVec::from_string(tp_bits), to_num(argv[6])};

      CommonOptions opts;
      if (!parse_flags(argc, argv, 7, opts)) return 2;

      core::Reconstructor rec(enc);
      if (opts.known) rec.add_property(*opts.known);
      core::ReconstructionOptions ro;
      ro.max_solutions = opts.max_solutions;
      ro.limits.max_seconds = opts.timeout;
      ro.incremental = opts.incremental;
      ro.preprocess = opts.preprocess;
      if (opts.inprocess_budget >= 0) ro.inprocess_budget = opts.inprocess_budget;
      if (opts.inprocess_interval >= 0) {
        ro.inprocess_interval =
            static_cast<std::uint32_t>(opts.inprocess_interval);
      }

      // One entry, either engine: --incremental builds a template and
      // serves the entry from it (the counters it bumps are reported by
      // `tpr trace` below); otherwise the classic fresh-solver path.
      const auto run = [&]() {
        if (opts.incremental) {
          core::TemplateReconstructor tmpl(rec, ro);
          return tmpl.reconstruct(entry);
        }
        return rec.reconstruct(entry, ro);
      };

      if (cmd == "trace") {
        // Replay the reconstruction with the event tracer armed; the JSONL
        // trace is the primary output, so the human summary moves to stderr.
        obs::Tracer tracer(std::cout);
        if (!opts.trace_out.empty()) tracer.open(opts.trace_out);
        ro.tracer = &tracer;
        const auto result = run();
        std::fprintf(stderr, "# status=%s solutions=%zu seconds=%.3f%s%s\n",
                     to_string(result.final_status), result.signals.size(),
                     result.seconds_total,
                     opts.trace_out.empty() ? "" : " trace=",
                     opts.trace_out.c_str());
        auto& reg = obs::MetricsRegistry::global();
        std::fprintf(
            stderr,
            "# incremental template_builds=%lld template_hits=%lld "
            "template_misses=%lld learnt_retained=%lld\n",
            static_cast<long long>(reg.counter_value("incremental.template_builds")),
            static_cast<long long>(reg.counter_value("incremental.template_hits")),
            static_cast<long long>(reg.counter_value("incremental.template_misses")),
            static_cast<long long>(reg.counter_value("incremental.learnt_retained")));
        std::fprintf(
            stderr,
            "# preprocess runs=%lld vars_eliminated=%lld vars_fixed=%lld "
            "resolvents_added=%lld subsumed=%lld strengthened=%lld "
            "failed_literals=%lld\n",
            static_cast<long long>(reg.counter_value("solver.preprocess.runs")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.vars_eliminated")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.vars_fixed")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.resolvents_added")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.subsumed")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.strengthened")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.failed_literals")));
        std::fprintf(
            stderr,
            "# warm-template cycle_vars_eliminated=%lld restored_vars=%lld "
            "witness_bytes=%lld inprocess_rounds=%lld template_evictions=%lld "
            "template_cache_bytes=%lld\n",
            static_cast<long long>(
                reg.gauge_value("incremental.cycle_vars_eliminated")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.restored_vars")),
            static_cast<long long>(
                reg.counter_value("solver.preprocess.witness_bytes")),
            static_cast<long long>(
                reg.counter_value("solver.inprocess.rounds")),
            static_cast<long long>(
                reg.counter_value("incremental.template_evictions")),
            static_cast<long long>(
                reg.gauge_value("incremental.template_cache_bytes")));
        return result.final_status == sat::Status::Unknown ? 1 : 0;
      }
      if (cmd == "reconstruct") {
        const auto result = run();
        std::printf("# status=%s solutions=%zu seconds=%.3f\n",
                    to_string(result.final_status), result.signals.size(),
                    result.seconds_total);
        for (const auto& s : result.signals) {
          std::printf("%s\n", s.to_string().c_str());
        }
        return result.final_status == sat::Status::Unknown ? 1 : 0;
      }
      if (!opts.hypothesis) {
        std::fprintf(stderr, "check requires --hypothesis\n");
        return 2;
      }
      const auto check = rec.check_hypothesis(entry, *opts.hypothesis, ro);
      std::printf("verdict %s\nseconds %.3f\n", to_string(check.verdict),
                  check.seconds);
      if (check.witness) {
        std::printf("witness %s\n", check.witness->to_string().c_str());
      }
      return check.verdict == core::CheckVerdict::Unknown ? 1 : 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
