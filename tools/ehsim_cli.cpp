/// \file ehsim_cli.cpp
/// \brief `ehsim` — run declarative experiment/sweep specs from JSON.
///
/// Scenarios are data, not code: a JSON spec file (docs/spec_format.md)
/// describes the excitation timeline, engine, parameter overrides and sweep
/// axes, and this driver executes it through the same run_experiment /
/// BatchRunner path the C++ API uses.
///
///   ehsim run spec.json [--threads N] [--warm-start] [--out DIR] [--probes LIST] [--quiet]
///   ehsim sweep sweep.json [--threads N] [--warm-start] [--out DIR] [--probes LIST] [--quiet]
///   ehsim optimise optimise.json [--warm-start] [--out DIR] [--quiet]
///   ehsim ensemble ensemble.json [--threads N] [--out DIR] [--quiet]
///   ehsim verify-accuracy spec.json [--kernels K1,K2] [--oracle-step H] [--out DIR]
///   ehsim autotune autotune.json [--out DIR] [--quiet]
///   ehsim resume spec.json --checkpoint-dir DIR [--checkpoint-every S] [run flags]
///   ehsim serve [--threads N] [--out DIR] [--script FILE] [--queue N] [--pool N] [--cold]
///   ehsim echo spec.json
///   ehsim compare expected actual [--rtol R] [--atol A] [--ignore k1,k2,...]
///   ehsim params
///
/// The seven job verbs (run, sweep, resume, ensemble, optimise,
/// verify-accuracy, autotune) share one body: argv becomes a serve::Request
/// plus an ExecContext, the job executor (serve/executor.hpp) — the same one
/// the serve daemon uses — runs it with the cross-request caches off, and a
/// sink prints the summary. The executor's flavour table decides which spec
/// each verb takes (`run` accepts experiment and sweep specs) and which
/// files it writes under --out (default: current directory): <name>.result.json
/// plus <name>.trace.csv per run, and the <name>.<type>.json document of an
/// optimise, ensemble, accuracy or autotune request.
/// `run`/`sweep` take --checkpoint-every S --checkpoint-dir D to write
/// periodic per-job checkpoint files; `resume` continues a killed
/// checkpointed run from those files, bit-identical to the uninterrupted
/// run with the same cadence (docs/checkpoint_format.md).
/// `--probes` appends quick probe shorthands (`net:Vm`, `state:supercap.Vi`,
/// `power`, `harvested`, `energy`) to the spec before running. `compare`
/// diffs two result files (tolerance-aware, .json or .csv by extension) and
/// exits non-zero on mismatch — the golden-output CI tests are exactly
/// `ehsim run`/`ehsim optimise` + `ehsim compare`. `echo` parses and
/// re-serialises a spec (round-trip check / canonical formatting).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "experiments/table_printer.hpp"
#include "io/compare.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"

namespace {

using namespace ehsim;

int usage(std::FILE* where = stderr) {
  std::fprintf(where,
               "usage: ehsim <command> [args]\n"
               "\n"
               "  run <spec.json> [--threads N] [--warm-start] [--batch-kernel K]\n"
               "      [--out DIR] [--probes LIST] [--quiet]\n"
               "      Execute an experiment or sweep spec; write per-job\n"
               "      <name>.result.json and <name>.trace.csv under --out (default .).\n"
               "      --probes appends quick probes (comma list of net:<name>,\n"
               "      state:<block.state>, power, harvested, energy) to the spec.\n"
               "      --warm-start seeds each job's initial operating point from a\n"
               "      structurally identical prior job (same results within solver\n"
               "      tolerance, fewer consistency iterations; off by default).\n"
               "      --batch-kernel picks jobs | lockstep: lockstep marches the\n"
               "      batch on one clock per parameter class sharing Jacobian\n"
               "      factorisations (proposed engine only; identical jobs stay\n"
               "      bit-identical, diverged ones within compare tolerances).\n"
               "      Overrides the sweep spec's batch_kernel.\n"
               "      --checkpoint-every S --checkpoint-dir D write one checkpoint\n"
               "      file per job into D at every S simulated seconds (atomic\n"
               "      replace; see docs/checkpoint_format.md).\n"
               "  sweep <sweep.json> [--threads N] [--warm-start] [--batch-kernel K]\n"
               "      [--out DIR] [--probes LIST] [--quiet]\n"
               "      Like run, but requires a sweep spec.\n"
               "  resume <spec.json> --checkpoint-dir D [--checkpoint-every S]\n"
               "      [run flags]\n"
               "      Continue a killed checkpointed run/sweep from the files in D.\n"
               "      With the same --checkpoint-every the finished results are\n"
               "      bit-identical (modulo cpu_seconds) to the uninterrupted run;\n"
               "      jobs without a checkpoint file start from t=0.\n"
               "  ensemble <ensemble.json> [--threads N] [--warm-start]\n"
               "      [--batch-kernel K] [--out DIR] [--quiet]\n"
               "      Run the K seed-varied replicas of an ensemble spec and write\n"
               "      <name>.ensemble.json (per-probe mean/stderr/min/max across\n"
               "      replicas) plus each replica's result/trace files.\n"
               "  optimise <optimise.json> [--warm-start] [--out DIR] [--quiet]\n"
               "      Run a declarative optimisation — golden section over one\n"
               "      variable, cyclic coordinate descent over a \"variables\"\n"
               "      array; write the search log + optimum as <name>.optimise.json\n"
               "      and the best run's result/trace files under --out.\n"
               "  verify-accuracy <spec.json> [--kernels K1,K2] [--oracle-step H]\n"
               "      [--threads N] [--out DIR] [--quiet]\n"
               "      Run an experiment or sweep spec on the extended-precision\n"
               "      reference oracle (src/ref) and on the fast path — once per\n"
               "      batch kernel — and write the measured max/RMS relative error\n"
               "      bounds on Vc, probes and harvested energy as\n"
               "      <name>.accuracy.json (docs/accuracy.md).\n"
               "  autotune <autotune.json> [--out DIR] [--quiet]\n"
               "      Run an autotune spec: one oracle run of the base experiment,\n"
               "      then memoised coordinate descent over the declared solver-knob\n"
               "      ladders for the cheapest configuration whose measured error\n"
               "      stays inside the spec's error budget.\n"
               "      Writes the deterministic search record <name>.autotune.json\n"
               "      plus the chosen configuration's result/trace files.\n"
               "  serve [--threads N] [--out DIR] [--script FILE] [--queue N]\n"
               "      [--pool N] [--cold]\n"
               "      Long-lived simulation service: read newline-delimited request\n"
               "      envelopes ({\"id\":..,\"type\":\"run|sweep|optimise|ensemble|resume|\n"
               "      accuracy|autotune|cancel|stats|shutdown\",\"spec\":{..}} or\n"
               "      \"spec_path\") from stdin\n"
               "      (or --script), with an optional \"checkpoint\" block on\n"
               "      run/sweep/resume,\n"
               "      stream JSON events to stdout, and keep diode tables, operating\n"
               "      points and prepared sessions warm across requests. Responses are\n"
               "      bit-identical to cold one-shot runs of the same specs (modulo\n"
               "      cpu_seconds / warm_start / shared_diode_table). --cold disables\n"
               "      the cross-request caches; docs/serve_protocol.md has the full\n"
               "      protocol.\n"
               "  echo <spec.json>\n"
               "      Parse a spec and print its canonical JSON to stdout.\n"
               "  compare <expected> <actual> [--rtol R] [--atol A] [--ignore k1,k2]\n"
               "      Tolerance-aware diff of two .json or .csv result files;\n"
               "      exits 2 when they differ.\n"
               "  params\n"
               "      List device parameter paths, spec fields, probe kinds,\n"
               "      probe statistics and optimise-spec keys.\n");
  return where == stdout ? 0 : 1;
}

/// Parse a numeric flag value strictly: the whole text must be the number
/// (no sign for unsigned counts, finite for reals); errors name the flag.
template <typename T>
T parse_flag(const std::string& flag, const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && error == std::errc() && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    throw ehsim::ModelError(flag + " expects " + expected + ", got '" + text + "'");
  }
  return value;
}

std::size_t parse_count(const std::string& flag, const std::string& text) {
  return parse_flag<std::size_t>(flag, text, "a non-negative integer");
}

double parse_real(const std::string& flag, const std::string& text) {
  return parse_flag<double>(flag, text, "a finite number");
}

/// Split a comma list, dropping empty items.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    std::string item = list.substr(start, comma - start);
    if (!item.empty()) {
      items.push_back(std::move(item));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return items;
}

/// A job verb and the request types it may carry: the first type whose
/// flavour table (serve::expected_spec_types) accepts the spec is the one
/// that runs, so `run` takes experiment and sweep specs alike.
struct JobVerb {
  const char* name;
  std::vector<serve::RequestType> types;
};

const std::vector<JobVerb>& job_verbs() {
  using serve::RequestType;
  static const std::vector<JobVerb> verbs = {
      {"run", {RequestType::kRun, RequestType::kSweep}},
      {"sweep", {RequestType::kSweep}},
      {"resume", {RequestType::kResume}},
      {"ensemble", {RequestType::kEnsemble}},
      {"optimise", {RequestType::kOptimise}},
      {"verify-accuracy", {RequestType::kAccuracy}},
      {"autotune", {RequestType::kAutotune}},
  };
  return verbs;
}

/// The first request type of \p verb that accepts \p spec's flavour.
std::optional<serve::RequestType> accepting_type(const JobVerb& verb, const io::AnySpec& spec) {
  for (const serve::RequestType type : verb.types) {
    if (serve::accepts_spec(type, spec)) {
      return type;
    }
  }
  return std::nullopt;
}

/// The request type \p verb runs \p spec as; when none accepts its flavour,
/// print which verb does and return nothing.
std::optional<serve::RequestType> request_type_for(const JobVerb& verb, const io::AnySpec& spec,
                                                   const std::string& path) {
  const std::optional<serve::RequestType> type = accepting_type(verb, spec);
  if (!type) {
    // Every flavour has a verb (experiment and sweep: run).
    const JobVerb& use = *std::find_if(
        job_verbs().begin(), job_verbs().end(),
        [&](const JobVerb& other) { return accepting_type(other, spec).has_value(); });
    const std::string flavour = spec.type_id();
    const char* article = flavour.find_first_of("aeiou") == 0 ? "an" : "a";
    std::fprintf(stderr, "ehsim %s: '%s' is %s %s spec (use `ehsim %s`)\n", verb.name,
                 path.c_str(), article, flavour.c_str(), use.name);
  }
  return type;
}

/// The CLI-only parts of a job invocation; everything the executor needs
/// goes straight into the ExecContext.
struct JobArgs {
  std::string spec_path;
  std::string out_dir = ".";
  std::string probes;          ///< comma list of --probes shorthands (may be empty)
  std::string checkpoint_dir;  ///< empty: checkpointing off
  double checkpoint_every = 0.0;
  bool quiet = false;
};

bool parse_job_args(const JobVerb& verb, const std::vector<std::string>& args, JobArgs& job,
                    serve::ExecContext& context) {
  const bool accuracy = verb.types.front() == serve::RequestType::kAccuracy;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool valued = i + 1 < args.size();
    if (arg == "--threads" && valued) {
      context.threads = parse_count(arg, args[++i]);
    } else if (arg == "--out" && valued) {
      job.out_dir = args[++i];
    } else if (arg == "--quiet") {
      job.quiet = true;
    } else if (accuracy && arg == "--kernels" && valued) {
      context.accuracy_kernels.clear();
      for (const std::string& kernel : split_list(args[++i])) {
        context.accuracy_kernels.push_back(experiments::parse_batch_kernel(kernel));
      }
    } else if (accuracy && arg == "--oracle-step" && valued) {
      context.oracle_step = parse_real(arg, args[++i]);
    } else if (!accuracy && arg == "--probes" && valued) {
      job.probes = args[++i];
    } else if (!accuracy && arg == "--batch-kernel" && valued) {
      context.batch_kernel = experiments::parse_batch_kernel(args[++i]);
    } else if (!accuracy && arg == "--checkpoint-dir" && valued) {
      job.checkpoint_dir = args[++i];
    } else if (!accuracy && arg == "--checkpoint-every" && valued) {
      job.checkpoint_every = parse_real(arg, args[++i]);
    } else if (!accuracy && arg == "--abort-after-checkpoints" && valued) {
      context.abort_after = parse_flag<int>(arg, args[++i], "an integer");
    } else if (!accuracy && arg == "--warm-start") {
      context.warm_start = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "ehsim %s: unknown option '%s'\n", verb.name, arg.c_str());
      return false;
    } else if (job.spec_path.empty()) {
      job.spec_path = arg;
    } else {
      std::fprintf(stderr, "ehsim %s: unexpected argument '%s'\n", verb.name, arg.c_str());
      return false;
    }
  }
  if (job.spec_path.empty()) {
    std::fprintf(stderr, "ehsim %s: missing spec file\n", verb.name);
    return false;
  }
  return true;
}

/// Expand one --probes shorthand into a ProbeSpec: `net:<name>`,
/// `state:<block.state>`, `power`, `harvested` or `energy`. Labels default
/// to the target (net/state) or the kind id, so shorthand columns are
/// self-describing.
experiments::ProbeSpec probe_from_shorthand(const std::string& item) {
  experiments::ProbeSpec probe;
  const std::size_t colon = item.find(':');
  const std::string head = item.substr(0, colon);
  const std::string target = colon == std::string::npos ? "" : item.substr(colon + 1);
  if (head == "net") {
    probe.kind = experiments::ProbeSpec::Kind::kNodeVoltage;
    probe.target = target;
    probe.label = target;
  } else if (head == "state") {
    probe.kind = experiments::ProbeSpec::Kind::kStateVariable;
    probe.target = target;
    probe.label = target;
  } else if (head == "power" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kGeneratorPower;
    probe.label = "generator_power";
  } else if (head == "harvested" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kHarvestedPower;
    probe.label = "harvested_power";
  } else if (head == "energy" && target.empty()) {
    probe.kind = experiments::ProbeSpec::Kind::kStoredEnergy;
    probe.label = "stored_energy";
  } else {
    throw ehsim::ModelError("--probes item '" + item +
                            "' is not net:<name> | state:<block.state> | power | "
                            "harvested | energy");
  }
  probe.validate();
  return probe;
}

/// Append the --probes shorthands to an experiment spec (a sweep applies
/// them to its base, so every expanded job carries them).
void apply_probe_flag(experiments::ExperimentSpec& spec, const std::string& list) {
  for (const std::string& item : split_list(list)) {
    spec.probes.push_back(probe_from_shorthand(item));
  }
  spec.validate();  // catches duplicate labels against the spec's own probes
}

void print_summary(const std::vector<experiments::ScenarioResult>& results,
                   const experiments::BatchStats& batch) {
  experiments::TablePrinter table(
      {"job", "engine", "CPU", "steps", "final Vc [V]", "final f0r [Hz]"});
  for (const auto& result : results) {
    table.add_row({result.scenario, result.engine,
                   experiments::format_duration(result.cpu_seconds),
                   std::to_string(result.stats.steps),
                   experiments::format_double(result.final_vc, 4),
                   experiments::format_double(result.final_resonance_hz, 3)});
  }
  table.print(std::cout);
  if (batch.jobs > 1) {
    std::printf("%zu jobs, %zu shared diode-table hits\n", batch.jobs, batch.shared_table_hits);
  }
  if (batch.warm_start_hits > 0 || batch.warm_start_rejects > 0) {
    std::printf("warm starts: %zu seeded, %zu rejected, %llu total consistency "
                "iterations\n",
                batch.warm_start_hits, batch.warm_start_rejects,
                static_cast<unsigned long long>(batch.init_iterations));
  }
  if (batch.lockstep_groups > 0 || batch.shared_factorisations > 0) {
    std::printf("lockstep: %llu shared groups, %llu shared factorisations\n",
                static_cast<unsigned long long>(batch.lockstep_groups),
                static_cast<unsigned long long>(batch.shared_factorisations));
  }
}

void print_optimum(const experiments::OptimiseResult& result, const std::string& objective) {
  if (result.warm_start) {
    std::printf("warm starts: %zu seeded, %zu rejected, %llu total consistency "
                "iterations\n",
                result.warm_start_hits, result.warm_start_rejects,
                static_cast<unsigned long long>(result.init_iterations));
  }
  if (!result.variables.empty()) {
    // Multi-variable coordinate descent: one "path = value" per axis.
    std::string point;
    for (std::size_t i = 0; i < result.variables.size(); ++i) {
      if (i > 0) {
        point += ", ";
      }
      point += result.variables[i] + " = " + experiments::format_double(result.best_nd.x[i], 6);
    }
    std::printf("%s %s: best %s = %s at %s (%zu sweeps, %s of probe '%s')\n",
                result.maximise ? "maximised" : "minimised", result.name.c_str(),
                result.statistic.c_str(),
                experiments::format_double(result.best_nd.value, 6).c_str(), point.c_str(),
                result.best_nd.sweeps, result.statistic.c_str(), objective.c_str());
  } else {
    std::printf("%s %s: best %s = %s at %s (%s of probe '%s')\n",
                result.maximise ? "maximised" : "minimised", result.name.c_str(),
                result.statistic.c_str(),
                experiments::format_double(result.best.value, 6).c_str(),
                (result.variable + " = " + experiments::format_double(result.best.x, 6)).c_str(),
                result.statistic.c_str(), objective.c_str());
  }
}

void print_accuracy(const experiments::AccuracyReport& report) {
  experiments::TablePrinter table(
      {"kernel", "jobs", "max |Vc| rel err", "final Vc rel err", "energy rel err"});
  for (const experiments::KernelAccuracy& row : report.kernels) {
    table.add_row({row.kernel, std::to_string(row.jobs.size()),
                   experiments::format_double(row.bounds.vc_max_rel_error, 6),
                   experiments::format_double(row.bounds.final_vc_rel_error, 6),
                   experiments::format_double(row.bounds.energy_rel_error, 6)});
  }
  table.print(std::cout);
}

void print_autotune(const experiments::AutotuneResult& result) {
  std::string point;
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    if (i > 0) {
      point += ", ";
    }
    point += result.paths[i] + " = " + experiments::format_double(result.chosen_values[i], 6);
  }
  if (result.feasible) {
    std::printf("chosen: %s — cost %s (%.1f%% of baseline), error %s within budget %s\n",
                point.c_str(), experiments::format_double(result.chosen_cost, 0).c_str(),
                100.0 * result.cost_ratio,
                experiments::format_double(result.chosen_error, 6).c_str(),
                experiments::format_double(result.error_budget, 6).c_str());
  } else {
    std::printf("no configuration met the budget %s; closest: %s (error %s)\n",
                experiments::format_double(result.error_budget, 6).c_str(), point.c_str(),
                experiments::format_double(result.chosen_error, 6).c_str());
  }
}

/// The CLI's EventSink: once a request's files are on disk, print what it
/// wrote and its summary to stdout (nothing under --quiet).
class SummarySink final : public serve::EventSink {
 public:
  SummarySink(std::string out_dir, bool quiet) : out_dir_(std::move(out_dir)), quiet_(quiet) {}

  void written(const serve::Request& request, const serve::JobResult& result) override {
    if (quiet_) {
      return;
    }
    // A document lands as <stem>.<request type>.json (io::write_document_file).
    const char* kind = serve::request_type_id(request.type);
    for (const auto& run : result.runs) {
      std::printf("wrote %s.result.json (+ .trace.csv, %zu points)\n",
                  stem(run.scenario).c_str(), run.time.size());
    }
    std::visit(
        io::overloaded{
            [&](std::monostate) { print_summary(result.runs, result.batch); },
            [&](const experiments::OptimiseResult& optimum) {
              std::printf("wrote %s.%s.json (%zu evaluations)\n", stem(optimum.name).c_str(),
                          kind, optimum.evaluations.size());
              print_optimum(optimum, request.spec.get_if<experiments::OptimiseSpec>()->objective);
            },
            [&](const experiments::EnsembleResult& ensemble) {
              std::printf("wrote %s.%s.json (%zu replicas)\n", stem(ensemble.name).c_str(),
                          kind, ensemble.runs.size());
              print_summary(ensemble.runs, result.batch);
              std::printf("ensemble final Vc [V]: mean %s +- %s stderr (min %s, max %s)\n",
                          experiments::format_double(ensemble.final_vc.mean, 4).c_str(),
                          experiments::format_double(ensemble.final_vc.stderr_mean, 4).c_str(),
                          experiments::format_double(ensemble.final_vc.minimum, 4).c_str(),
                          experiments::format_double(ensemble.final_vc.maximum, 4).c_str());
            },
            [&](const experiments::AccuracyReport& report) {
              std::printf("wrote %s.%s.json (oracle: %llu steps at h = %g s)\n",
                          stem(report.name).c_str(), kind,
                          static_cast<unsigned long long>(report.oracle_steps),
                          report.oracle_step);
              print_accuracy(report);
            },
            [&](const experiments::AutotuneResult& autotune) {
              std::printf("wrote %s.%s.json (%llu evaluations, %llu sweeps)\n",
                          stem(autotune.name).c_str(), kind,
                          static_cast<unsigned long long>(autotune.evaluations),
                          static_cast<unsigned long long>(autotune.sweeps));
              print_autotune(autotune);
            }},
        result.document);
  }

 private:
  [[nodiscard]] std::string stem(const std::string& name) const {
    return io::file_stem(out_dir_, name);
  }

  std::string out_dir_;
  bool quiet_;
};

/// Every job verb: argv -> Request + ExecContext, then the one executor.
/// Exit codes: 0 done, 1 usage/model error, 3 stopped by
/// --abort-after-checkpoints (the checkpoint files are on disk for resume).
int cmd_job(const JobVerb& verb, const std::vector<std::string>& args) {
  JobArgs job;
  serve::ExecContext context;
  if (!parse_job_args(verb, args, job, context)) {
    return 1;
  }
  context.out_dir = job.out_dir;
  const serve::RequestType first = verb.types.front();
  if (context.threads != 0 &&
      (first == serve::RequestType::kOptimise || first == serve::RequestType::kAutotune)) {
    std::fprintf(stderr,
                 "ehsim %s: --threads is not supported (the search is sequential: every "
                 "evaluation depends on the previous one)\n",
                 verb.name);
    return 1;
  }
  io::AnySpec spec = io::load_spec_file(job.spec_path);
  const std::optional<serve::RequestType> type = request_type_for(verb, spec, job.spec_path);
  if (!type) {
    return 1;
  }
  if (!job.probes.empty()) {
    auto* experiment = spec.get_if<experiments::ExperimentSpec>();
    auto* sweep = spec.get_if<experiments::SweepSpec>();
    if (experiment == nullptr && sweep == nullptr) {
      std::fprintf(stderr,
                   "ehsim %s: --probes is not supported (declare probes in the spec's base "
                   "experiment)\n",
                   verb.name);
      return 1;
    }
    apply_probe_flag(experiment != nullptr ? *experiment : sweep->base, job.probes);
  }

  serve::Request request;
  request.type = *type;
  request.spec = std::move(spec);
  if (serve::takes_checkpoint(*type) &&
      (!job.checkpoint_dir.empty() || job.checkpoint_every > 0.0 ||
       *type == serve::RequestType::kResume)) {
    if (job.checkpoint_dir.empty()) {
      throw ehsim::ModelError("--checkpoint-every needs --checkpoint-dir");
    }
    request.checkpoint = serve::CheckpointRequest{job.checkpoint_dir, job.checkpoint_every};
  }
  SummarySink sink(job.out_dir, job.quiet);
  if (!serve::execute(request, context, sink)) {
    if (!job.quiet) {
      std::printf("stopped after %d checkpoint(s); resume with `ehsim resume %s "
                  "--checkpoint-dir %s`\n",
                  context.abort_after, job.spec_path.c_str(), job.checkpoint_dir.c_str());
    }
    return 3;
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServerOptions options;
  std::string script;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--threads" && i + 1 < args.size()) {
      options.threads = parse_count(arg, args[++i]);
    } else if (arg == "--out" && i + 1 < args.size()) {
      options.out_dir = args[++i];
    } else if (arg == "--script" && i + 1 < args.size()) {
      script = args[++i];
    } else if (arg == "--queue" && i + 1 < args.size()) {
      options.queue_capacity = parse_count(arg, args[++i]);
    } else if (arg == "--pool" && i + 1 < args.size()) {
      options.pool_capacity = parse_count(arg, args[++i]);
    } else if (arg == "--cold") {
      options.cross_request_caches = false;
    } else {
      std::fprintf(stderr, "ehsim serve: unknown option '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in) {
      std::fprintf(stderr, "ehsim serve: cannot open script '%s'\n", script.c_str());
      return 1;
    }
    serve::Server server(in, std::cout, options);
    return server.run();
  }
  serve::Server server(std::cin, std::cout, options);
  return server.run();
}

int cmd_echo(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "ehsim echo: expected exactly one spec file\n");
    return 1;
  }
  const io::AnySpec file = io::load_spec_file(args[0]);
  const io::JsonValue json =
      file.dispatch([](const auto& spec) { return io::to_json(spec); });
  std::printf("%s\n", json.dump(2).c_str());
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  io::CompareOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--rtol" && i + 1 < args.size()) {
      options.rtol = parse_real(arg, args[++i]);
    } else if (arg == "--atol" && i + 1 < args.size()) {
      options.atol = parse_real(arg, args[++i]);
    } else if (arg == "--ignore" && i + 1 < args.size()) {
      options.ignore_keys = split_list(args[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "ehsim compare: unknown option '%s'\n", arg.c_str());
      return 1;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "ehsim compare: expected <expected> <actual>\n");
    return 1;
  }

  const auto is_csv = [](const std::string& path) {
    return path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
  };
  if (is_csv(paths[0]) != is_csv(paths[1])) {
    std::fprintf(stderr, "ehsim compare: cannot compare '%s' with '%s' — one is CSV, "
                         "the other is not\n",
                 paths[0].c_str(), paths[1].c_str());
    return 1;
  }
  std::vector<std::string> diffs;
  if (is_csv(paths[0])) {
    diffs = io::compare_csv(io::read_file(paths[0]), io::read_file(paths[1]), options);
  } else {
    diffs = io::compare_json(io::JsonValue::parse(io::read_file(paths[0])),
                             io::JsonValue::parse(io::read_file(paths[1])), options);
  }
  if (diffs.empty()) {
    std::printf("match: %s == %s (rtol %g, atol %g)\n", paths[0].c_str(), paths[1].c_str(),
                options.rtol, options.atol);
    return 0;
  }
  std::fprintf(stderr, "MISMATCH between %s and %s:\n", paths[0].c_str(), paths[1].c_str());
  for (const std::string& diff : diffs) {
    std::fprintf(stderr, "  %s\n", diff.c_str());
  }
  return 2;
}

int cmd_params() {
  std::printf("device parameters (overrides, sweep axes, optimise variables):\n");
  for (const std::string& path : experiments::param_paths()) {
    std::printf("  %s\n", path.c_str());
  }
  std::printf("\nspec fields (sweep axes, optimise variables):\n");
  for (const std::string& path : experiments::spec_field_paths()) {
    std::printf("  %s\n", path.c_str());
  }
  std::printf("\nprobe kinds (spec \"probes\" entries; keys: label, kind, target,\n"
              "window_start, window_end, threshold, record):\n");
  for (const std::string& kind : experiments::probe_kind_ids()) {
    std::printf("  %s\n", kind.c_str());
  }
  std::printf("\nprobe statistics (optimise \"statistic\"; duty_cycle/crossings need a\n"
              "threshold on the probe):\n");
  for (const std::string& statistic : experiments::probe_statistic_ids()) {
    std::printf("  %s\n", statistic.c_str());
  }
  std::printf("\noptimise spec keys (type \"optimise\"; one variable via\n"
              "variable/lower/upper, or several via the \"variables\" array):\n");
  for (const std::string& key : experiments::optimise_spec_keys()) {
    std::printf("  %s\n", key.c_str());
  }
  std::printf("\noptimise \"variables\" entry keys (per search axis):\n");
  for (const std::string& key : experiments::optimise_variable_keys()) {
    std::printf("  %s\n", key.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    for (const JobVerb& verb : job_verbs()) {
      if (command == verb.name || (command == "optimize" && verb.name == std::string("optimise"))) {
        return cmd_job(verb, args);
      }
    }
    if (command == "serve") {
      return cmd_serve(args);
    }
    if (command == "echo") {
      return cmd_echo(args);
    }
    if (command == "compare") {
      return cmd_compare(args);
    }
    if (command == "params") {
      return cmd_params();
    }
    if (command == "--help" || command == "-h" || command == "help") {
      return usage(stdout);
    }
    // Machine-parseable failure: one JSON line naming the offending field,
    // plus the human usage text; exit status stays nonzero either way.
    io::JsonValue error = io::JsonValue::make_object();
    error.set("error", "unknown command");
    error.set("command", command);
    error.set("expected",
              "run | sweep | resume | ensemble | optimise | verify-accuracy | autotune | "
              "serve | echo | compare | params | help");
    std::fprintf(stderr, "%s\n", error.dump(-1).c_str());
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ehsim: %s\n", error.what());
    return 1;
  }
}
