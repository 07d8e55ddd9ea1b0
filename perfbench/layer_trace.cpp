/// \file layer_trace.cpp
/// \brief Per-layer cost replay for the perfbench benchmark.
///
/// The end-to-end benchmark drives the real `ehsim` binary; this companion
/// sizes the layers the binary calls privately, without tracing inside the
/// library. Two modes, both printing one JSON document on stdout:
///
///   layer_trace layers --samples K spec.json [spec.json ...]
///     Runs each experiment spec in-process (make_experiment_session, the
///     same wiring run_experiment uses) with a SolutionObserver that, at K
///     evenly spaced simulated times, snapshots the engine checkpoint
///     section (x, y and the four Jacobian blocks in use) and times the
///     assembler's public eval / jacobian_signature / jacobians on the live
///     model. After the run the captured operands are replayed through
///     LleMonitor::update, LuFactorization::factor / solve, the Eq. 7 cap
///     (elimination + ode::max_stable_step + ode::refine_stable_step) and
///     linalg::eigenvalues. Reports per-call microseconds and the run's
///     exact counters.
///
///   layer_trace direct --out DIR jobs.txt
///     Executes each listed job directly through the experiments API — the
///     work the CLI or the serve daemon wraps — and times its layers:
///     spec load (io parse), session preparation, the march, result-file
///     writes (io dump) and checkpoint writes. One job per line:
///       run <spec.json>
///       ckpt <spec.json> <every> <checkpoint dir>
///       sweep <spec.json> <threads>
///       optimise <spec.json>
///
/// Per-call times are the median of five timed batches, averaged over the
/// samples; see perfbench/README.md for how they are scaled into layer time.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/lle_monitor.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"
#include "io/spec_json.hpp"
#include "io/state_json.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "ode/stability.hpp"
#include "pwl/table_cache.hpp"
#include "sim/checkpoint.hpp"

namespace {

using namespace ehsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median over five batches of \p reps calls, in microseconds per call.
double per_call_us(std::size_t reps, const std::function<void(std::size_t)>& call) {
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      call(i);
    }
    batches.push_back(seconds_since(start) * 1e6 / static_cast<double>(reps));
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The spec of flavour T held by \p any; throws ModelError naming \p path
/// when the file holds another flavour.
template <typename T>
const T& spec_as(const io::AnySpec& any, const std::string& path) {
  if (const T* spec = any.get_if<T>()) {
    return *spec;
  }
  throw ModelError(path + ": unexpected spec type '" + any.type_id() + "'");
}

// ---- layers ----------------------------------------------------------------

/// Operands of one linearisation point, as the engine held them.
struct Sample {
  linalg::Matrix jxx, jxy, jyx, jyy;
  double jacobians_us = 0.0;
  double eval_us = 0.0;
  double signature_us = 0.0;
};

constexpr std::size_t kAssemblyReps = 200;
constexpr std::size_t kKernelReps = 50;

io::JsonValue trace_layers(const std::string& path, std::size_t sample_count) {
  const io::AnySpec any = io::load_spec_file(path);
  const auto& spec = spec_as<experiments::ExperimentSpec>(any, path);
  sim::HarvesterSession run = experiments::make_experiment_session(spec);
  sim::Session& session = run.session();

  std::vector<Sample> samples;
  std::size_t next = 0;
  double observer_s = 0.0;
  session.add_observer([&](double t, std::span<const double> x, std::span<const double> y) {
    if (next >= sample_count ||
        t < spec.duration * static_cast<double>(next) / static_cast<double>(sample_count)) {
      return;
    }
    const auto start = Clock::now();
    ++next;
    // The engine checkpoint section carries the Jacobian blocks the engine
    // is marching on; eval/jacobians/signature are const on the assembler
    // (per-block scratch only), so timing them here leaves the run intact.
    const io::JsonValue state = session.engine().checkpoint_state();
    if (state.find("jxx") == nullptr) {
      observer_s += seconds_since(start);
      return;
    }
    Sample s;
    s.jxx = io::matrix_from_json(state.at("jxx"), "jxx");
    s.jxy = io::matrix_from_json(state.at("jxy"), "jxy");
    s.jyx = io::matrix_from_json(state.at("jyx"), "jyx");
    s.jyy = io::matrix_from_json(state.at("jyy"), "jyy");
    const core::SystemAssembler& assembler = session.assembler();
    std::vector<double> fx(x.size());
    std::vector<double> fy(y.size());
    linalg::Matrix jxx, jxy, jyx, jyy;
    s.eval_us = per_call_us(kAssemblyReps,
                            [&](std::size_t) { assembler.eval(t, x, y, fx, fy); });
    std::uint64_t signature = 0;
    s.signature_us = per_call_us(kAssemblyReps, [&](std::size_t) {
      signature ^= assembler.jacobian_signature(t, x, y);
    });
    s.jacobians_us = per_call_us(
        kAssemblyReps, [&](std::size_t) { assembler.jacobians(t, x, y, jxx, jxy, jyx, jyy); });
    samples.push_back(std::move(s));
    observer_s += seconds_since(start);
  });

  const auto start = Clock::now();
  session.run_until(spec.duration);
  const double wall_s = seconds_since(start);
  if (samples.size() < 2) {
    throw ModelError(path + ": fewer than two linearisation samples captured");
  }

  const core::SolverConfig& config = spec.solver;
  const std::size_t order = config.max_ab_order;
  std::vector<double> lle_us, factor_us, solve_us, cap_us, eig_us;
  core::LleMonitor monitor;
  linalg::LuFactorization lu;
  linalg::Matrix z, a;
  double sink = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const Sample& prev = samples[i - 1];
    const Sample& cur = samples[i];
    // Alternate two consecutive linearisations so every update sees a
    // changed Jacobian, as it does in the march (update runs only when the
    // signature changed).
    monitor.reset();
    monitor.update(prev.jxx, prev.jxy, prev.jyx, prev.jyy);
    lle_us.push_back(per_call_us(kKernelReps, [&](std::size_t r) {
      const Sample& s = (r % 2 == 0) ? cur : prev;
      sink += monitor.update(s.jxx, s.jxy, s.jyx, s.jyy);
    }));
    factor_us.push_back(per_call_us(kKernelReps, [&](std::size_t) { lu.factor(cur.jyy); }));
    if (!lu.ok()) {
      throw ModelError(path + ": sampled Jyy is singular");
    }
    std::vector<double> rhs(cur.jyy.rows(), 1.0);
    std::vector<double> out(cur.jyy.rows());
    solve_us.push_back(per_call_us(kKernelReps * 4, [&](std::size_t) { lu.solve(rhs, out); }));

    // The Eq. 7 cap as LinearisedSolver::recompute_stability_cap computes it.
    const double h_request_max = 10.0 * std::max(config.h_max, config.fixed_step);
    cap_us.push_back(per_call_us(kKernelReps, [&](std::size_t) {
      lu.solve_matrix(cur.jyx, z);
      a = cur.jxx;
      for (std::size_t r = 0; r < a.rows(); ++r) {
        for (std::size_t k = 0; k < cur.jxy.cols(); ++k) {
          const double jxy_rk = cur.jxy(r, k);
          if (jxy_rk == 0.0) {
            continue;
          }
          for (std::size_t c = 0; c < a.cols(); ++c) {
            a(r, c) -= jxy_rk * z(k, c);
          }
        }
      }
      const auto limit = ode::max_stable_step(a, order, 1.0);
      double candidate = std::min(limit.h_max, h_request_max);
      if (std::isfinite(candidate) && candidate > 0.0) {
        candidate = ode::refine_stable_step(a, order, candidate, config.h_min);
      }
      sink += candidate;
    }));
    eig_us.push_back(per_call_us(kKernelReps, [&](std::size_t) {
      sink += std::abs(linalg::eigenvalues(a).front());
    }));
  }

  std::vector<double> jac_us, eval_us, sig_us;
  for (const Sample& s : samples) {
    jac_us.push_back(s.jacobians_us);
    eval_us.push_back(s.eval_us);
    sig_us.push_back(s.signature_us);
  }
  const core::SolverStats& stats = session.stats();
  io::JsonValue out = io::JsonValue::make_object();
  out.set("spec", path);
  out.set("samples", samples.size());
  out.set("wall_s", wall_s);
  out.set("observer_s", observer_s);
  out.set("steps", stats.steps);
  out.set("jacobian_builds", stats.jacobian_builds);
  out.set("algebraic_solves", stats.algebraic_solves);
  out.set("stability_recomputes", stats.stability_recomputes);
  out.set("sync_points", session.sync_points());
  out.set("digital_events",
          session.kernel() != nullptr ? session.kernel()->events_executed() : 0);
  out.set("trace_points", session.has_trace() ? session.trace().size() : 0);
  io::JsonValue us = io::JsonValue::make_object();
  us.set("jacobians", mean(jac_us));
  us.set("eval", mean(eval_us));
  us.set("signature", mean(sig_us));
  us.set("lle_update", mean(lle_us));
  us.set("lu_factor", mean(factor_us));
  us.set("lu_solve", mean(solve_us));
  us.set("stability_cap", mean(cap_us));
  us.set("eigenvalues", mean(eig_us));
  out.set("us", std::move(us));
  out.set("sink", std::isfinite(sink) ? 0.0 : 1.0);
  return out;
}

// ---- direct ----------------------------------------------------------------

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Sizes and write-times the result files of \p result under \p dir.
void dump_result(const std::string& dir, const experiments::ScenarioResult& result,
                 io::JsonValue& job) {
  const auto start = Clock::now();
  const std::string stem = io::write_result_files(dir, result);
  job.set("dump_s", seconds_since(start));
  job.set("dump_bytes", file_bytes(stem + ".result.json") + file_bytes(stem + ".trace.csv"));
}

/// Median build time of the scenario's PWL diode table (cache emptied first).
double diode_table_build_s(const experiments::ExperimentSpec& spec) {
  const harvester::MultiplierParams p = experiments::experiment_params(spec).multiplier;
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    pwl::reset_diode_table_cache();
    const auto start = Clock::now();
    const auto table = pwl::shared_diode_table(p.diode, p.table_segments, p.table_v_min,
                                               p.table_g_max);
    builds.push_back(seconds_since(start));
  }
  pwl::reset_diode_table_cache();
  std::sort(builds.begin(), builds.end());
  return builds[2];
}

double prepare_s(const experiments::ExperimentSpec& spec) {
  const auto start = Clock::now();
  experiments::PreparedRun prepared = experiments::prepare_run(spec);
  return seconds_since(start);
}

io::JsonValue run_job(const std::string& line, const std::string& out_dir) {
  std::istringstream words(line);
  std::string kind, path;
  words >> kind >> path;
  io::JsonValue job = io::JsonValue::make_object();
  job.set("kind", kind);
  job.set("spec", path);
  job.set("parse_bytes", file_bytes(path));
  auto start = Clock::now();
  io::AnySpec any = io::load_spec_file(path);
  job.set("parse_s", seconds_since(start));

  if (kind == "run") {
    const auto& spec = spec_as<experiments::ExperimentSpec>(any, path);
    start = Clock::now();
    experiments::PreparedRun prepared = experiments::prepare_run(spec);
    const double init_s = seconds_since(start);
    start = Clock::now();
    const experiments::ScenarioResult result = experiments::finish_run(spec, prepared);
    job.set("init_s", init_s);
    job.set("direct_s", init_s + seconds_since(start));
    job.set("init_iterations", result.stats.init_iterations);
    dump_result(out_dir, result, job);
  } else if (kind == "ckpt") {
    const auto& spec = spec_as<experiments::ExperimentSpec>(any, path);
    experiments::CheckpointOptions options;
    std::string dir;
    words >> options.every >> dir;
    options.dir = dir;
    double replay_s = 0.0;
    double write_s = 0.0;
    std::uintmax_t bytes = 0;
    std::size_t writes = 0;
    const std::string copy = out_dir + "/replayed.ckpt.json";
    options.on_checkpoint = [&](const std::string& written, const std::string&, double) {
      const auto callback_start = Clock::now();
      bytes += file_bytes(written);
      ++writes;
      const sim::Checkpoint checkpoint = sim::Checkpoint::read_file(written);
      const auto write_start = Clock::now();
      checkpoint.write_file(copy);
      write_s += seconds_since(write_start);
      replay_s += seconds_since(callback_start);
    };
    start = Clock::now();
    const auto result = experiments::run_experiment_checkpointed(spec, {}, options);
    job.set("direct_s", seconds_since(start) - replay_s);
    job.set("init_s", prepare_s(spec));
    job.set("init_iterations", result->stats.init_iterations);
    job.set("checkpoint_writes", writes);
    job.set("checkpoint_write_s", write_s);
    job.set("checkpoint_bytes", bytes);
    dump_result(out_dir, *result, job);
  } else if (kind == "sweep") {
    const auto& sweep = spec_as<experiments::SweepSpec>(any, path);
    std::size_t threads = 0;
    words >> threads;
    start = Clock::now();
    const auto results = experiments::run_sweep(sweep, threads);
    job.set("direct_s", seconds_since(start));
    double init_s = 0.0;
    std::uint64_t init_iterations = 0;
    for (const auto& spec : sweep.expand()) {
      init_s += prepare_s(spec);
    }
    double dump_s = 0.0;
    std::uintmax_t dump_bytes = 0;
    for (const auto& result : results) {
      init_iterations += result.stats.init_iterations;
      io::JsonValue one = io::JsonValue::make_object();
      dump_result(out_dir, result, one);
      dump_s += one.at("dump_s").as_number();
      dump_bytes += static_cast<std::uintmax_t>(one.at("dump_bytes").as_number());
    }
    job.set("init_s", init_s);
    job.set("init_iterations", init_iterations);
    job.set("dump_s", dump_s);
    job.set("dump_bytes", dump_bytes);
  } else if (kind == "optimise") {
    const auto& spec = spec_as<experiments::OptimiseSpec>(any, path);
    start = Clock::now();
    const experiments::OptimiseResult result = experiments::run_optimise(spec);
    job.set("direct_s", seconds_since(start));
    job.set("evaluations", result.evaluations.size());
    start = Clock::now();
    const std::string document = io::to_json(result).dump(2);
    io::write_file(out_dir + "/" + io::safe_file_stem(result.name) + ".optimise.json",
                   document + "\n");
    job.set("dump_s", seconds_since(start));
    job.set("dump_bytes", document.size() + 1);
  } else {
    throw ModelError("unknown job kind '" + kind + "'");
  }
  return job;
}

io::JsonValue trace_direct(const std::string& list_path, const std::string& out_dir) {
  std::vector<std::string> lines;
  {
    std::istringstream list(io::read_file(list_path));
    for (std::string line; std::getline(list, line);) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
  }
  if (lines.empty()) {
    throw ModelError(list_path + ": no jobs");
  }
  std::filesystem::create_directories(out_dir);
  io::JsonValue out = io::JsonValue::make_object();
  // The table build is timed first, on an empty cache, so the jobs below see
  // the cache exactly as a fresh process does.
  {
    std::istringstream first(lines.front());
    std::string kind, path;
    first >> kind >> path;
    io::AnySpec any = io::load_spec_file(path);
    experiments::ExperimentSpec spec;
    if (auto* experiment = any.get_if<experiments::ExperimentSpec>()) {
      spec = *experiment;
    } else if (auto* sweep = any.get_if<experiments::SweepSpec>()) {
      spec = sweep->base;
    } else if (auto* optimise = any.get_if<experiments::OptimiseSpec>()) {
      spec = optimise->base;
    }
    out.set("diode_table_build_s", diode_table_build_s(spec));
  }
  io::JsonValue jobs = io::JsonValue::make_array();
  for (const std::string& line : lines) {
    jobs.push_back(run_job(line, out_dir));
  }
  out.set("jobs", std::move(jobs));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: layer_trace layers --samples K spec.json [spec.json ...]\n"
               "       layer_trace direct --out DIR jobs.txt\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() >= 4 && args[0] == "layers" && args[1] == "--samples") {
      const std::size_t samples = std::stoul(args[2]);
      io::JsonValue runs = io::JsonValue::make_array();
      for (std::size_t i = 3; i < args.size(); ++i) {
        runs.push_back(trace_layers(args[i], samples));
      }
      std::printf("%s\n", runs.dump().c_str());
      return 0;
    }
    if (args.size() == 4 && args[0] == "direct" && args[1] == "--out") {
      std::printf("%s\n", trace_direct(args[3], args[2]).dump().c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
