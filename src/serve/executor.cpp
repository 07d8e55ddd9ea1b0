#include "serve/executor.hpp"

#include <cstdint>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "experiments/sweep.hpp"
#include "io/spec_json.hpp"

namespace ehsim::serve {
namespace {

using experiments::BatchKernel;
using experiments::BatchOptions;
using experiments::ExperimentSpec;
using experiments::PreparedRun;
using experiments::ScenarioJob;
using experiments::ScenarioResult;

/// Cross-request operating-point bookkeeping after prepare_run: seeded runs
/// count a hit, rejected seeds are healed with the cold fallback's point,
/// and cold-converged points are stored (first store wins).
void note_outcome(ExecContext& context, std::uint64_t signature, const PreparedRun& run) {
  switch (run.warm_start()) {
    case experiments::WarmStartOutcome::kSeeded:
      ++context.counters.op_seeded_runs;
      break;
    case experiments::WarmStartOutcome::kRejected:
      // Heal the entry so the deterministic rejection is not replayed on
      // every later request for this signature.
      context.op_cache.replace(signature, run.initial_terminals());
      break;
    case experiments::WarmStartOutcome::kCold:
      if (!run.initial_terminals().empty() && !context.op_cache.contains(signature)) {
        context.op_cache.store(signature, run.initial_terminals());
        ++context.counters.op_stored_points;
      }
      break;
  }
}

/// Prepare a fresh run, seeding it from the op cache when the caches are on.
PreparedRun prepare_seeded(const ExperimentSpec& spec, ExecContext& context) {
  experiments::RunOptions options;
  std::uint64_t signature = 0;
  // The seed copy must own its storage for the whole prepare call:
  // options.initial_terminals is a span over it.
  std::optional<std::vector<double>> seed;
  if (context.caches) {
    signature =
        experiments::operating_point_signature(spec, experiments::experiment_params(spec),
                                               /*quantum=*/0.0);
    if ((seed = context.op_cache.find(signature))) {
      options.initial_terminals = *seed;
    }
  }
  PreparedRun run = experiments::prepare_run(spec, options);
  if (context.caches) note_outcome(context, signature, run);
  return run;
}

/// One experiment through the session pool — bit-identical to
/// run_experiment. A pooled session skips model assembly and
/// initialisation; with the caches on, the spec is speculatively
/// re-prepared so the next identical request hits the pool too.
ScenarioResult run_pooled(const ExperimentSpec& spec, ExecContext& context) {
  const std::string key = io::to_json(spec).dump(-1);
  std::optional<PreparedRun> pooled = context.pool.take(key);
  ScenarioResult result;
  if (pooled && pooled->valid()) {
    result = experiments::finish_run(spec, *pooled);
  } else {
    PreparedRun run = prepare_seeded(spec, context);
    result = experiments::finish_run(spec, run);
  }
  if (context.caches && context.pool.stats().capacity > 0) {
    context.pool.put(key, prepare_seeded(spec, context));
  }
  return result;
}

/// Every file of one request under \p dir: its document as
/// <stem>.<type>.json, then the result/trace pair of each run and of each
/// ensemble replica.
void write_files(const std::string& dir, const Request& request, const JobResult& result) {
  std::visit(io::overloaded{[](std::monostate) {},
                            [&](const auto& document) {
                              io::write_document_file(dir, document.name,
                                                      request_type_id(request.type),
                                                      io::to_json(document));
                            }},
             result.document);
  for (const ScenarioResult& run : result.runs) {
    io::write_result_files(dir, run);
  }
  if (const auto* ensemble = std::get_if<experiments::EnsembleResult>(&result.document)) {
    for (const ScenarioResult& replica : ensemble->runs) {
      io::write_result_files(dir, replica);
    }
  }
}

}  // namespace

bool execute(const Request& request, ExecContext& context, EventSink& sink) {
  if (!accepts_spec(request.type, request.spec)) {
    throw ModelError(std::string("request type '") + request_type_id(request.type) +
                     "' does not take a '" + request.spec.type_id() + "' spec");
  }
  std::optional<experiments::CheckpointOptions> checkpointing;
  if (request.checkpoint) {
    checkpointing.emplace();
    checkpointing->every = request.checkpoint->every;
    checkpointing->dir = request.checkpoint->dir;
    checkpointing->resume = request.type == RequestType::kResume;
    checkpointing->abort_after = context.abort_after;
    checkpointing->on_checkpoint = [&](const std::string& path, const std::string& job,
                                       double sim_time) {
      sink.checkpoint(request, path, job, sim_time);
    };
  }
  const bool measure = request.type == RequestType::kAccuracy;
  experiments::AccuracyOptions accuracy;
  accuracy.kernels = context.accuracy_kernels;
  accuracy.oracle_step = context.oracle_step;
  accuracy.threads = context.threads > 0 ? context.threads : 1;

  // Each branch returns false only when the abort_after hook stopped it.
  JobResult result;
  const bool finished = request.spec.dispatch(io::overloaded{
      [&](const ExperimentSpec& spec) {
        sink.started(request, spec.name);
        if (measure) {
          result.document = experiments::run_accuracy(spec, accuracy);
          return true;
        }
        BatchOptions batch;
        batch.warm_start = context.warm_start;
        batch.batch_kernel = context.batch_kernel.value_or(BatchKernel::kJobs);
        if (!checkpointing && batch.batch_kernel == BatchKernel::kJobs) {
          result.runs.push_back(run_pooled(spec, context));
          return true;
        }
        const std::vector<ScenarioJob> jobs{ScenarioJob{spec, std::nullopt}};
        if (!checkpointing) {
          result.runs = experiments::run_scenario_batch(jobs, batch, &result.batch);
          return true;
        }
        auto runs = experiments::run_scenario_batch_checkpointed(jobs, batch, *checkpointing,
                                                                 &result.batch);
        if (runs) result.runs = std::move(*runs);
        return runs.has_value();
      },
      [&](const experiments::SweepSpec& sweep) {
        if (!measure) sweep.validate();
        sink.started(request, sweep.base.name);
        if (measure) {
          result.document = experiments::run_accuracy(sweep, accuracy);
          return true;
        }
        sink.progress(request, sweep.job_count());
        BatchOptions batch = experiments::resolve_batch_options(
            sweep, context.threads, context.warm_start, context.batch_kernel);
        if (checkpointing) {
          auto runs =
              experiments::run_sweep_checkpointed(sweep, batch, *checkpointing, &result.batch);
          if (runs) result.runs = std::move(*runs);
          return runs.has_value();
        }
        // A sweep that opted into quantised warm starts runs exactly as the
        // one-shot path would (per-batch cache, default quantum). Otherwise,
        // with the caches on, it seeds from exact signatures only: a
        // cross-request seed is the job's own cold-converged point, so
        // seeded jobs stay bit-identical to cold ones.
        const bool cross = context.caches && !batch.warm_start;
        if (cross) {
          batch.warm_start = true;
          batch.warm_start_quantum = 0.0;
          batch.warm_cache = &context.op_cache;
        }
        const std::size_t entries_before = context.op_cache.size();
        result.runs = experiments::run_sweep(sweep, batch, &result.batch);
        if (cross) {
          context.counters.op_seeded_runs += result.batch.warm_start_hits;
          context.counters.op_stored_points += context.op_cache.size() - entries_before;
        }
        return true;
      },
      [&](const experiments::EnsembleSpec& spec) {
        sink.started(request, spec.base.name);
        sink.progress(request, spec.replica_seeds().size());
        result.document = experiments::run_ensemble(
            spec,
            experiments::resolve_batch_options(spec, context.threads, context.warm_start,
                                               context.batch_kernel),
            &result.batch);
        return true;
      },
      [&](const experiments::OptimiseSpec& spec) {
        sink.started(request, spec.name);
        experiments::OptimiseSpec search = spec;
        search.warm_start = spec.warm_start || context.warm_start;
        experiments::OptimiseRuntime runtime;
        if (context.caches) runtime.cross_cache = &context.op_cache;
        experiments::OptimiseResult optimum = experiments::run_optimise(search, &runtime);
        context.counters.optimise_cross_hits += runtime.cross_hits;
        context.counters.optimise_cross_stores += runtime.cross_stores;
        context.counters.op_stored_points += runtime.cross_stores;
        result.runs.push_back(optimum.best_run);
        result.document = std::move(optimum);
        return true;
      },
      [&](const experiments::AutotuneSpec& spec) {
        sink.started(request, spec.name);
        experiments::AutotuneOutcome outcome = experiments::run_autotune(spec);
        result.runs.push_back(std::move(outcome.best_run));
        result.document = std::move(outcome.result);
        return true;
      }});
  if (!finished) return false;
  sink.result(request, result);
  if (!context.out_dir.empty()) write_files(context.out_dir, request, result);
  sink.written(request, result);
  return true;
}

}  // namespace ehsim::serve
