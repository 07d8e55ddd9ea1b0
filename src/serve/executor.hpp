/// \file executor.hpp
/// \brief The one job executor behind the `ehsim` job verbs and `ehsim serve`.
///
/// Every job request — run, sweep, resume, ensemble, optimise, accuracy,
/// autotune — reaches the simulator through execute(). The two front ends
/// keep only their own I/O: the CLI turns argv into a Request and prints a
/// summary from its EventSink; the serve daemon parses an envelope into a
/// Request and streams its sink's events as NDJSON. The executor alone
/// decides
///   - which spec flavours a request type accepts (expected_spec_types);
///   - how batch options resolve from the spec plus the caller's overrides
///     (experiments::resolve_batch_options);
///   - which files a request writes (under ExecContext::out_dir);
///   - which events it emits, and in which order (EventSink).
///
/// ExecContext carries the caller's overrides and the serve daemon's
/// cross-request caches. With the caches off — the CLI and `serve --cold` —
/// every request runs exactly the one-shot path.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "experiments/accuracy.hpp"
#include "experiments/autotune.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/warm_start.hpp"
#include "serve/protocol.hpp"
#include "serve/session_pool.hpp"

namespace ehsim::serve {

/// Counters of the cross-request caches (the serve `stats` event).
struct CacheCounters {
  std::size_t op_seeded_runs = 0;    ///< runs/sweep jobs seeded from the op cache
  std::size_t op_stored_points = 0;  ///< cold operating points stored into it
  std::size_t optimise_cross_hits = 0;
  std::size_t optimise_cross_stores = 0;
};

/// Caller overrides plus the warm state one request runs with. Defaults are
/// the one-shot configuration: the spec's own settings, no files, caches off.
struct ExecContext {
  explicit ExecContext(std::size_t pool_capacity = 0) : pool(pool_capacity) {}

  /// Worker threads of sweeps and ensembles (0: the spec's own setting,
  /// then hardware concurrency) and of accuracy measurements (0: one).
  std::size_t threads = 0;
  /// Turn warm starts on even where the spec leaves them off.
  bool warm_start = false;
  /// Replaces the spec's batch kernel when set.
  std::optional<experiments::BatchKernel> batch_kernel{};
  /// Non-empty: write the request's files under this directory.
  std::string out_dir{};
  /// Accuracy requests: kernels to measure (empty: all the engine supports)
  /// and the oracle step (<= 0: the reference default).
  std::vector<experiments::BatchKernel> accuracy_kernels{};
  double oracle_step = 0.0;
  /// Checkpointed requests: stop after this many checkpoints per job (the
  /// resume goldens' deterministic kill; < 0: never).
  int abort_after = -1;

  /// Cross-request caches. Off, the pool and op cache stay empty and every
  /// request runs the one-shot path.
  bool caches = false;
  SessionPool pool;
  /// Exact-signature (quantum 0) operating-point store shared by plain runs,
  /// sweeps and optimise evaluations.
  experiments::OperatingPointCache op_cache;
  CacheCounters counters;
};

/// What one job request produced.
struct JobResult {
  /// Scenario runs reported one by one: the results of a run/sweep/resume
  /// in job order, or the best run of an optimise/autotune search.
  std::vector<experiments::ScenarioResult> runs;
  /// Batch counters of run/sweep/resume/ensemble batches.
  experiments::BatchStats batch;
  /// The request's document (search log, ensemble reduction, accuracy
  /// report); monostate for run/sweep/resume.
  std::variant<std::monostate, experiments::OptimiseResult, experiments::EnsembleResult,
               experiments::AccuracyReport, experiments::AutotuneResult>
      document;
};

/// Receives a request's events in order: started, progress (sweeps and
/// ensembles), checkpoint (checkpointed requests; from worker threads under
/// the jobs kernel), result (the request finished), then written (its files,
/// if any, are on disk).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void started(const Request& /*request*/, const std::string& /*name*/) {}
  virtual void progress(const Request& /*request*/, std::size_t /*jobs*/) {}
  virtual void checkpoint(const Request& /*request*/, const std::string& /*path*/,
                          const std::string& /*job*/, double /*sim_time*/) {}
  virtual void result(const Request& /*request*/, const JobResult& /*result*/) {}
  virtual void written(const Request& /*request*/, const JobResult& /*result*/) {}
};

/// Run one job request. Throws ModelError when the request type does not
/// accept the spec's flavour, and whatever the run itself throws. Returns
/// false only when ExecContext::abort_after stopped a checkpointed run (its
/// checkpoint files are on disk; no result, no files, no result event).
[[nodiscard]] bool execute(const Request& request, ExecContext& context, EventSink& sink);

}  // namespace ehsim::serve
