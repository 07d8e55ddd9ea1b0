/// \file server.hpp
/// \brief The `ehsim serve` daemon: a long-lived simulation service.
///
/// One Server instance reads newline-delimited request envelopes (see
/// protocol.hpp) from an input stream, schedules them through a bounded
/// JobQueue onto a single simulation worker thread, and streams
/// newline-delimited JSON events back: progress, per-probe summaries, full
/// result documents and cache statistics, each tagged with the request id.
/// Job requests run through the same executor as the one-shot CLI
/// (executor.hpp); the Server adds only the reader, queue, worker,
/// cancellation, stats and the NDJSON event sink.
///
/// What makes the daemon worth running over repeated one-shot `ehsim`
/// invocations is the cross-request state it keeps warm:
///   - the process-wide PWL diode-table cache (pwl/table_cache.hpp) now
///     amortises across *requests*, not just across the jobs of one sweep;
///   - a cross-request OperatingPointCache keyed by *exact* operating-point
///     signatures seeds the t=0 consistency iterations of any plain run,
///     sweep job or optimise evaluation whose parameter vector was
///     converged before;
///   - a bounded SessionPool of fully prepared sessions lets a repeated
///     plain run skip model assembly and initialisation entirely.
/// Checkpointed run/sweep/resume requests bypass both the pool and the op
/// cache (a chunked march is prepared per request from a cold start).
///
/// Determinism contract: because cross-request seeds use exact signatures
/// (warm_start_quantum 0), a seeded solve converges to the very operating
/// point it was seeded with, so every response is bit-identical to a cold
/// one-shot `ehsim run|sweep|optimise` of the same spec — modulo the
/// explicitly run-dependent fields "cpu_seconds", "warm_start" and
/// "shared_diode_table" (the golden serve ctest pins exactly this with
/// `compare --ignore`). Wire protocol reference: docs/serve_protocol.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_set>

#include "core/thread_annotations.hpp"
#include "io/json.hpp"
#include "serve/executor.hpp"
#include "serve/job_queue.hpp"

namespace ehsim::serve {

struct ServerOptions {
  /// Batch worker threads of sweeps, ensembles and accuracy measurements
  /// (0: the spec's own setting, then hardware concurrency). Runs and
  /// optimise/autotune searches are inherently serial.
  std::size_t threads = 0;
  /// Non-empty: also write each request's files to disk exactly as the
  /// one-shot CLI would (<stem>.result.json / .trace.csv and the
  /// <stem>.optimise/.ensemble/.accuracy/.autotune documents) under this
  /// directory.
  std::string out_dir{};
  /// Job-queue ring capacity (blocking back-pressure past this depth).
  std::size_t queue_capacity = 16;
  /// Prepared-session pool capacity (0 disables pooling).
  std::size_t pool_capacity = 8;
  /// Master switch for the cross-request caches (`--cold` clears it): off,
  /// every request runs exactly like an isolated one-shot invocation —
  /// useful for A/B-ing the caches and for the amortisation benchmark's
  /// baseline.
  bool cross_request_caches = true;
};

/// The daemon. Construct over any istream/ostream pair (the CLI passes
/// stdin/stdout; tests and the amortisation benchmark drive it in-process
/// over stringstreams).
class Server {
 public:
  Server(std::istream& in, std::ostream& out, ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until a shutdown request or end of input; returns the process
  /// exit code (0). The calling thread becomes the protocol reader; one
  /// internal worker thread executes jobs strictly in queue order.
  int run();

 private:
  void emit(const io::JsonValue& event) EHSIM_EXCLUDES(out_mutex_);
  void emit_error(std::uint64_t id, bool has_id, const std::string& message,
                  const std::string& key) EHSIM_EXCLUDES(stats_mutex_, out_mutex_);
  /// Executed on the worker thread in queue order, so the emitted snapshot
  /// is linearised with job execution: it reflects every job dequeued
  /// before this stats request, and none after (docs/serve_protocol.md).
  void emit_stats(std::uint64_t id) EHSIM_EXCLUDES(stats_mutex_, out_mutex_);

  /// Count one completed request (`completed` in the stats event).
  void count_completed() EHSIM_EXCLUDES(stats_mutex_);

  void worker_loop();
  /// Answer one dequeued request: control types here, job types through
  /// the executor with the NDJSON sink; failures become error events.
  void process(const Request& request);

  std::istream& in_;

  JobQueue queue_;
  /// The executor's overrides and cross-request caches. Touched only by the
  /// worker thread (jobs and stats run there, in queue order); the op cache
  /// inside is also read by sweep pool workers during a fan-out and is
  /// internally synchronised.
  ExecContext context_;

  // Lock hierarchy (docs/concurrency.md): cancel_mutex_ and stats_mutex_
  // are bookkeeping locks acquired strictly before (never inside) the
  // out_mutex_ emission lock; no two server locks are ever held together.
  // All three are leaves with respect to JobQueue/SessionPool internals.
  core::Mutex out_mutex_ EHSIM_ACQUIRED_AFTER(cancel_mutex_, stats_mutex_);
  std::ostream& out_ EHSIM_GUARDED_BY(out_mutex_);

  /// Ids whose queued (not yet started) job should be dropped. Written by
  /// the reader on a cancel envelope, consumed by the worker.
  core::Mutex cancel_mutex_;
  std::unordered_set<std::uint64_t> cancel_set_ EHSIM_GUARDED_BY(cancel_mutex_);

  /// Request counters. One mutex guards them all so a `stats` snapshot is
  /// atomic with respect to both the reader thread (received/errors) and
  /// the worker thread (everything else).
  mutable core::Mutex stats_mutex_;
  std::size_t received_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t completed_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t errors_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
  std::size_t cancelled_ EHSIM_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace ehsim::serve
