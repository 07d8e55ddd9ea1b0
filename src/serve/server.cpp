#include "serve/server.hpp"

#include <cmath>
#include <exception>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "experiments/probes.hpp"
#include "io/spec_json.hpp"
#include "pwl/table_cache.hpp"

namespace ehsim::serve {
namespace {

/// A line that failed full validation may still be well-formed enough to
/// carry an id — recover it so the error event can be correlated with the
/// request that caused it.
std::optional<std::uint64_t> best_effort_id(const std::string& line) {
  try {
    const io::JsonValue envelope = io::JsonValue::parse(line);
    if (!envelope.is_object()) return std::nullopt;
    const io::JsonValue* id = envelope.find("id");
    if (id == nullptr || !id->is_number()) return std::nullopt;
    const double value = id->as_number();
    if (!(value >= 0.0) || value != std::floor(value)) return std::nullopt;
    return static_cast<std::uint64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

io::JsonValue event_base(const char* event, std::uint64_t id) {
  io::JsonValue json = io::JsonValue::make_object();
  json.set("id", static_cast<double>(id));
  json.set("event", event);
  return json;
}

/// Per-probe summary block of the "probes" event: the reduced statistics
/// only, not the trace — clients wanting the column read the result event.
io::JsonValue probes_summary(const std::vector<experiments::ProbeResult>& probes) {
  io::JsonValue array = io::JsonValue::make_array();
  for (const auto& probe : probes) {
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("label", probe.label);
    entry.set("final", io::JsonValue::finite_or_null(probe.final_value));
    entry.set("mean", io::JsonValue::finite_or_null(probe.mean));
    entry.set("rms", io::JsonValue::finite_or_null(probe.rms));
    entry.set("min", io::JsonValue::finite_or_null(probe.minimum));
    entry.set("max", io::JsonValue::finite_or_null(probe.maximum));
    array.push_back(std::move(entry));
  }
  return array;
}

/// One coherent copy of the request counters, taken under stats_mutex_ so
/// the stats event never mixes values from different instants.
struct Snapshot {
  std::size_t received = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  std::size_t cancelled = 0;
};

/// The daemon's EventSink: each executor event becomes one NDJSON line.
class NdjsonSink final : public EventSink {
 public:
  explicit NdjsonSink(std::function<void(const io::JsonValue&)> emit)
      : emit_(std::move(emit)) {}

  void started(const Request& request, const std::string& name) override {
    io::JsonValue started = event_base("started", request.id);
    started.set("type", request_type_id(request.type));
    started.set("name", name);
    emit_(started);
  }

  void progress(const Request& request, std::size_t jobs) override {
    io::JsonValue progress = event_base("progress", request.id);
    progress.set("jobs", static_cast<double>(jobs));
    emit_(progress);
  }

  void checkpoint(const Request& request, const std::string& path, const std::string& job,
                  double sim_time) override {
    io::JsonValue event = event_base("checkpoint", request.id);
    event.set("job", job);
    event.set("path", path);
    event.set("sim_time", sim_time);
    emit_(event);
  }

  /// Per run: a "probes" summary (when it has probes), then — for
  /// run/sweep/resume — its own "result" event (sweep jobs carry job/jobs).
  /// A document request ends with one "result" event carrying the document.
  void result(const Request& request, const JobResult& result) override {
    const char* type = request_type_id(request.type);
    const bool documented = !std::holds_alternative<std::monostate>(result.document);
    const bool batch = request.spec.get_if<experiments::SweepSpec>() != nullptr;
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
      const experiments::ScenarioResult& run = result.runs[i];
      if (!run.probes.empty()) {
        io::JsonValue probes = event_base("probes", request.id);
        probes.set("scenario", run.scenario);
        probes.set("probes", probes_summary(run.probes));
        emit_(probes);
      }
      if (documented) continue;
      io::JsonValue done = event_base("result", request.id);
      done.set("type", type);
      if (batch) {
        done.set("job", static_cast<double>(i));
        done.set("jobs", static_cast<double>(result.runs.size()));
      }
      done.set("result", io::to_json(run));
      emit_(done);
    }
    if (!documented) return;
    io::JsonValue done = event_base("result", request.id);
    done.set("type", type);
    std::visit(io::overloaded{
                   [](std::monostate) {},
                   [&](const experiments::OptimiseResult& optimum) {
                     done.set("evaluations", static_cast<double>(optimum.evaluations.size()));
                     done.set("result", io::to_json(optimum));
                   },
                   [&](const experiments::EnsembleResult& ensemble) {
                     done.set("replicas", static_cast<double>(ensemble.runs.size()));
                     done.set("result", io::to_json(ensemble));
                   },
                   [&](const experiments::AccuracyReport& report) {
                     done.set("kernels", static_cast<double>(report.kernels.size()));
                     done.set("result", io::to_json(report));
                   },
                   [&](const experiments::AutotuneResult& autotune) {
                     done.set("evaluations", static_cast<double>(autotune.evaluations));
                     done.set("result", io::to_json(autotune));
                   }},
               result.document);
    emit_(done);
  }

 private:
  std::function<void(const io::JsonValue&)> emit_;
};

}  // namespace

Server::Server(std::istream& in, std::ostream& out, ServerOptions options)
    : in_(in),
      queue_(options.queue_capacity),
      context_(options.cross_request_caches ? options.pool_capacity : 0),
      out_(out) {
  context_.threads = options.threads;
  context_.out_dir = std::move(options.out_dir);
  context_.caches = options.cross_request_caches;
}

void Server::emit(const io::JsonValue& event) {
  const std::string line = event.dump(-1);
  const core::MutexLock lock(out_mutex_);
  out_ << line << '\n' << std::flush;
}

void Server::emit_error(std::uint64_t id, bool has_id, const std::string& message,
                        const std::string& key) {
  io::JsonValue json = io::JsonValue::make_object();
  if (has_id) json.set("id", static_cast<double>(id));
  json.set("event", "error");
  json.set("error", message);
  if (!key.empty()) json.set("key", key);
  {
    const core::MutexLock lock(stats_mutex_);
    ++errors_;
  }
  emit(json);
}

int Server::run() {
  {
    io::JsonValue ready = io::JsonValue::make_object();
    ready.set("event", "ready");
    ready.set("protocol", 1.0);
    ready.set("cross_request_caches", context_.caches);
    emit(ready);
  }

  std::thread worker(&Server::worker_loop, this);

  std::string line;
  while (std::getline(in_, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Request request;
    try {
      request = parse_request(line);
    } catch (const ProtocolError& error) {
      const std::optional<std::uint64_t> id = best_effort_id(line);
      emit_error(id.value_or(0), id.has_value(), error.what(), error.key());
      continue;
    }
    {
      const core::MutexLock lock(stats_mutex_);
      ++received_;
    }
    if (request.type == RequestType::kCancel) {
      const core::MutexLock lock(cancel_mutex_);
      cancel_set_.insert(request.id);
      continue;
    }
    const bool is_shutdown = request.type == RequestType::kShutdown;
    queue_.enqueue(std::move(request));
    if (is_shutdown) break;  // anything after a shutdown request is ignored
  }

  queue_.close();
  worker.join();
  return 0;
}

void Server::worker_loop() {
  while (true) {
    std::optional<Request> request = queue_.dequeue();
    if (!request) return;
    bool cancelled = false;
    {
      const core::MutexLock lock(cancel_mutex_);
      cancelled = cancel_set_.erase(request->id) > 0;
    }
    if (cancelled) {
      // The emit happens outside cancel_mutex_ — bookkeeping locks are
      // never held across the emission lock (docs/concurrency.md).
      {
        const core::MutexLock lock(stats_mutex_);
        ++cancelled_;
      }
      emit(event_base("cancelled", request->id));
      continue;
    }
    process(*request);
    // A cancel that raced in while this id was *running* must not linger:
    // the job already completed, and a stale entry would spuriously cancel
    // a later request that reuses the id.
    {
      const core::MutexLock lock(cancel_mutex_);
      cancel_set_.erase(request->id);
    }
  }
}

void Server::process(const Request& request) {
  try {
    switch (request.type) {
      case RequestType::kStats:
        emit_stats(request.id);
        break;
      case RequestType::kShutdown:
        emit(event_base("shutdown", request.id));
        break;
      case RequestType::kCancel:
        return;  // handled by the reader; never enqueued
      default: {
        NdjsonSink sink([this](const io::JsonValue& event) { emit(event); });
        (void)execute(request, context_, sink);
        break;
      }
    }
    count_completed();
  } catch (const std::exception& error) {
    emit_error(request.id, true, error.what(), "");
  }
}

void Server::count_completed() {
  const core::MutexLock lock(stats_mutex_);
  ++completed_;
}

void Server::emit_stats(std::uint64_t id) {
  // One atomic snapshot of the request counters; the cache counters belong
  // to the worker thread this runs on (stats requests execute in queue
  // order, so the snapshot is linearised with job execution — no job is
  // half-counted).
  Snapshot snapshot;
  {
    const core::MutexLock lock(stats_mutex_);
    snapshot.received = received_;
    snapshot.completed = completed_;
    snapshot.errors = errors_;
    snapshot.cancelled = cancelled_;
  }
  const CacheCounters& caches = context_.counters;

  io::JsonValue json = event_base("stats", id);

  io::JsonValue requests = io::JsonValue::make_object();
  requests.set("received", static_cast<double>(snapshot.received));
  requests.set("completed", static_cast<double>(snapshot.completed));
  requests.set("errors", static_cast<double>(snapshot.errors));
  requests.set("cancelled", static_cast<double>(snapshot.cancelled));
  json.set("requests", std::move(requests));

  const JobQueue::Stats queue = queue_.stats();
  io::JsonValue queue_json = io::JsonValue::make_object();
  queue_json.set("capacity", static_cast<double>(queue.capacity));
  queue_json.set("enqueued", static_cast<double>(queue.enqueued));
  queue_json.set("dequeued", static_cast<double>(queue.dequeued));
  queue_json.set("max_depth", static_cast<double>(queue.max_depth));
  json.set("queue", std::move(queue_json));

  const SessionPool::Stats pool = context_.pool.stats();
  io::JsonValue pool_json = io::JsonValue::make_object();
  pool_json.set("capacity", static_cast<double>(pool.capacity));
  pool_json.set("entries", static_cast<double>(pool.entries));
  pool_json.set("hits", static_cast<double>(pool.hits));
  pool_json.set("misses", static_cast<double>(pool.misses));
  pool_json.set("inserts", static_cast<double>(pool.inserts));
  pool_json.set("evictions", static_cast<double>(pool.evictions));
  json.set("session_pool", std::move(pool_json));

  io::JsonValue op_json = io::JsonValue::make_object();
  op_json.set("entries", static_cast<double>(context_.op_cache.size()));
  op_json.set("seeded_runs", static_cast<double>(caches.op_seeded_runs));
  op_json.set("stored_points", static_cast<double>(caches.op_stored_points));
  json.set("op_cache", std::move(op_json));

  io::JsonValue optimise_json = io::JsonValue::make_object();
  optimise_json.set("hits", static_cast<double>(caches.optimise_cross_hits));
  optimise_json.set("stores", static_cast<double>(caches.optimise_cross_stores));
  json.set("optimise_cache", std::move(optimise_json));

  const pwl::TableCacheStats diode = pwl::diode_table_cache_stats();
  io::JsonValue diode_json = io::JsonValue::make_object();
  diode_json.set("entries", static_cast<double>(diode.entries));
  diode_json.set("hits", static_cast<double>(diode.hits));
  diode_json.set("misses", static_cast<double>(diode.misses));
  json.set("diode_table", std::move(diode_json));

  emit(json);
}

}  // namespace ehsim::serve
