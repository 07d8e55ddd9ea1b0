/// \file protocol.hpp
/// \brief Request envelopes of the `ehsim serve` newline-delimited protocol.
///
/// One request per input line, one JSON document per line:
///
///     {"id": 1, "type": "run",      "spec": { ...experiment spec... }}
///     {"id": 2, "type": "sweep",    "spec_path": "examples/specs/x.json"}
///     {"id": 3, "type": "optimise", "spec": { ...optimise spec... }}
///     {"id": 4, "type": "ensemble", "spec": { ...ensemble spec... }}
///     {"id": 5, "type": "run",      "spec": {...},
///      "checkpoint": {"dir": "ckpt", "every": 2.5}}
///     {"id": 6, "type": "resume",   "spec": {...},
///      "checkpoint": {"dir": "ckpt", "every": 2.5}}
///     {"id": 7, "type": "accuracy", "spec": { ...experiment or sweep spec... }}
///     {"id": 8, "type": "autotune", "spec": { ...autotune spec... }}
///     {"id": 9, "type": "cancel"}   // cancels queued job with id 9
///     {"id": 10, "type": "stats"}
///     {"id": 11, "type": "shutdown"}
///
/// Envelopes are strict-keyed through the same io/json layer as spec files:
/// unknown keys, missing fields, payload/type mismatches and malformed specs
/// all throw ProtocolError naming the offending key — the daemon answers
/// with a single-line error event instead of crashing or silently skipping.
/// The full event vocabulary the daemon streams back is documented in
/// docs/serve_protocol.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/spec_json.hpp"

namespace ehsim::serve {

/// What a request envelope asks the daemon to do.
enum class RequestType {
  kRun,       ///< execute one experiment spec
  kSweep,     ///< execute a sweep spec
  kOptimise,  ///< execute an optimise spec
  kEnsemble,  ///< execute an ensemble spec (seed-varied replicas)
  kResume,    ///< continue a checkpointed run/sweep from its files
  kAccuracy,  ///< measure a spec's error bounds against the reference oracle
  kAutotune,  ///< execute an autotune spec (error-budget solver-knob search)
  kCancel,    ///< drop the queued (not yet started) job with this id
  kStats,     ///< report queue/cache/pool counters
  kShutdown,  ///< finish queued jobs, emit a shutdown event, exit
};

/// Stable wire identifier ("run" | "sweep" | "optimise" | "ensemble" |
/// "resume" | "accuracy" | "autotune" | "cancel" | "stats" | "shutdown").
[[nodiscard]] const char* request_type_id(RequestType type);

/// Spec flavours (io::spec_type_id strings) each job type accepts; empty for
/// the control types. The single verb-to-flavour table: envelope parsing,
/// the job executor and the CLI's wrong-flavour errors all read it.
[[nodiscard]] std::vector<const char*> expected_spec_types(RequestType type);

/// Whether \p type accepts the flavour of \p spec.
[[nodiscard]] bool accepts_spec(RequestType type, const io::AnySpec& spec);

/// Whether \p type takes a checkpoint block (run, sweep, resume).
[[nodiscard]] bool takes_checkpoint(RequestType type);

/// Envelope validation failure that knows which key/field it is about —
/// the daemon copies \c key() into the error event so clients can point at
/// the offending part of their request programmatically.
class ProtocolError : public ModelError {
 public:
  ProtocolError(const std::string& message, std::string key)
      : ModelError(message), key_(std::move(key)) {}

  /// The envelope key the failure concerns ("id", "type", "spec", ...).
  [[nodiscard]] const std::string& key() const noexcept { return key_; }

 private:
  std::string key_;
};

/// The optional "checkpoint" block of run/sweep envelopes (periodic state
/// capture) and the mandatory one of resume envelopes (where the files are).
struct CheckpointRequest {
  std::string dir;     ///< per-job checkpoint files live here
  double every = 0.0;  ///< simulated-seconds cadence (0 on resume: finish only)
};

/// One parsed request. For the job types (run/sweep/optimise/ensemble/
/// resume/accuracy/autotune) \c spec holds the matching spec flavour.
struct Request {
  std::uint64_t id = 0;
  RequestType type = RequestType::kRun;
  io::AnySpec spec{};
  std::optional<CheckpointRequest> checkpoint{};
};

/// Parse and validate one envelope line. Strict keys: {"id", "type",
/// "spec", "spec_path", "checkpoint"}. "id" must be a non-negative integer;
/// job types need exactly one of "spec" (inline object) / "spec_path" (file
/// path, resolved relative to the daemon's working directory), and the
/// payload's spec type must match the envelope type (resume and accuracy
/// accept experiment and sweep specs); control types (cancel/stats/shutdown) must
/// carry neither. "checkpoint" {"dir", "every"} is optional on run/sweep
/// (cadence "every" > 0 required), mandatory on resume ("every" optional —
/// omitted, the resumed run finishes without writing further checkpoints,
/// which changes its step trajectory after the restore point), and rejected
/// elsewhere. Throws ProtocolError naming the offending key.
[[nodiscard]] Request parse_request(const std::string& line);

}  // namespace ehsim::serve
