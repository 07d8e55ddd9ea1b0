/// \file spec_json.hpp
/// \brief JSON bindings for the declarative experiment layer.
///
/// Scenarios are data: an ExperimentSpec or SweepSpec round-trips through
/// JSON losslessly (spec == from_json(to_json(spec))), which is what the
/// `ehsim` CLI and the checked-in examples/specs/*.json files ride on.
/// Parsing is strict — unknown keys are rejected with the offending name —
/// so spec typos fail loudly instead of silently running defaults. The
/// schema is documented with worked examples in docs/spec_format.md.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "experiments/accuracy.hpp"
#include "experiments/autotune.hpp"
#include "experiments/ensemble.hpp"
#include "experiments/optimise_spec.hpp"
#include "experiments/scenarios.hpp"
#include "experiments/sweep.hpp"
#include "io/json.hpp"

namespace ehsim::io {

// ---- spec <-> JSON --------------------------------------------------------

[[nodiscard]] JsonValue to_json(const experiments::ExcitationSchedule& schedule);
[[nodiscard]] experiments::ExcitationSchedule schedule_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::ProbeSpec& probe);
[[nodiscard]] experiments::ProbeSpec probe_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::ExperimentSpec& spec);
[[nodiscard]] experiments::ExperimentSpec experiment_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::SweepSpec& sweep);
[[nodiscard]] experiments::SweepSpec sweep_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::OptimiseSpec& spec);
[[nodiscard]] experiments::OptimiseSpec optimise_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::EnsembleSpec& spec);
[[nodiscard]] experiments::EnsembleSpec ensemble_from_json(const JsonValue& json);

[[nodiscard]] JsonValue to_json(const experiments::AutotuneSpec& spec);
[[nodiscard]] experiments::AutotuneSpec autotune_from_json(const JsonValue& json);

// ---- the tagged spec union ------------------------------------------------

/// Stable top-level "type" id of each spec flavour; the overload set keeps
/// AnySpec::type_id() and generic visitors in lock-step with the parser.
[[nodiscard]] constexpr const char* spec_type_id(const experiments::ExperimentSpec&) {
  return "experiment";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::SweepSpec&) {
  return "sweep";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::OptimiseSpec&) {
  return "optimise";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::EnsembleSpec&) {
  return "ensemble";
}
[[nodiscard]] constexpr const char* spec_type_id(const experiments::AutotuneSpec&) {
  return "autotune";
}

/// Lambda-overload visitor for AnySpec::dispatch:
///   spec.dispatch(overloaded{[](const ExperimentSpec& e) {...}, ...});
template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

/// A parsed spec document: exactly one flavour per the top-level "type"
/// ("experiment" | "sweep" | "optimise" | "ensemble" | "autotune").
/// Consumers branch with a single dispatch(visitor) — adding a new spec
/// flavour means extending the variant, spec_type_id and spec_from_json,
/// and the compiler then flags every visitor that doesn't handle it.
/// Default-constructed state is an empty ExperimentSpec (the variant is
/// never empty).
class AnySpec {
 public:
  using Variant = std::variant<experiments::ExperimentSpec, experiments::SweepSpec,
                               experiments::OptimiseSpec, experiments::EnsembleSpec,
                               experiments::AutotuneSpec>;

  AnySpec() = default;
  explicit AnySpec(Variant value) : value_(std::move(value)) {}

  template <typename Visitor>
  decltype(auto) dispatch(Visitor&& visitor) {
    return std::visit(std::forward<Visitor>(visitor), value_);
  }
  template <typename Visitor>
  decltype(auto) dispatch(Visitor&& visitor) const {
    return std::visit(std::forward<Visitor>(visitor), value_);
  }

  /// The held flavour's "type" id ("experiment" | "sweep" | ...).
  [[nodiscard]] const char* type_id() const {
    return dispatch([](const auto& spec) { return spec_type_id(spec); });
  }

  /// The held spec if it is a T, else nullptr (std::get_if semantics).
  template <typename T>
  [[nodiscard]] T* get_if() noexcept {
    return std::get_if<T>(&value_);
  }
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return std::get_if<T>(&value_);
  }

 private:
  Variant value_{};
};

[[nodiscard]] AnySpec spec_from_json(const JsonValue& json);
[[nodiscard]] AnySpec load_spec_file(const std::string& path);

// ---- results --------------------------------------------------------------

/// Full result document: run summary, solver statistics, MCU events,
/// per-probe statistics and the binned power waveform. The dense traces go
/// to CSV (write_trace_csv), not JSON.
[[nodiscard]] JsonValue to_json(const experiments::ScenarioResult& result);

/// Optimise run document: the evaluation log, the optimum and the full
/// best-run result (cpu fields excluded from golden compares via --ignore).
[[nodiscard]] JsonValue to_json(const experiments::OptimiseResult& result);

/// Ensemble document: replica seeds plus the per-probe and built-in
/// mean/stderr/min/max reductions. The per-replica runs are written as
/// ordinary result/trace files, not embedded here.
[[nodiscard]] JsonValue to_json(const experiments::EnsembleResult& result);

/// Accuracy report document: oracle run summary plus per-kernel error
/// bounds and per-job measurements. Round-trips losslessly (the regression
/// matrix test pins exact numbers through this path).
[[nodiscard]] JsonValue to_json(const experiments::AccuracyReport& report);
[[nodiscard]] experiments::AccuracyReport accuracy_report_from_json(const JsonValue& json);

/// Autotune document: the deterministic search record (no wall-clock
/// fields — same spec, byte-identical JSON). The chosen configuration's
/// best run is written separately via write_result_files.
[[nodiscard]] JsonValue to_json(const experiments::AutotuneResult& result);
[[nodiscard]] experiments::AutotuneResult autotune_result_from_json(const JsonValue& json);

/// "time,Vc[,probe...]" CSV: the decimated supercapacitor trace plus one
/// column per recorded probe, all at full (to_chars) precision.
void write_trace_csv(std::ostream& os, const experiments::ScenarioResult& result);

// ---- small file helpers (CLI, tests) --------------------------------------

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& content);

/// Flatten a job name ("base/param=value" sweep separators and all) into a
/// shell-safe file stem — the naming convention of every result file the CLI
/// and the serve daemon write.
[[nodiscard]] std::string safe_file_stem(const std::string& name);

/// <dir>/<safe_file_stem(name)>: the stem path (no extension) of every file
/// the CLI and the serve daemon write for \p name under \p dir.
[[nodiscard]] std::string file_stem(const std::string& dir, const std::string& name);

/// Write <dir>/<stem>.result.json (pretty-printed, trailing newline) and
/// <dir>/<stem>.trace.csv for one result, creating \p dir as needed; returns
/// the stem path (without extension). One shared writer keeps the one-shot
/// CLI and the serve daemon byte-identical on disk — the serve determinism
/// contract compares exactly these files.
std::string write_result_files(const std::string& dir,
                               const experiments::ScenarioResult& result);

/// Write a request's document as <dir>/<stem>.<kind>.json (pretty-printed,
/// trailing newline; kind is the request type: optimise, ensemble,
/// accuracy, autotune), creating \p dir as needed; returns the stem path
/// (without extension). The one writer of these documents for the CLI and
/// the serve daemon alike.
std::string write_document_file(const std::string& dir, const std::string& name,
                                const std::string& kind, const JsonValue& document);

}  // namespace ehsim::io
