/// \file lockstep_port.hpp
/// \brief LinearisedSolver access port for the lockstep batch kernel.
///
/// The lockstep batch kernel (sim/lockstep_batch.hpp) advances N solvers on
/// one global clock and shares Jacobian assemblies + LU factorisations
/// between members whose linearisation signatures coincide. To do that it
/// must interleave the *phases* of LinearisedSolver::advance_to() across
/// members — evaluate everyone, group by signature, build once per group,
/// back-substitute across the group, then commit one global step — while
/// keeping the per-member arithmetic bit-for-bit identical to a solo
/// advance_to() call. This header decomposes the solver's march into those
/// phases as static wrappers over the private state. Each wrapper documents
/// which lines of linearised_solver.cpp it mirrors; any change there must be
/// reflected here (test_lockstep_batch pins the bit-identity contract).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"

namespace ehsim::core {

struct LinearisedSolver::Lockstep {
  /// advance_to() entry guards.
  static void require_ready(const LinearisedSolver& s, double t_end) {
    if (!s.initialised_) {
      throw SolverError("LinearisedSolver: advance_to before initialise");
    }
    if (!(t_end >= s.t_)) {
      throw SolverError("LinearisedSolver: advance_to would move time backwards");
    }
  }

  static void check_discontinuity(LinearisedSolver& s) { s.check_for_discontinuity(); }
  static void notify(LinearisedSolver& s) { s.notify_observers(); }

  [[nodiscard]] static bool is_fresh(const LinearisedSolver& s) noexcept { return s.fresh_; }
  [[nodiscard]] static double time(const LinearisedSolver& s) noexcept { return s.t_; }

  /// First phase of refresh(): evaluate the residuals at (t, x, y) and
  /// decide signature stability. Mirrors refresh() up to (and including) the
  /// `jacobian_signature_` store. Returns true when the signature is stable
  /// (cached Jacobians certified unchanged).
  static bool eval_and_signature(LinearisedSolver& s) {
    s.system_->eval(s.t_, s.x_.span(), s.y_.span(), s.fx_.span(), s.fy_.span());
    bool signature_stable = false;
    if (s.config_.enable_jacobian_reuse || s.config_.enable_lle_control) {
      const std::uint64_t signature =
          s.system_->jacobian_signature(s.t_, s.x_.span(), s.y_.span());
      signature_stable = s.jacobians_valid_ && signature == s.jacobian_signature_;
      s.jacobian_signature_ = signature;
    }
    return signature_stable;
  }

  /// Rebuild branch of refresh() (the `!reuse_cache` arm).
  static void build_linearisation(LinearisedSolver& s) {
    s.jacobians_valid_ = true;
    s.system_->jacobians(s.t_, s.x_.span(), s.y_.span(), s.jxx_, s.jxy_, s.jyx_, s.jyy_);
    ++s.stats_.jacobian_builds;
    if (s.y_.size() > 0 && !s.jyy_lu_.factor(s.jyy_)) {
      throw SolverError("LinearisedSolver: singular algebraic system (Jyy) at t=" +
                        std::to_string(s.t_));
    }
  }

  /// Reuse branch of refresh() (signature stable, cached Jacobians kept).
  static void note_reuse(LinearisedSolver& s) { ++s.stats_.jacobian_reuses; }

  /// Shared-build adoption: take another member's freshly assembled
  /// linearisation instead of assembling our own. Only valid for members on
  /// the bounded-error path (diverged from any clone leader); counts as a
  /// reuse in the member's own stats — the batch kernel tracks the shared
  /// factorisation separately.
  static void adopt_linearisation(LinearisedSolver& s, const LinearisedSolver& donor) {
    s.jacobians_valid_ = true;
    s.jxx_ = donor.jxx_;
    s.jxy_ = donor.jxy_;
    s.jyx_ = donor.jyx_;
    s.jyy_ = donor.jyy_;
    s.jyy_lu_ = donor.jyy_lu_;
    ++s.stats_.jacobian_reuses;
  }

  /// Pool-entry variant of adopt_linearisation (donor solver no longer at
  /// the pooled point).
  static void adopt_linearisation(LinearisedSolver& s, const linalg::Matrix& jxx,
                                  const linalg::Matrix& jxy, const linalg::Matrix& jyx,
                                  const linalg::Matrix& jyy,
                                  const linalg::LuFactorization& lu) {
    s.jacobians_valid_ = true;
    s.jxx_ = jxx;
    s.jxy_ = jxy;
    s.jyx_ = jyx;
    s.jyy_ = jyy;
    s.jyy_lu_ = lu;
    ++s.stats_.jacobian_reuses;
  }

  /// LLE drift observation + step-controller update. Mirrors refresh()'s
  /// drift block verbatim; call with the stability verdict returned by
  /// eval_and_signature. Honest per member: adopters run their own
  /// lle_.update against the adopted Jacobians.
  static void observe_drift(LinearisedSolver& s, bool signature_stable) {
    if (s.config_.enable_lle_control && s.config_.fixed_step <= 0.0) {
      double drift = 0.0;
      if (!signature_stable) {
        drift = s.lle_.update(s.jxx_, s.jxy_, s.jyx_, s.jyy_);
        s.drift_since_stability_ = std::max(s.drift_since_stability_, drift);
      }
      s.controller_.update(drift / std::max(s.config_.lle_tolerance, 1e-12));
    } else if (!signature_stable) {
      s.drift_since_stability_ =
          std::max(s.drift_since_stability_, s.lle_.update(s.jxx_, s.jxy_, s.jyx_, s.jyy_));
    }
  }

  /// Right-hand side for the algebraic elimination (Eq. 4); the batch kernel
  /// gathers -fy of every group member into one SoA block for the shared
  /// multi-RHS back-substitution.
  [[nodiscard]] static std::span<const double> algebraic_residual(
      const LinearisedSolver& s) noexcept {
    return s.fy_.span();
  }
  [[nodiscard]] static const linalg::LuFactorization& jyy_lu(
      const LinearisedSolver& s) noexcept {
    return s.jyy_lu_;
  }

  /// Tail of refresh() after the terminal update \p dy has been solved
  /// (grouped or solo): apply it, record the derivative sample, push the
  /// multistep history. Mirrors refresh() from `++stats_.algebraic_solves`.
  static void finish_eliminate(LinearisedSolver& s, std::span<const double> dy) {
    if (s.y_.size() > 0) {
      ++s.stats_.algebraic_solves;
      std::copy(dy.begin(), dy.end(), s.dy_.span().begin());
      s.y_.axpy(1.0, s.dy_);
    }
    for (std::size_t i = 0; i < s.f_step_.size(); ++i) {
      s.f_step_[i] = s.fx_[i];
    }
    if (s.y_.size() > 0) {
      s.jxy_.matvec_acc(1.0, s.dy_.span(), s.f_step_.span());
    }
    if (s.t_ > s.last_history_time_) {
      s.history_.push(s.t_, s.f_step_.span());
      s.last_history_time_ = s.t_;
    }
    s.fresh_ = true;
  }

  /// Solo elimination: solve this member's own Jyy system. Exactly the
  /// refresh() tail (solve_multi_inplace with k = 1 rounds identically to
  /// solve_inplace).
  static void eliminate_solo(LinearisedSolver& s) {
    if (s.y_.size() > 0) {
      ++s.stats_.algebraic_solves;
      for (std::size_t i = 0; i < s.dy_.size(); ++i) {
        s.dy_[i] = -s.fy_[i];
      }
      s.jyy_lu_.solve_inplace(s.dy_.span());
      s.y_.axpy(1.0, s.dy_);
    }
    for (std::size_t i = 0; i < s.f_step_.size(); ++i) {
      s.f_step_[i] = s.fx_[i];
    }
    if (s.y_.size() > 0) {
      s.jxy_.matvec_acc(1.0, s.dy_.span(), s.f_step_.span());
    }
    if (s.t_ > s.last_history_time_) {
      s.history_.push(s.t_, s.f_step_.span());
      s.last_history_time_ = s.t_;
    }
    s.fresh_ = true;
  }

  /// Stability-recompute trigger; mirrors the condition in advance_to().
  [[nodiscard]] static bool stability_check_due(const LinearisedSolver& s) noexcept {
    return s.stability_due_ || s.steps_since_stability_ >= s.config_.stability_check_interval ||
           s.drift_since_stability_ > s.config_.stability_drift_threshold;
  }
  static void recompute_stability(LinearisedSolver& s) { s.recompute_stability_cap(); }

  /// Adopt a donor's freshly recomputed stability cap (bounded-error path;
  /// the donor shares this member's linearisation signature so the eliminated
  /// systems agree to the signature quantum). Mirrors the tail of
  /// recompute_stability_cap().
  static void adopt_stability(LinearisedSolver& s, const LinearisedSolver& donor) {
    s.a_eliminated_ = donor.a_eliminated_;
    s.h_stability_ = donor.h_stability_;
    ++s.stats_.stability_recomputes;
    s.steps_since_stability_ = 0;
    s.drift_since_stability_ = 0.0;
    s.stability_due_ = false;
  }

  /// The step advance_to() would take with \p remaining time to the horizon,
  /// before the sliver snap and the h_min floor (both belong to the batch
  /// kernel's global step agreement). Mirrors the h selection verbatim.
  [[nodiscard]] static double propose_step(const LinearisedSolver& s, double remaining) {
    double h;
    if (s.config_.fixed_step > 0.0) {
      h = std::min(s.config_.fixed_step, remaining);
    } else if (s.config_.enable_lle_control) {
      h = std::min({s.controller_.suggested_step(), s.config_.h_max, remaining});
    } else {
      h = std::min(s.config_.h_max, remaining);
    }
    return std::min(h, s.h_stability_);
  }

  /// Sliver snap: jump straight to \p t_end without a step (remaining below
  /// h_min). Mirrors the snap branch of advance_to().
  static void snap_sliver(LinearisedSolver& s, double t_end) {
    s.t_ = t_end;
    s.fresh_ = false;
  }

  /// Commit one explicit AB step of size \p h. Mirrors the march tail of
  /// advance_to() including the divergence guard.
  static void commit_step(LinearisedSolver& s, double h) {
    s.history_.step(s.t_ + h, s.x_.span());
    s.t_ += h;
    s.fresh_ = false;

    ++s.stats_.steps;
    ++s.steps_since_stability_;
    s.stats_.last_step = h;
    s.stats_.min_step = s.stats_.min_step == 0.0 ? h : std::min(s.stats_.min_step, h);
    s.stats_.max_step = std::max(s.stats_.max_step, h);

    for (double value : s.x_.span()) {
      if (!std::isfinite(value)) {
        throw SolverError("LinearisedSolver: state diverged (non-finite) at t=" +
                          std::to_string(s.t_) +
                          " — check the Eq. 7 stability cap configuration");
      }
    }
  }

  /// Clone-follower synchronisation: copy the leader's post-refresh state
  /// into a member whose spec is identical up to its divergence time. The
  /// follower then pushes its own history sample and commits its own AB step
  /// — identical arithmetic on identical data, so the follower's trajectory
  /// is bit-for-bit the per-job one while the clone relation holds. The
  /// heavy objects (Jacobians, LU, LLE monitor) only mutate on rebuild
  /// steps, so they are copied only then.
  static void sync_follower(LinearisedSolver& follower, const LinearisedSolver& leader,
                            bool leader_rebuilt) {
    follower.t_ = leader.t_;
    follower.x_ = leader.x_;
    follower.y_ = leader.y_;
    follower.fx_ = leader.fx_;
    follower.fy_ = leader.fy_;
    follower.dy_ = leader.dy_;
    follower.f_step_ = leader.f_step_;
    follower.controller_ = leader.controller_;
    follower.stats_ = leader.stats_;
    follower.jacobian_signature_ = leader.jacobian_signature_;
    follower.jacobians_valid_ = leader.jacobians_valid_;
    follower.h_stability_ = leader.h_stability_;
    follower.stability_due_ = leader.stability_due_;
    follower.steps_since_stability_ = leader.steps_since_stability_;
    follower.drift_since_stability_ = leader.drift_since_stability_;
    // last_epoch_ is NOT copied: epoch counters belong to each member's own
    // assembler and the follower's check_for_discontinuity manages its own.
    if (leader_rebuilt) {
      follower.jxx_ = leader.jxx_;
      follower.jxy_ = leader.jxy_;
      follower.jyx_ = leader.jyx_;
      follower.jyy_ = leader.jyy_;
      follower.jyy_lu_ = leader.jyy_lu_;
      follower.lle_ = leader.lle_;
    }
    if (leader.t_ > follower.last_history_time_) {
      follower.history_.push(leader.t_, follower.f_step_.span());
      follower.last_history_time_ = leader.t_;
    }
    follower.fresh_ = true;
  }

  /// Copy the leader's stability-recompute artefacts to a follower (the
  /// recompute happens between refresh and the step proposal).
  static void sync_follower_stability(LinearisedSolver& follower,
                                      const LinearisedSolver& leader) {
    follower.a_eliminated_ = leader.a_eliminated_;
    follower.h_stability_ = leader.h_stability_;
    follower.stats_.stability_recomputes = leader.stats_.stability_recomputes;
    follower.steps_since_stability_ = leader.steps_since_stability_;
    follower.drift_since_stability_ = leader.drift_since_stability_;
    follower.stability_due_ = leader.stability_due_;
  }

  // ---- raw linearisation access (cross-time pool, grouping) ------------

  [[nodiscard]] static const linalg::Matrix& jxx(const LinearisedSolver& s) noexcept {
    return s.jxx_;
  }
  [[nodiscard]] static const linalg::Matrix& jxy(const LinearisedSolver& s) noexcept {
    return s.jxy_;
  }
  [[nodiscard]] static const linalg::Matrix& jyx(const LinearisedSolver& s) noexcept {
    return s.jyx_;
  }
  [[nodiscard]] static const linalg::Matrix& jyy(const LinearisedSolver& s) noexcept {
    return s.jyy_;
  }
  [[nodiscard]] static std::uint64_t signature(const LinearisedSolver& s) noexcept {
    return s.jacobian_signature_;
  }
};

}  // namespace ehsim::core
