#include "sim/lockstep_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/lockstep_port.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"

namespace ehsim::sim {

namespace {

using Port = core::LinearisedSolver::Lockstep;

constexpr double kInf = std::numeric_limits<double>::infinity();
// Cross-time linearisation pool cap; small enough that the linear lookup is
// cheap, large enough to hold the diode-band combinations a batch cycles
// through in steady state.
constexpr std::size_t kPoolCapacity = 64;

/// Cacheable signatures carry the assembler's FNV marker bit; uncacheable
/// ones are unique per refresh (and per assembler!) so they must never be
/// matched across members.
[[nodiscard]] bool signature_shareable(std::uint64_t signature) {
  return (signature >> 63) != 0;
}

}  // namespace

/// Cross-time cache of one assembled + factorised linearisation.
struct LockstepBatch::PoolEntry {
  std::uint64_t signature = 0;
  linalg::Matrix jxx, jxy, jyx, jyy;
  linalg::LuFactorization lu;
};

LockstepBatch::LockstepBatch(std::vector<LockstepMember> members, LockstepOptions options)
    : members_(std::move(members)), options_(options) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const LockstepMember& m = members_[i];
    if (m.solver == nullptr) {
      throw ModelError("LockstepBatch: member has no solver");
    }
    if (m.solver->config() != members_.front().solver->config()) {
      // One global step is agreed every iteration; members marching under
      // different step policies could not reproduce their per-job selves.
      throw ModelError("LockstepBatch: members must share one SolverConfig");
    }
    if (m.clone_leader != LockstepMember::kNoLeader) {
      if (m.clone_leader >= i) {
        throw ModelError("LockstepBatch: clone leader must precede its follower");
      }
      const LockstepMember& leader = members_[m.clone_leader];
      if (leader.clone_leader != LockstepMember::kNoLeader) {
        throw ModelError("LockstepBatch: clone sets must be flat (leader has a leader)");
      }
    }
  }
}

LockstepBatch::~LockstepBatch() = default;

void LockstepBatch::run() {
  if (members_.empty()) {
    return;
  }
  for (const LockstepMember& m : members_) {
    Port::require_ready(*m.solver, m.t_end);
  }
  clock_ = Port::time(*members_.front().solver);
  for (const LockstepMember& m : members_) {
    if (Port::time(*m.solver) != clock_) {
      throw ModelError("LockstepBatch: members must start at one common time");
    }
  }

  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    live.push_back(i);
  }

  while (!live.empty()) {
    // Barrier: the earliest digital event or member horizon. Mirrors the
    // per-job MixedSignalSimulator target selection, except the minimum runs
    // over the whole batch; running a member's kernel at a foreign barrier
    // merely advances its now() without executing anything.
    double target = kInf;
    for (std::size_t i : live) {
      const LockstepMember& m = members_[i];
      double member_target = m.t_end;
      if (m.kernel != nullptr) {
        if (const auto next = m.kernel->next_event_time()) {
          member_target = std::min(member_target, *next);
        }
      }
      target = std::min(target, member_target);
    }
    if (target > clock_) {
      advance_to_barrier(live, target);
    }
    for (std::size_t i : live) {
      if (members_[i].kernel != nullptr) {
        members_[i].kernel->run_until(target);
      }
    }
    std::erase_if(live, [&](std::size_t i) { return target >= members_[i].t_end; });
  }
}

void LockstepBatch::advance_to_barrier(std::vector<std::size_t>& live, double target) {
  const core::SolverConfig& config = members_.front().solver->config();
  std::vector<char> rebuilt(members_.size(), 0);

  while (true) {
    for (std::size_t i : live) {
      Port::check_discontinuity(*members_[i].solver);
    }
    refresh_all(live, rebuilt);
    for (std::size_t i : live) {
      Port::notify(*members_[i].solver);
    }
    const double remaining = target - clock_;
    if (remaining <= 0.0) {
      break;
    }
    if (options_.use_expm && try_expm_stretch(live, target)) {
      continue;
    }
    stability_all(live);

    double h = kInf;
    for (std::size_t i : live) {
      h = std::min(h, Port::propose_step(*members_[i].solver, remaining));
    }
    if (remaining <= config.h_min) {
      for (std::size_t i : live) {
        Port::snap_sliver(*members_[i].solver, target);
      }
      clock_ = target;
      continue;
    }
    h = std::max(h, config.h_min);
    for (std::size_t i : live) {
      Port::commit_step(*members_[i].solver, h);
    }
    // Read the new clock from a *live* member: a finished member's solver
    // stops advancing once it leaves the live set, so members_.front() may
    // be frozen at its own horizon while the rest march on.
    clock_ = Port::time(*members_[live.front()].solver);
  }
}

/// One shared linearisation of the current step.
struct LockstepBatch::StepBuild {
  std::uint64_t signature = 0;
  std::vector<std::size_t> group;  // builder first, then adopters
};

/// A stability cap recomputed in the current step.
struct LockstepBatch::StepCap {
  std::uint64_t signature = 0;
  std::size_t owner = 0;
};

void LockstepBatch::refresh_all(const std::vector<std::size_t>& live,
                                std::vector<char>& rebuilt) {
  // One shared linearisation per signature per step; the first member to
  // need it builds (or pulls it from the cross-time pool), later members
  // adopt and join its elimination group. The scratch below keeps its
  // capacity across steps, so a step does not allocate.
  std::size_t build_count = 0;
  const auto open_build = [&](std::uint64_t signature, std::size_t builder) {
    if (build_count == builds_.size()) {
      builds_.emplace_back();
    }
    StepBuild& build = builds_[build_count++];
    build.signature = signature;
    build.group.assign(1, builder);
  };
  eliminated_.assign(members_.size(), 0);
  leader_consumed_.assign(members_.size(), 0);
  followers_.clear();

  for (std::size_t i : live) {
    LockstepMember& m = members_[i];
    core::LinearisedSolver& s = *m.solver;
    rebuilt[i] = 0;
    if (Port::is_fresh(s)) {
      eliminated_[i] = 1;
      continue;
    }
    if (m.clone_leader != LockstepMember::kNoLeader && clock_ < m.diverges_at) {
      // Clone following: the leader holds exactly this member's refreshed
      // state. The copy must wait until the leader's (possibly deferred)
      // elimination has completed, so followers sync in a dedicated pass
      // after the elimination below.
      followers_.push_back(i);
      eliminated_[i] = 1;
      continue;
    }

    const bool stable = Port::eval_and_signature(s);
    const core::SolverConfig& config = s.config();
    if (config.enable_jacobian_reuse && stable) {
      Port::note_reuse(s);
      Port::observe_drift(s, true);
      continue;  // eliminates solo below, with its own cached LU
    }

    const std::uint64_t signature = Port::signature(s);
    const bool may_adopt =
        clock_ >= m.share_after && signature_shareable(signature) && !stable;
    bool adopted = false;
    if (may_adopt) {
      for (StepBuild& build : std::span(builds_).first(build_count)) {
        if (build.signature == signature) {
          Port::adopt_linearisation(s, *members_[build.group.front()].solver);
          build.group.push_back(i);
          ++counters_.shared_factorisations;
          adopted = true;
          break;
        }
      }
      if (!adopted) {
        for (const PoolEntry& entry : pool_) {
          if (entry.signature == signature) {
            Port::adopt_linearisation(s, entry.jxx, entry.jxy, entry.jyx, entry.jyy,
                                      entry.lu);
            ++counters_.shared_factorisations;
            adopted = true;
            break;
          }
        }
        if (adopted) {
          // This member now carries the pooled linearisation; later members
          // this step adopt from it directly.
          open_build(signature, i);
        }
      }
    }
    if (!adopted) {
      Port::build_linearisation(s);
      if (signature_shareable(signature)) {
        open_build(signature, i);
        PoolEntry* slot = nullptr;
        for (PoolEntry& entry : pool_) {
          if (entry.signature == signature) {
            slot = &entry;
            break;
          }
        }
        if (slot == nullptr) {
          if (pool_.size() < kPoolCapacity) {
            slot = &pool_.emplace_back();
          } else {
            slot = &pool_[pool_cursor_ % pool_.size()];
            ++pool_cursor_;
          }
        }
        slot->signature = signature;
        slot->jxx = Port::jxx(s);
        slot->jxy = Port::jxy(s);
        slot->jyx = Port::jyx(s);
        slot->jyy = Port::jyy(s);
        slot->lu = Port::jyy_lu(s);
      }
    }
    rebuilt[i] = 1;
    // The drift observation follows the *signature* verdict, not the rebuild
    // decision: with reuse disabled (ablation A6) a signature-stable refresh
    // still rebuilds, but must observe zero drift exactly like the per-job
    // refresh() does, or the LLE/controller sequence deviates.
    Port::observe_drift(s, stable);
  }

  // Elimination. Groups back-substitute through one SoA multi-RHS solve —
  // per-member rounding identical to a solo solve — everyone else solves
  // against their own cached factorisation.
  for (const StepBuild& build : std::span(builds_).first(build_count)) {
    if (build.group.size() < 2) {
      continue;
    }
    ++counters_.lockstep_groups;
    const std::size_t k = build.group.size();
    const std::size_t alg = Port::algebraic_residual(*members_[build.group.front()].solver).size();
    if (alg > 0) {
      block_.resize(alg * k);
      for (std::size_t j = 0; j < k; ++j) {
        const auto fy = Port::algebraic_residual(*members_[build.group[j]].solver);
        for (std::size_t r = 0; r < alg; ++r) {
          block_[r * k + j] = -fy[r];
        }
      }
      Port::jyy_lu(*members_[build.group.front()].solver)
          .solve_multi_inplace(std::span<double>(block_), k);
    }
    dy_.resize(alg);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < alg; ++r) {
        dy_[r] = block_[r * k + j];
      }
      Port::finish_eliminate(*members_[build.group[j]].solver, std::span<const double>(dy_));
      eliminated_[build.group[j]] = 1;
    }
  }
  for (std::size_t i : live) {
    if (!eliminated_[i]) {
      Port::eliminate_solo(*members_[i].solver);
    }
  }

  // Clone followers copy their (now fully refreshed) leader. Bit-identical
  // by construction: the leader marched exactly as its per-job self, and the
  // follower replays identical arithmetic on the copied data.
  for (std::size_t i : followers_) {
    const LockstepMember& m = members_[i];
    Port::sync_follower(*m.solver, *members_[m.clone_leader].solver,
                        rebuilt[m.clone_leader] != 0);
    rebuilt[i] = rebuilt[m.clone_leader];
    leader_consumed_[m.clone_leader] = 1;
    ++counters_.shared_factorisations;
  }

  for (std::size_t i : live) {
    if (leader_consumed_[i]) {
      ++counters_.lockstep_groups;
    }
  }
}

void LockstepBatch::stability_all(const std::vector<std::size_t>& live) {
  // Step-local registry of freshly recomputed stability caps, keyed like the
  // linearisation groups; recomputes after a batch-wide discontinuity all
  // land on the same step, which is exactly when sharing pays.
  caps_.clear();
  recomputed_.assign(members_.size(), 0);

  for (std::size_t i : live) {
    LockstepMember& m = members_[i];
    core::LinearisedSolver& s = *m.solver;
    if (m.clone_leader != LockstepMember::kNoLeader && clock_ < m.diverges_at) {
      // The follower's trigger fields were synced from the leader, so its
      // verdict matches the leader's; copy the recomputed cap when there is
      // one.
      if (recomputed_[m.clone_leader]) {
        Port::sync_follower_stability(s, *members_[m.clone_leader].solver);
      }
      continue;
    }
    if (!Port::stability_check_due(s)) {
      continue;
    }
    const std::uint64_t signature = Port::signature(s);
    if (clock_ >= m.share_after && signature_shareable(signature)) {
      bool adopted = false;
      for (const StepCap& cap : caps_) {
        if (cap.signature == signature) {
          Port::adopt_stability(s, *members_[cap.owner].solver);
          adopted = true;
          break;
        }
      }
      if (adopted) {
        continue;
      }
    }
    Port::recompute_stability(s);
    recomputed_[i] = 1;
    if (signature_shareable(signature)) {
      caps_.push_back(StepCap{signature, i});
    }
  }
}

/// Exact-propagation operators for one (linearisation, excitation segment,
/// substep) cell: within the cell the eliminated system is
/// x' = A x + g0 + gs sin(wt) + gc cos(wt) with the consistent terminals
/// recovered as y = W x + q0 + qs sin(wt) + qc cos(wt); the augmented state
/// z = [x, sin(wt), cos(wt), 1] makes that autonomous, so one matrix
/// exponential P = exp(M h) advances a whole substep.
struct LockstepBatch::ExpmCell {
  std::uint64_t signature = 0;
  std::uint64_t omega_bits = 0;
  std::uint64_t amp_bits = 0;
  std::uint64_t phase_bits = 0;
  std::uint64_t seg_start_bits = 0;
  std::uint64_t h_sub_bits = 0;
  double omega = 0.0;
  linalg::Matrix propagator;      // P, (n+3) x (n+3)
  linalg::Matrix w;               // terminal recovery, m x n
  linalg::Vector q0, qs, qc;      // terminal recovery offsets, m
};

bool LockstepBatch::try_expm_stretch(const std::vector<std::size_t>& live, double target) {
  const core::SolverConfig& config = members_.front().solver->config();
  if (!(config.enable_jacobian_reuse || config.enable_lle_control)) {
    return false;  // no signature machinery — segment exits would go unseen
  }
  if (clock_ < expm_backoff_until_) {
    return false;
  }
  const double h_sub = options_.expm_substep > 0.0 ? options_.expm_substep : config.h_max;
  if (!(h_sub > 0.0)) {
    return false;
  }

  double stretch_end = target;
  for (std::size_t i : live) {
    const LockstepMember& m = members_[i];
    if (m.profile == nullptr || !Port::jacobians_valid(*m.solver) ||
        !signature_shareable(Port::signature(*m.solver))) {
      return false;
    }
    const auto seg = m.profile->segment_info(clock_);
    if (seg.slope_hz_per_s != 0.0 || !(seg.frequency_hz > 0.0)) {
      return false;  // chirp segments are not a pure sinusoid
    }
    stretch_end = std::min(stretch_end, seg.end_time);
  }
  if (!(stretch_end > clock_)) {
    return false;
  }
  const auto max_substeps = static_cast<std::size_t>((stretch_end - clock_) / h_sub);
  if (max_substeps < options_.min_expm_substeps) {
    return false;
  }

  struct MemberRun {
    std::size_t member;
    std::size_t cell_index;
    std::uint64_t frozen_signature;
    std::vector<double> z, scratch, x_new, y_new;
  };
  std::vector<MemberRun> runs;
  runs.reserve(live.size());
  // The cache is capacity-reserved so cell indices stay valid while this
  // stretch is being assembled; at capacity, slots not used by this stretch
  // are recycled round-robin.
  constexpr std::size_t kExpmCacheCapacity = 128;
  expm_cache_.reserve(kExpmCacheCapacity);
  std::vector<std::size_t> cells_this_stretch;
  const std::uint64_t h_sub_bits = std::bit_cast<std::uint64_t>(h_sub);
  for (std::size_t i : live) {
    const LockstepMember& m = members_[i];
    core::LinearisedSolver& s = *m.solver;
    const auto seg = m.profile->segment_info(clock_);
    const double omega = 2.0 * std::numbers::pi * seg.frequency_hz;
    const std::uint64_t signature = Port::signature(s);
    const std::uint64_t omega_bits = std::bit_cast<std::uint64_t>(omega);
    const std::uint64_t amp_bits = std::bit_cast<std::uint64_t>(seg.amplitude);
    const std::uint64_t phase_bits = std::bit_cast<std::uint64_t>(seg.phase_at_start);
    const std::uint64_t seg_start_bits = std::bit_cast<std::uint64_t>(seg.start_time);

    std::size_t cell_index = expm_cache_.size();
    for (std::size_t ci = 0; ci < expm_cache_.size(); ++ci) {
      const ExpmCell& candidate = expm_cache_[ci];
      if (candidate.signature == signature &&
          candidate.omega_bits == omega_bits && candidate.amp_bits == amp_bits &&
          candidate.phase_bits == phase_bits && candidate.seg_start_bits == seg_start_bits &&
          candidate.h_sub_bits == h_sub_bits) {
        cell_index = ci;
        break;
      }
    }
    if (cell_index == expm_cache_.size()) {
      // Slots already backing this stretch are pinned (MemberRuns hold their
      // indices). A batch with more distinct cells than capacity can pin
      // every slot — decline the stretch up front, before paying for the
      // cell build, and fall back to time-stepping rather than spin hunting
      // for a free slot.
      std::vector<char> pinned;
      if (expm_cache_.size() >= kExpmCacheCapacity) {
        pinned.assign(kExpmCacheCapacity, 0);
        for (std::size_t used : cells_this_stretch) {
          pinned[used] = 1;
        }
        if (std::find(pinned.begin(), pinned.end(), char{0}) == pinned.end()) {
          return false;
        }
      }
      const std::size_t n = s.state().size();
      const std::size_t alg = s.terminals().size();

      // Eliminated system A = Jxx - Jxy Jyy^-1 Jyx and the terminal
      // recovery W = -Jyy^-1 Jyx on the frozen linearisation.
      linalg::Matrix z_elim;
      linalg::Matrix a = Port::jxx(s);
      linalg::Matrix w;
      if (alg > 0) {
        Port::jyy_lu(s).solve_matrix(Port::jyx(s), z_elim);
        const linalg::Matrix& jxy = Port::jxy(s);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t k = 0; k < alg; ++k) {
            const double jxy_rk = jxy(r, k);
            if (jxy_rk == 0.0) {
              continue;
            }
            for (std::size_t c = 0; c < n; ++c) {
              a(r, c) -= jxy_rk * z_elim(k, c);
            }
          }
        }
        w = z_elim;
        w.scale(-1.0);
      }

      // Forcing fit: evaluate the frozen-linearisation residuals at three
      // quadrature-spaced times with the state held fixed; the affine
      // remainder e(t) = f_lin(t, x0, y0) - A x0 (and the terminal offset
      // q(t)) is exactly b0 + bs sin(wt) + bc cos(wt) within the segment.
      const double period = 1.0 / seg.frequency_hz;
      const double delta = std::min(period / 4.0, (stretch_end - clock_) / 2.0);
      if (!(delta > 0.0)) {
        return false;
      }
      const auto x0 = s.state();
      const auto y0 = s.terminals();
      linalg::Vector ax(n);
      a.matvec(x0, ax.span());
      linalg::Vector wx(alg);
      if (alg > 0) {
        w.matvec(x0, wx.span());
      }
      linalg::Vector fx(n), fy(alg), dys(alg);
      linalg::Vector e[3], q[3];
      double tau[3];
      for (int k = 0; k < 3; ++k) {
        tau[k] = clock_ + static_cast<double>(k) * delta;
        Port::assembler(s).eval(tau[k], x0, y0, fx.span(), fy.span());
        if (alg > 0) {
          for (std::size_t r = 0; r < alg; ++r) {
            dys[r] = -fy[r];
          }
          Port::jyy_lu(s).solve_inplace(dys.span());
        }
        e[k] = fx;
        if (alg > 0) {
          Port::jxy(s).matvec_acc(1.0, dys.span(), e[k].span());
        }
        e[k].axpy(-1.0, ax);
        q[k].resize(alg);
        for (std::size_t r = 0; r < alg; ++r) {
          q[k][r] = y0[r] + dys[r] - wx[r];
        }
      }
      linalg::Matrix vandermonde(3, 3);
      for (int k = 0; k < 3; ++k) {
        vandermonde(k, 0) = 1.0;
        vandermonde(k, 1) = std::sin(omega * tau[k]);
        vandermonde(k, 2) = std::cos(omega * tau[k]);
      }
      linalg::LuFactorization fit(vandermonde);
      if (!fit.ok()) {
        return false;
      }
      linalg::Vector g0(n), gs(n), gc(n);
      double rhs[3];
      for (std::size_t c = 0; c < n; ++c) {
        rhs[0] = e[0][c];
        rhs[1] = e[1][c];
        rhs[2] = e[2][c];
        fit.solve_inplace(std::span<double>(rhs));
        g0[c] = rhs[0];
        gs[c] = rhs[1];
        gc[c] = rhs[2];
      }
      ExpmCell fresh;
      fresh.q0.resize(alg);
      fresh.qs.resize(alg);
      fresh.qc.resize(alg);
      for (std::size_t c = 0; c < alg; ++c) {
        rhs[0] = q[0][c];
        rhs[1] = q[1][c];
        rhs[2] = q[2][c];
        fit.solve_inplace(std::span<double>(rhs));
        fresh.q0[c] = rhs[0];
        fresh.qs[c] = rhs[1];
        fresh.qc[c] = rhs[2];
      }

      linalg::Matrix m_aug(n + 3, n + 3);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          m_aug(r, c) = a(r, c);
        }
        m_aug(r, n) = gs[r];
        m_aug(r, n + 1) = gc[r];
        m_aug(r, n + 2) = g0[r];
      }
      m_aug(n, n + 1) = omega;
      m_aug(n + 1, n) = -omega;
      m_aug.scale(h_sub);

      fresh.signature = signature;
      fresh.omega_bits = omega_bits;
      fresh.amp_bits = amp_bits;
      fresh.phase_bits = phase_bits;
      fresh.seg_start_bits = seg_start_bits;
      fresh.h_sub_bits = h_sub_bits;
      fresh.omega = omega;
      fresh.propagator = linalg::expm(m_aug);
      fresh.w = std::move(w);
      if (expm_cache_.size() < kExpmCacheCapacity) {
        cell_index = expm_cache_.size();
        expm_cache_.push_back(std::move(fresh));
      } else {
        // The guard above proved at least one unpinned slot exists, so this
        // round-robin scan terminates.
        do {
          cell_index = expm_cursor_ % kExpmCacheCapacity;
          ++expm_cursor_;
        } while (pinned[cell_index] != 0);
        expm_cache_[cell_index] = std::move(fresh);
      }
    }
    cells_this_stretch.push_back(cell_index);

    MemberRun run;
    run.member = i;
    run.cell_index = cell_index;
    run.frozen_signature = signature;
    const ExpmCell& cell = expm_cache_[cell_index];
    const auto x0 = s.state();
    const std::size_t n = x0.size();
    run.z.resize(n + 3);
    std::copy(x0.begin(), x0.end(), run.z.begin());
    run.z[n] = std::sin(cell.omega * clock_);
    run.z[n + 1] = std::cos(cell.omega * clock_);
    run.z[n + 2] = 1.0;
    run.scratch.resize(n + 3);
    run.x_new.resize(n);
    run.y_new.resize(s.terminals().size());
    runs.push_back(std::move(run));
  }

  // The stretch: all members take identical exact substeps until the span
  // runs out or any member's linearisation signature moves (the cut lands
  // within one substep of the true crossing — the documented slop).
  const double t0 = clock_;
  std::size_t taken = 0;
  bool flipped = false;
  while (taken < max_substeps && !flipped) {
    const double t_new = t0 + static_cast<double>(taken + 1) * h_sub;
    for (MemberRun& run : runs) {
      core::LinearisedSolver& s = *members_[run.member].solver;
      const ExpmCell& cell = expm_cache_[run.cell_index];
      const std::size_t n = run.x_new.size();
      const std::size_t alg = run.y_new.size();
      cell.propagator.matvec(std::span<const double>(run.z), std::span<double>(run.scratch));
      run.z.swap(run.scratch);
      // Pin the oscillator coordinates to the exact sinusoid — no phase
      // drift accumulates across thousands of substeps.
      run.z[n] = std::sin(cell.omega * t_new);
      run.z[n + 1] = std::cos(cell.omega * t_new);
      run.z[n + 2] = 1.0;
      std::copy(run.z.begin(), run.z.begin() + static_cast<std::ptrdiff_t>(n),
                run.x_new.begin());
      if (alg > 0) {
        cell.w.matvec(std::span<const double>(run.x_new), std::span<double>(run.y_new));
        for (std::size_t r = 0; r < alg; ++r) {
          run.y_new[r] +=
              cell.q0[r] + cell.qs[r] * run.z[n] + cell.qc[r] * run.z[n + 1];
        }
      }
      Port::set_point(s, t_new, std::span<const double>(run.x_new),
                      std::span<const double>(run.y_new));
      Port::notify(s);
    }
    ++taken;
    clock_ = t_new;
    for (const MemberRun& run : runs) {
      if (Port::probe_signature(*members_[run.member].solver) != run.frozen_signature) {
        flipped = true;
        break;
      }
    }
  }

  for (const MemberRun& run : runs) {
    Port::restart_multistep(*members_[run.member].solver);
    ++counters_.expm_segments;
  }
  if (flipped && taken < options_.min_expm_substeps) {
    expm_backoff_until_ = clock_ + 4.0 * static_cast<double>(options_.min_expm_substeps) * h_sub;
  }
  return true;
}

}  // namespace ehsim::sim
