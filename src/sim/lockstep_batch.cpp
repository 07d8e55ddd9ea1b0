#include "sim/lockstep_batch.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/lockstep_port.hpp"
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

LockstepBatch::LockstepBatch(std::vector<LockstepMember> members)
    : members_(std::move(members)) {
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

}  // namespace ehsim::sim
