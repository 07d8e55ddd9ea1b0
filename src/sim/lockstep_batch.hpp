/// \file lockstep_batch.hpp
/// \brief Lockstep SoA batch kernel: one clock, shared linearisations.
///
/// A parameter sweep runs N nearly-identical ~11-state harvester models.
/// The per-job path re-derives the same Jacobian assembly and Jyy LU
/// factorisation in every job; within one run the solver already skips ~half
/// of the rebuilds through its linearisation signatures, but across jobs all
/// of that work is repeated N times. This kernel advances a batch of members
/// with bitwise-identical device parameters (one parameter class) in
/// lockstep on a single clock instead:
///
///  * members are grouped at every step by their linearisation signature
///    (core/lockstep_port.hpp exposes the LinearisedSolver machinery); one
///    member of each group assembles + factorises, the rest adopt, and the
///    terminal elimination back-substitutes across the whole group through
///    one structure-of-arrays multi-RHS solve
///    (linalg::LuFactorization::solve_multi_inplace);
///  * members whose spec is identical up to a known divergence time (sweep
///    points sharing the pre-event prefix) follow a clone leader outright:
///    the leader marches exactly as the per-job path would and followers
///    copy its refresh, so a batch of pure duplicates is bit-for-bit the
///    per-job result. Followers peel off at their divergence time and
///    re-merge into signature groups whenever signatures coincide again.
///
/// Sharing is only engaged for a member once the global clock passes its
/// `share_after` horizon, which the caller sets so that batches whose
/// members are identical (or identical up to that horizon) reproduce the
/// per-job trajectories bit-for-bit; after the horizon results stay within
/// the documented io::compare tolerances of the serial reference (the
/// adopted Jacobians agree with a private rebuild only to the signature
/// quantum). docs/spec_format.md "Batch kernel" states the contract.
///
/// A LockstepBatch touches nothing outside its own members, so batches over
/// disjoint members may run concurrently. experiments::run_scenario_batch
/// splits a multi-class job list into one batch per parameter class and
/// marches those batches concurrently on the sweep thread pool; the split
/// depends only on the job list, so results do not depend on the thread
/// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/linearised_solver.hpp"
#include "digital/kernel.hpp"

namespace ehsim::sim {

/// One sweep point in the lockstep march. The caller owns every pointee and
/// keeps it alive across run().
struct LockstepMember {
  static constexpr std::size_t kNoLeader = std::numeric_limits<std::size_t>::max();

  core::LinearisedSolver* solver = nullptr;  ///< initialised engine (required)
  digital::Kernel* kernel = nullptr;         ///< digital side; may be null
  double t_end = 0.0;                        ///< member horizon [s]
  /// Clock time after which this member may adopt shared linearisations
  /// (bounded-error). 0: immediately; +inf: never (stays exact).
  double share_after = 0.0;
  /// Index of this member's clone leader (must be < this member's index), or
  /// kNoLeader. While the clock is below diverges_at the member copies the
  /// leader's refresh instead of evaluating — valid only when both specs are
  /// identical on that prefix.
  std::size_t clone_leader = kNoLeader;
  double diverges_at = 0.0;  ///< clone relation holds for t < diverges_at
};

/// Work-sharing counters surfaced through BatchStats / result JSON.
struct LockstepCounters {
  /// Shared linearisation groups materialised: refreshes (one per step per
  /// group) whose assembly + factorisation was consumed by at least one
  /// other member in the same step.
  std::uint64_t lockstep_groups = 0;
  /// Member-refreshes served without their own Jacobian assembly +
  /// factorisation: clone-follower syncs plus signature-group/pool adoptions.
  std::uint64_t shared_factorisations = 0;
};

/// Advances every member to its t_end on one global clock; see file header.
/// Members share linearisations, so they must have bitwise-identical device
/// parameters.
class LockstepBatch {
 public:
  /// Validates the batch: non-null initialised solvers, a common
  /// SolverConfig, clone leaders preceding their followers. Throws
  /// ModelError on violations.
  explicit LockstepBatch(std::vector<LockstepMember> members);
  // Out of line: the cache entry types are incomplete here.
  ~LockstepBatch();

  /// Run the lockstep march to completion. Propagates SolverError from any
  /// member (the whole batch stops, like a failing job stops its sweep).
  void run();

  [[nodiscard]] const LockstepCounters& counters() const noexcept { return counters_; }

 private:
  struct PoolEntry;  // cross-time linearisation cache (lockstep_batch.cpp)
  struct StepBuild;  // per-step linearisation group (lockstep_batch.cpp)
  struct StepCap;    // per-step recomputed stability cap (lockstep_batch.cpp)

  /// March every live member to the barrier time \p target.
  void advance_to_barrier(std::vector<std::size_t>& live, double target);
  /// Refresh phase across \p live members; returns per-member rebuild flags.
  void refresh_all(const std::vector<std::size_t>& live, std::vector<char>& rebuilt);
  /// Stability phase across \p live members.
  void stability_all(const std::vector<std::size_t>& live);

  std::vector<LockstepMember> members_;
  LockstepCounters counters_;
  std::vector<PoolEntry> pool_;
  std::size_t pool_cursor_ = 0;  ///< round-robin replacement at capacity
  double clock_ = 0.0;
  // Per-step scratch of refresh_all / stability_all, kept across steps so
  // the march does not allocate every step.
  std::vector<StepBuild> builds_;
  std::vector<StepCap> caps_;
  std::vector<char> eliminated_, leader_consumed_, recomputed_;
  std::vector<std::size_t> followers_;
  std::vector<double> block_, dy_;
};

}  // namespace ehsim::sim
