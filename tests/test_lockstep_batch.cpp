/// \file test_lockstep_batch.cpp
/// \brief Lockstep SoA batch kernel: exactness, divergence and class split.
///
/// The contract under test (sim/lockstep_batch.hpp, docs/spec_format.md):
///  * a batch of bitwise-identical jobs marches bit-for-bit like the per-job
///    path, and so does the shared prefix of sweep points that differ only
///    in excitation events after t = 0;
///  * once members diverge, shared linearisations keep every result within
///    the documented io::compare tolerances of its per-job reference;
///  * parameter classes march independently and concurrently: every member
///    of a multi-class batch is bit-identical to a batch holding only its
///    own class, and results do not depend on the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "sim/harvester_session.hpp"
#include "sim/lockstep_batch.hpp"

namespace {

using namespace ehsim::experiments;
using ehsim::ModelError;

// ---- lockstep batch end-to-end --------------------------------------------

ExperimentSpec lockstep_spec(double duration) {
  ExperimentSpec spec;
  spec.name = "lockstep-test";
  spec.duration = duration;
  spec.pre_tuned_hz = 70.0;
  spec.excitation.initial_frequency_hz = 70.0;
  spec.with_mcu = true;
  spec.trace_interval = 0.05;
  spec.power_bin_width = 0.5;
  return spec;
}

std::vector<ScenarioResult> run_with_kernel(const std::vector<ScenarioJob>& jobs,
                                            BatchKernel kernel, BatchStats* stats = nullptr,
                                            std::size_t threads = 1) {
  BatchOptions options;
  options.threads = threads;
  options.batch_kernel = kernel;
  return run_scenario_batch(jobs, options, stats);
}

/// Largest |a-b| / max(1, |a|, |b|) over two traces of (nearly) equal
/// length; differing step sequences may decimate one extra sample.
double max_rel_error(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_LE(a.size() > b.size() ? a.size() - b.size() : b.size() - a.size(), 1u);
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(LockstepBatch, DuplicateBatchBitIdenticalToPerJob) {
  std::vector<ScenarioJob> jobs(4);
  for (auto& job : jobs) {
    job.spec = lockstep_spec(1.5);
    job.spec.excitation.step_frequency(0.75, 72.0);
  }
  // Distinct trace decimation must not break clone detection (observers are
  // per-member): this member still follows the leader and still matches its
  // own per-job trace bit for bit.
  jobs[2].spec.trace_interval = 0.02;

  BatchStats lockstep_stats;
  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep, &lockstep_stats);

  ASSERT_EQ(per_job.size(), jobs.size());
  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(per_job[i].stats.steps, lockstep[i].stats.steps) << "job " << i;
    EXPECT_EQ(per_job[i].time, lockstep[i].time) << "job " << i;
    EXPECT_EQ(per_job[i].vc, lockstep[i].vc) << "job " << i;  // bit-identical
    EXPECT_EQ(per_job[i].final_vc, lockstep[i].final_vc) << "job " << i;
    EXPECT_EQ(per_job[i].power_mean, lockstep[i].power_mean) << "job " << i;
    EXPECT_EQ(per_job[i].mcu_events.size(), lockstep[i].mcu_events.size()) << "job " << i;
  }
  // Followers rode the leader's refreshes instead of assembling their own.
  EXPECT_GT(lockstep_stats.shared_factorisations, 0u);
}

TEST(LockstepBatch, SingleJobBitIdenticalToPerJob) {
  std::vector<ScenarioJob> jobs(1);
  jobs[0].spec = lockstep_spec(1.0);

  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep);
  ASSERT_EQ(lockstep.size(), 1u);
  EXPECT_EQ(per_job[0].stats.steps, lockstep[0].stats.steps);
  EXPECT_EQ(per_job[0].vc, lockstep[0].vc);
  EXPECT_EQ(per_job[0].final_vc, lockstep[0].final_vc);
}

TEST(LockstepBatch, SplitAndRemergeAcrossSegmentCrossing) {
  // Sweep points share the prefix [0, 1.0) and then step to different
  // frequencies: clones follow the leader exactly, peel off at t = 1.0 and
  // re-merge into signature groups afterwards.
  std::vector<ScenarioJob> jobs;
  for (const double hz : {69.0, 71.0, 73.0}) {
    ScenarioJob job;
    job.spec = lockstep_spec(2.0);
    job.spec.excitation.step_frequency(1.0, hz);
    jobs.push_back(std::move(job));
  }

  BatchStats stats;
  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep, &stats);

  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Identical prefix: before the divergence time every member still steps
    // exactly like its per-job self, so the decimated trace is bit-for-bit
    // equal there. Past the split the global step agreement changes the
    // step sequence, so only bounded error is promised.
    const std::size_t common = std::min(per_job[i].time.size(), lockstep[i].time.size());
    for (std::size_t k = 0; k < common; ++k) {
      if (per_job[i].time[k] >= 1.0 || lockstep[i].time[k] >= 1.0) {
        break;
      }
      EXPECT_EQ(per_job[i].time[k], lockstep[i].time[k]) << "job " << i << " sample " << k;
      EXPECT_EQ(per_job[i].vc[k], lockstep[i].vc[k]) << "job " << i << " t=" << per_job[i].time[k];
    }
    // After the split: bounded error against the per-job reference (the
    // documented compare tolerance for diverged lockstep batches). Vc is
    // slow, so comparing per decimated sample is meaningful even though the
    // sample times differ in their low bits.
    EXPECT_LT(max_rel_error(per_job[i].vc, lockstep[i].vc), 1e-3) << "job " << i;
    EXPECT_NEAR(per_job[i].final_vc, lockstep[i].final_vc,
                1e-3 * std::max(1.0, std::abs(per_job[i].final_vc)))
        << "job " << i;
  }
  EXPECT_GT(stats.shared_factorisations, 0u);
}

/// Two parameter classes (sleep loads) x three clone-prefix members
/// (frequency-step targets), interleaved in job order: a small copy of the
/// benchmark's multi-class sweep.
std::vector<ScenarioJob> two_class_jobs() {
  std::vector<ScenarioJob> jobs;
  for (const double hz : {69.0, 71.0, 73.0}) {
    for (const double ohms : {1e9, 2e8}) {
      ScenarioJob job;
      job.spec = lockstep_spec(1.0);
      job.spec.excitation.step_frequency(0.5, hz);
      job.spec.overrides.push_back({"load.sleep_ohms", ohms});
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(LockstepBatch, MultiClassMembersBitIdenticalToOwnClassBatch) {
  // Classes share nothing, so each marches on its own clock: a member of
  // the mixed batch steps exactly like it does in a batch of its class only.
  const std::vector<ScenarioJob> jobs = two_class_jobs();
  BatchStats mixed_stats;
  const auto mixed = run_with_kernel(jobs, BatchKernel::kLockstep, &mixed_stats, 2);
  ASSERT_EQ(mixed.size(), jobs.size());

  BatchStats summed;
  for (std::size_t first = 0; first < 2; ++first) {
    std::vector<ScenarioJob> own_class;
    for (std::size_t i = first; i < jobs.size(); i += 2) {
      own_class.push_back(jobs[i]);
    }
    BatchStats own_stats;
    const auto own = run_with_kernel(own_class, BatchKernel::kLockstep, &own_stats);
    ASSERT_EQ(own.size(), own_class.size());
    for (std::size_t k = 0; k < own.size(); ++k) {
      const ScenarioResult& member = mixed[first + 2 * k];
      EXPECT_EQ(own[k].stats.steps, member.stats.steps) << "class " << first << " job " << k;
      EXPECT_EQ(own[k].time, member.time) << "class " << first << " job " << k;
      EXPECT_EQ(own[k].vc, member.vc) << "class " << first << " job " << k;
      EXPECT_EQ(own[k].final_vc, member.final_vc) << "class " << first << " job " << k;
      EXPECT_EQ(own[k].power_mean, member.power_mean) << "class " << first << " job " << k;
      EXPECT_EQ(own[k].mcu_events.size(), member.mcu_events.size())
          << "class " << first << " job " << k;
    }
    summed.lockstep_groups += own_stats.lockstep_groups;
    summed.shared_factorisations += own_stats.shared_factorisations;
  }
  // The batch counters are the per-class counters summed.
  EXPECT_EQ(mixed_stats.lockstep_groups, summed.lockstep_groups);
  EXPECT_EQ(mixed_stats.shared_factorisations, summed.shared_factorisations);
  EXPECT_GT(mixed_stats.shared_factorisations, 0u);
}

TEST(LockstepBatch, DeterministicAcrossThreadCounts) {
  // The class split depends only on the job list, never on the thread
  // count; the threads option must not change a single bit, for one class
  // marched alone or several marched concurrently.
  std::vector<ScenarioJob> one_class;
  for (const double hz : {70.0, 74.0}) {
    ScenarioJob job;
    job.spec = lockstep_spec(1.0);
    job.spec.excitation.step_frequency(0.5, hz);
    one_class.push_back(std::move(job));
  }

  for (const std::vector<ScenarioJob>& jobs : {one_class, two_class_jobs()}) {
    BatchStats s1, s2, s8;
    const auto t1 = run_with_kernel(jobs, BatchKernel::kLockstep, &s1, 1);
    const auto t2 = run_with_kernel(jobs, BatchKernel::kLockstep, &s2, 2);
    const auto t8 = run_with_kernel(jobs, BatchKernel::kLockstep, &s8, 8);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(t1[i].vc, t2[i].vc) << "job " << i;
      EXPECT_EQ(t1[i].vc, t8[i].vc) << "job " << i;
      EXPECT_EQ(t1[i].time, t8[i].time) << "job " << i;
      EXPECT_EQ(t1[i].stats.steps, t2[i].stats.steps) << "job " << i;
      EXPECT_EQ(t1[i].stats.steps, t8[i].stats.steps) << "job " << i;
    }
    EXPECT_EQ(s1.shared_factorisations, s2.shared_factorisations);
    EXPECT_EQ(s1.shared_factorisations, s8.shared_factorisations);
    EXPECT_EQ(s1.lockstep_groups, s8.lockstep_groups);
  }
}

TEST(LockstepBatch, MixedDurationBatchTerminatesAndStaysBounded) {
  // Regression: a spec.duration sweep axis retires the front member from the
  // live set first; the barrier clock must then advance from a member that is
  // still live, or the march freezes at the finished member's horizon and
  // never reaches the later horizons.
  std::vector<ScenarioJob> jobs;
  for (const double duration : {0.6, 1.0, 1.4}) {
    ScenarioJob job;
    job.spec = lockstep_spec(duration);
    jobs.push_back(std::move(job));
  }

  const auto per_job = run_with_kernel(jobs, BatchKernel::kJobs);
  const auto lockstep = run_with_kernel(jobs, BatchKernel::kLockstep);

  ASSERT_EQ(lockstep.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Durations differ, so members are not clones: only the documented
    // bounded error vs the per-job reference is promised.
    EXPECT_LT(max_rel_error(per_job[i].vc, lockstep[i].vc), 1e-3) << "job " << i;
    EXPECT_NEAR(per_job[i].final_vc, lockstep[i].final_vc,
                1e-3 * std::max(1.0, std::abs(per_job[i].final_vc)))
        << "job " << i;
  }
}

TEST(LockstepBatch, ReuseDisabledArmStepIdenticalToPerJob) {
  // Ablation A6 (enable_jacobian_reuse = false, LLE control on): a
  // signature-stable refresh still rebuilds the Jacobians, but must observe
  // zero drift exactly like the per-job refresh() — the drift observation
  // follows the signature verdict, not the rebuild decision. Regression for
  // the lockstep rebuild path hard-coding an unstable-signature observation.
  const auto params = experiment_params(charging_scenario(0.5));
  ehsim::sim::HarvesterSession::Options options;
  options.solver.enable_jacobian_reuse = false;

  ehsim::sim::HarvesterSession reference(params, options);
  reference.run_until(0.4);

  ehsim::sim::HarvesterSession a(params, options);
  ehsim::sim::HarvesterSession b(params, options);
  a.initialise();
  b.initialise();
  ehsim::sim::HarvesterSession* sessions[2] = {&a, &b};
  std::vector<ehsim::sim::LockstepMember> members(2);
  for (std::size_t i = 0; i < 2; ++i) {
    members[i].solver =
        dynamic_cast<ehsim::core::LinearisedSolver*>(&sessions[i]->engine());
    ASSERT_NE(members[i].solver, nullptr);
    members[i].t_end = 0.4;
    // Forbid all sharing (never adopt — the configuration run_lockstep_batch
    // derives for members without a duplicate peer): isolates the solo
    // rebuild path, which must stay exact.
    members[i].share_after = std::numeric_limits<double>::infinity();
  }
  ehsim::sim::LockstepBatch batch(std::move(members));
  batch.run();

  for (ehsim::sim::HarvesterSession* session : sessions) {
    EXPECT_EQ(reference.stats().steps, session->stats().steps);
    const auto expect_state = reference.state();
    const auto state = session->state();
    ASSERT_EQ(expect_state.size(), state.size());
    for (std::size_t k = 0; k < state.size(); ++k) {
      EXPECT_EQ(expect_state[k], state[k]) << "state " << k;  // bit-identical
    }
  }
}

TEST(LockstepBatch, BaselineEngineJobRejected) {
  std::vector<ScenarioJob> jobs(2);
  jobs[0].spec = lockstep_spec(0.5);
  jobs[1].spec = lockstep_spec(0.5);
  jobs[1].spec.engine = EngineKind::kPspice;

  BatchOptions options;
  options.batch_kernel = BatchKernel::kLockstep;
  EXPECT_THROW((void)run_scenario_batch(jobs, options, nullptr), ModelError);
}

TEST(LockstepBatch, KernelIdsRoundTrip) {
  for (const BatchKernel kernel : {BatchKernel::kJobs, BatchKernel::kLockstep}) {
    EXPECT_EQ(parse_batch_kernel(batch_kernel_id(kernel)), kernel);
  }
  // Unknown ids, the retired lockstep_expm included, fail with an error
  // listing the valid kernels.
  for (const char* id : {"simd", "lockstep_expm"}) {
    try {
      (void)parse_batch_kernel(id);
      ADD_FAILURE() << id << " accepted";
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find("(expected jobs | lockstep)"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
