#include "sim/batch_runner.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <latch>
#include <thread>

namespace ehsim::sim {

std::size_t resolve_worker_count(std::size_t requested, std::size_t tasks) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  return std::clamp<std::size_t>(requested, 1, std::max<std::size_t>(tasks, 1));
}

BatchRunner::BatchRunner(std::size_t threads) {
  const std::size_t n =
      resolve_worker_count(threads, std::numeric_limits<std::size_t>::max());
  if (n > 1) {
    pool_ = std::make_unique<ThreadPool>(n);
  }
}

BatchRunner::~BatchRunner() = default;

std::size_t BatchRunner::thread_count() const noexcept {
  return pool_ ? pool_->size() : 1;
}

void BatchRunner::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  // Not GUARDED_BY anything on purpose: each slot is written by exactly one
  // job and read only after done.wait() — the latch provides the ordering
  // (see the synchronisation contract in batch_runner.hpp).
  std::vector<std::exception_ptr> errors(count);
  if (!pool_) {
    // Serial reference path: inline loop with the same drain-then-rethrow
    // contract as the parallel path, so error-case side effects match.
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    std::latch done(static_cast<std::ptrdiff_t>(count));
    std::size_t submitted = 0;
    std::exception_ptr submit_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        pool_->submit([&, i] {
          try {
            body(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
          done.count_down();
        });
        ++submitted;
      } catch (...) {
        // submit itself failed (e.g. bad_alloc). Settle the latch for the
        // never-enqueued jobs so the already-running ones can finish before
        // this frame (latch, errors, body) unwinds.
        submit_error = std::current_exception();
        break;
      }
    }
    if (submit_error) {
      done.count_down(static_cast<std::ptrdiff_t>(count - submitted));
    }
    done.wait();
    if (submit_error) {
      std::rethrow_exception(submit_error);
    }
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace ehsim::sim
