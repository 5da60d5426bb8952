#include "sim/rank_team.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace igr::sim {

int ambient_thread_budget() {
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 && v <= 4096 ? static_cast<int>(v) : 0;
#endif
}

int resolve_threads_per_rank(int requested, int ranks, int share_ranks,
                             int budget, unsigned hardware) {
  if (requested > 0) return requested;
  const int sharers = std::max({1, ranks, share_ranks});
  if (budget > 0) return std::max(1, budget / sharers);
  return std::max(1, static_cast<int>(std::max(1u, hardware)) / sharers);
}

RankTeam::RankTeam(int ranks, int threads_per_rank, int hardware_share_ranks)
    : ranks_(ranks) {
  if (ranks < 1) throw std::invalid_argument("RankTeam: ranks must be >= 1");
  if (threads_per_rank < 0)
    throw std::invalid_argument("RankTeam: threads_per_rank must be >= 0");
  threads_per_rank_ = resolve_threads_per_rank(
      threads_per_rank, ranks, hardware_share_ranks, ambient_thread_budget(),
      std::thread::hardware_concurrency());
  workers_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    workers_.emplace_back([this, r] { worker_main(r); });
  }
}

RankTeam::~RankTeam() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void RankTeam::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lk(mu_);
  fn_ = &fn;
  done_ = 0;
  error_ = nullptr;
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lk, [this] { return done_ == ranks_; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void RankTeam::worker_main(int rank) {
#ifdef _OPENMP
  // Each worker is its own OpenMP initial thread; cap its team so the rank
  // count times the per-rank team never oversubscribes the machine.
  omp_set_num_threads(threads_per_rank_);
#endif
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::function<void(int)>* fn = fn_;
    lk.unlock();

    std::exception_ptr err;
    try {
      (*fn)(rank);
    } catch (...) {
      err = std::current_exception();
    }

    lk.lock();
    if (err && !error_) error_ = err;
    if (++done_ == ranks_) cv_done_.notify_one();
  }
}

}  // namespace igr::sim
