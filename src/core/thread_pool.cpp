#include "deco/core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "deco/core/clock.h"
#include "deco/core/telemetry.h"
#include "deco/tensor/check.h"

namespace deco::core {

namespace {
// Set while the current thread is executing pool chunks (worker or the
// caller participating in its own run); forces nested regions inline.
thread_local bool tl_in_pool_task = false;

// Pool telemetry: job/chunk throughput plus how long the caller blocks in
// the completion wait after exhausting its own share of chunks (the "my
// workers are still busy" tail). Handles are resolved once; the hot path
// pays relaxed adds only.
telemetry::Counter& jobs_counter() {
  static telemetry::Counter& c = telemetry::counter("pool/jobs");
  return c;
}
telemetry::Counter& chunks_counter() {
  static telemetry::Counter& c = telemetry::counter("pool/chunks");
  return c;
}
telemetry::Histogram& caller_wait_hist() {
  // 1 us .. 1 s in decades.
  static telemetry::Histogram& h = telemetry::histogram(
      "pool/caller_wait_ns",
      {1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000,
       1'000'000'000});
  return h;
}
}  // namespace

struct ThreadPool::Impl {
  // Per-job state lives on the heap and is pinned by shared_ptr: a worker
  // that wakes late (after the job it was signalled for has been finished by
  // the other threads and run() has returned) still holds *that* job, whose
  // claim counter is exhausted, so it can neither dereference the caller's
  // dead task function nor steal chunks from a newer job.
  struct Job {
    const std::function<void(int64_t)>* task = nullptr;
    int64_t total_chunks = 0;
    std::atomic<int64_t> next_chunk{0};
    // Set once a chunk has thrown; later claims finish without running.
    std::atomic<bool> failed{false};
    // Guarded by the pool mutex:
    int64_t done_chunks = 0;
    std::exception_ptr first_error;
  };

  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  // One "job" at a time; epoch bumps wake the workers. Both fields are
  // guarded by mu, and workers copy `job` in the same critical section in
  // which they observe the epoch change, so the pair is always consistent.
  std::shared_ptr<Job> job;
  uint64_t epoch = 0;
  bool stop = false;

  // Claims and executes chunks of `j` until none remain; returns how many it
  // ran. Safe on an already-finished job: the first claim overshoots and the
  // loop exits without touching j.task.
  int64_t drain(Job& j) {
    int64_t did = 0;
    for (;;) {
      const int64_t c = j.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= j.total_chunks) break;
      ++did;
      if (j.failed.load(std::memory_order_relaxed)) continue;
      try {
        (*j.task)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!j.first_error) j.first_error = std::current_exception();
        j.failed.store(true, std::memory_order_relaxed);
      }
    }
    return did;
  }

  void worker_loop() {
    uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> j;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return stop || epoch != seen; });
        if (stop) return;
        seen = epoch;
        j = job;  // copied under mu together with the epoch it belongs to
      }
      // The job may already be finished and cleared from the slot by the
      // time a slow-waking worker gets here; there is nothing left to run.
      if (j == nullptr) continue;
      tl_in_pool_task = true;
      const int64_t did = drain(*j);
      tl_in_pool_task = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        j->done_chunks += did;
        if (j->done_chunks == j->total_chunks) cv_done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) : impl_(new Impl), workers_count_(0) {
  const int extra = threads > 1 ? threads - 1 : 0;
  workers_count_ = extra;
  impl_->workers.reserve(static_cast<size_t>(extra));
  for (int i = 0; i < extra; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    // run() clears the job slot before returning, so a live job here means
    // the pool is being destroyed while parallel work is in flight.
    assert(impl_->job == nullptr && "ThreadPool destroyed with a job in flight");
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::in_worker() { return tl_in_pool_task; }

void ThreadPool::run(int64_t num_chunks,
                     const std::function<void(int64_t)>& task) {
  if (num_chunks <= 0) return;
  jobs_counter().add(1);
  chunks_counter().add(num_chunks);
  // Serial paths: no workers, trivial jobs, or nested invocation. These run
  // the exact same chunks in ascending order, so results cannot depend on
  // which path was taken.
  if (workers_count_ == 0 || num_chunks == 1 || tl_in_pool_task) {
    for (int64_t c = 0; c < num_chunks; ++c) task(c);
    return;
  }

  auto j = std::make_shared<Impl::Job>();
  j->task = &task;
  j->total_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job = j;
    ++impl_->epoch;
  }
  impl_->cv_work.notify_all();

  // The caller participates instead of idling.
  tl_in_pool_task = true;
  const int64_t did = impl_->drain(*j);
  tl_in_pool_task = false;

  std::exception_ptr err;
  {
    const int64_t wait_t0 =
        telemetry::enabled() ? now_ns() : 0;
    std::unique_lock<std::mutex> lk(impl_->mu);
    j->done_chunks += did;
    impl_->cv_done.wait(lk, [&] { return j->done_chunks == j->total_chunks; });
    if (wait_t0 != 0)
      caller_wait_hist().observe(now_ns() - wait_t0);
    err = j->first_error;
    // Drop the slot's reference so the dangling task pointer inside the job
    // cannot outlive this call via the pool itself; late workers keep their
    // own (exhausted) reference alive independently.
    if (impl_->job == j) impl_->job.reset();
  }
  if (err) std::rethrow_exception(err);
}

namespace {

int env_thread_count() {
  const char* env = std::getenv("DECO_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(env_thread_count());
  return pool;
}

}  // namespace

ThreadPool& global_pool() { return *global_pool_slot(); }

int num_threads() { return global_pool().threads(); }

void set_num_threads(int threads) {
  // Rebuilding the pool destroys the live workers; doing that from inside a
  // pool task (or with a job in flight — caught by the assert in
  // ~ThreadPool) would be a use-after-free. Fail loudly instead.
  DECO_CHECK(!ThreadPool::in_worker(),
             "set_num_threads() called from inside a pool task");
  global_pool_slot() = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
}

int64_t grain_for(int64_t work_per_item) {
  constexpr int64_t kChunkWork = int64_t{1} << 16;
  return std::max<int64_t>(1, kChunkWork / std::max<int64_t>(1, work_per_item));
}

void run_chunks(int64_t num_chunks, const std::function<void(int64_t)>& task) {
  global_pool().run(num_chunks, task);
}

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t g = grain < 1 ? 1 : grain;
  const int64_t chunks = (n + g - 1) / g;
  global_pool().run(chunks, [&](int64_t c) {
    const int64_t b = begin + c * g;
    fn(b, b + g < end ? b + g : end);
  });
}

}  // namespace deco::core
