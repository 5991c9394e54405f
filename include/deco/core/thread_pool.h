// Thread-pool parallelism with bitwise-deterministic reductions.
//
// The pool executes work as a fixed set of chunks whose boundaries depend
// ONLY on the iteration range and the grain size — never on the thread
// count. Chunks are claimed dynamically by workers, so scheduling is free to
// vary, but as long as
//   (a) each chunk writes a disjoint output range, or
//   (b) per-chunk partial results are merged in ascending chunk order
//       (parallel_reduce does this), or
//   (c) serial work is merely *reordered per independent output element*
//       without changing each element's accumulation order,
// the floating-point result is bitwise identical for every DECO_NUM_THREADS,
// including the serial fallback at threads=1. This is the contract every
// parallelized kernel in the library relies on; see docs/EXTENDING.md
// ("The threading model") before parallelizing a new op.
//
// Grains come from grain_for(work_per_item): every chunk carries about the
// same amount of work, so a job whose total work fits one grain is a single
// chunk, and run() executes single-chunk jobs inline on the caller. That is
// the per-op work threshold below which an op never touches the workers.
//
// Nested parallel regions degrade gracefully: a parallel_for issued from
// inside a pool task runs inline on the calling worker, so outer-level
// parallelism (e.g. per-seed evaluation fan-out) composes with the parallel
// tensor kernels without oversubscription or deadlock.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace deco::core {

class ThreadPool {
 public:
  /// Creates a pool that executes work on `threads` threads total: the
  /// calling thread plus `threads - 1` persistent workers. `threads <= 1`
  /// creates no workers (pure serial execution).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (workers + the calling thread).
  int threads() const { return static_cast<int>(workers_count_) + 1; }

  /// Executes task(c) for every chunk c in [0, num_chunks), distributing
  /// chunks over the workers and the calling thread; blocks until all chunks
  /// are done. Exceptions thrown by tasks are rethrown on the caller (first
  /// one wins). Called from inside a pool task, runs inline serially.
  void run(int64_t num_chunks, const std::function<void(int64_t)>& task);

  /// True when the current thread is executing a pool task (used to force
  /// nested parallel regions inline).
  static bool in_worker();

 private:
  struct Impl;
  Impl* impl_;           // pimpl keeps <thread>/<mutex> out of this header
  int64_t workers_count_;
};

/// The process-wide pool, created on first use. Its size comes from the
/// DECO_NUM_THREADS environment variable; unset or invalid values fall back
/// to std::thread::hardware_concurrency().
ThreadPool& global_pool();

/// Current global execution width.
int num_threads();

/// Rebuilds the global pool with `threads` threads (clamped to >= 1).
/// Intended for tests and benchmarks; must not race with in-flight parallel
/// work. Thread-count changes never change numeric results — that is the
/// whole point of the deterministic-chunking contract.
void set_num_threads(int threads);

/// Items per chunk for a loop whose items each carry `work_per_item` scalar
/// operations: batches about 64K scalars of work per chunk, and never less
/// than one item. A pure function of its input — never of the thread count —
/// so the chunking (and any ordered reduction over it) stays deterministic.
int64_t grain_for(int64_t work_per_item);

/// Runs fn(chunk_begin, chunk_end) over [begin, end) in chunks of exactly
/// `grain` iterations (the final chunk may be short). Chunk boundaries are a
/// pure function of (begin, end, grain), so disjoint-write loops are bitwise
/// deterministic for any thread count. fn must not touch shared mutable
/// state outside its chunk's output range.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

/// Low-level form of parallel_for: executes task(chunk_index) for every
/// chunk in [0, num_chunks) on the global pool.
void run_chunks(int64_t num_chunks, const std::function<void(int64_t)>& task);

/// Deterministic parallel reduction: computes per-chunk partials with
/// chunk_fn(chunk_begin, chunk_end) and merges them in ascending chunk order
/// with merge(acc, partial). Because the chunking is fixed and the merge is
/// ordered, the result is bitwise identical for every thread count.
template <typename T, typename ChunkFn, typename MergeFn>
T parallel_reduce(int64_t begin, int64_t end, int64_t grain, T init,
                  const ChunkFn& chunk_fn, const MergeFn& merge) {
  static_assert(!std::is_same_v<T, bool>,
                "vector<bool> partials are bit-packed and would race across "
                "chunks; reduce over char or int instead");
  const int64_t n = end - begin;
  if (n <= 0) return init;
  const int64_t g = grain < 1 ? 1 : grain;
  const int64_t chunks = (n + g - 1) / g;
  std::vector<T> partials(static_cast<size_t>(chunks));
  run_chunks(chunks, [&](int64_t c) {
    const int64_t b = begin + c * g;
    const int64_t e = b + g < end ? b + g : end;
    partials[static_cast<size_t>(c)] = chunk_fn(b, e);
  });
  T acc = init;
  for (const T& p : partials) acc = merge(acc, p);
  return acc;
}

}  // namespace deco::core
