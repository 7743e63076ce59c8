#include "util/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/arena.hpp"

namespace drlhmd::util {
namespace {

thread_local bool tl_in_region = false;

std::atomic<ParallelObserver*> g_observer{nullptr};

std::size_t env_thread_count() {
  if (const char* env = std::getenv("DRLHMD_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return std::min<std::size_t>(static_cast<std::size_t>(v), 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Region-at-a-time pool: run_region publishes one chunked region, workers
/// and the caller claim chunks from a shared atomic cursor, and the caller
/// blocks until every chunk has executed.  One region is in flight at a
/// time (concurrent outer callers fall back to inline execution), which
/// keeps the scheduler trivial and the chunk->thread mapping irrelevant to
/// results.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool* pool = new ThreadPool(env_thread_count());
    return *pool;
  }

  explicit ThreadPool(std::size_t n_threads) { spawn(n_threads); }

  ~ThreadPool() { join_workers(); }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return n_threads_;
  }

  void resize(std::size_t n_threads) {
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    join_workers();
    spawn(n_threads);
  }

  ParallelStats stats() const {
    ParallelStats s;
    s.threads = size();
    s.regions = regions_.load(std::memory_order_relaxed);
    s.serial_regions = serial_regions_.load(std::memory_order_relaxed);
    s.chunks = chunks_.load(std::memory_order_relaxed);
    s.peak_region_chunks = peak_chunks_.load(std::memory_order_relaxed);
    return s;
  }

  void note_serial_region() {
    serial_regions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Run fn(0..n_chunks-1) across the pool; rethrows the first chunk
  /// exception on the caller.  Falls back to inline execution when another
  /// caller already holds the pool.  The one in-flight region lives in a
  /// reusable member slot (no per-region heap allocation): before rewriting
  /// the slot the submitter drains stragglers from the previous region —
  /// workers that claimed no chunk but are still inside execute() reading
  /// the slot's plain fields — by spinning on the active-worker count.
  void run_region(std::size_t n_chunks, detail::ChunkFnRef fn) {
    std::unique_lock<std::mutex> submit_lock(submit_mu_, std::try_to_lock);
    if (!submit_lock.owns_lock()) {
      run_inline(n_chunks, fn);
      return;
    }

    regions_.fetch_add(1, std::memory_order_relaxed);
    chunks_.fetch_add(n_chunks, std::memory_order_relaxed);
    std::uint64_t peak = peak_chunks_.load(std::memory_order_relaxed);
    while (n_chunks > peak &&
           !peak_chunks_.compare_exchange_weak(peak, n_chunks,
                                               std::memory_order_relaxed)) {
    }

    // Drain workers still touching the slot from the previous region.  The
    // acquire pairs with the release decrement in worker_loop, ordering
    // their last reads before our writes.  New workers cannot enter: the
    // wait predicate requires region_ != nullptr, and it is still null.
    while (active_.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();

    Region& region = region_slot_;
    region.fn = fn;
    region.n_chunks = n_chunks;
    region.next.store(0, std::memory_order_relaxed);
    region.done.store(0, std::memory_order_relaxed);
    region.error = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      region_ = &region;
    }
    work_cv_.notify_all();

    execute(region);  // the caller is a full participant

    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return region.done.load(std::memory_order_acquire) == n_chunks;
      });
      region_ = nullptr;
    }
    if (region.error) std::rethrow_exception(region.error);
  }

  static void run_inline(std::size_t n_chunks, detail::ChunkFnRef fn) {
    const bool was_in_region = tl_in_region;
    tl_in_region = true;
    try {
      for (std::size_t c = 0; c < n_chunks; ++c) fn(c);
    } catch (...) {
      tl_in_region = was_in_region;
      throw;
    }
    tl_in_region = was_in_region;
  }

 private:
  struct Region {
    detail::ChunkFnRef fn;
    std::size_t n_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  void spawn(std::size_t n_threads) {
    n_threads = std::max<std::size_t>(1, n_threads);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = false;
      n_threads_ = n_threads;
    }
    for (std::size_t i = 0; i + 1 < n_threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
    // Return only once every worker has pre-warmed its arena (worker_loop):
    // a worker the OS starts late would otherwise pay that first touch
    // inside whatever region the caller runs next.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return warmed_ == workers_.size(); });
  }

  void join_workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    warmed_ = 0;
  }

  void worker_loop() {
    // Pre-warm this worker's scratch arena before it can join any region:
    // chunk assignment is a racing atomic cursor, so a worker may sit out
    // a caller's warm-up passes entirely and first claim a chunk inside a
    // steady-state serving region.  Paying the thread_local registration
    // and the first 64 KB chunk here (a cold path) keeps that first claim
    // heap-silent, preserving the zero-allocation property regardless of
    // which thread the cursor hands each chunk to.  spawn() waits for it.
    {
      ArenaScope warm(scratch_arena());
      (void)warm.alloc<std::byte>(1);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++warmed_;
    }
    done_cv_.notify_all();
    for (;;) {
      Region* region = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return stop_ ||
                 (region_ != nullptr &&
                  region_->next.load(std::memory_order_relaxed) <
                      region_->n_chunks);
        });
        if (stop_) return;
        region = region_;
        // Counted before mu_ is released so the next submitter's drain
        // cannot miss us while we still hold a reference to the slot.
        active_.fetch_add(1, std::memory_order_relaxed);
      }
      execute(*region);
      active_.fetch_sub(1, std::memory_order_release);
    }
  }

  void execute(Region& region) {
    std::size_t c;
    while ((c = region.next.fetch_add(1, std::memory_order_relaxed)) <
           region.n_chunks) {
      tl_in_region = true;
      try {
        region.fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(region.error_mu);
        if (!region.error) region.error = std::current_exception();
      }
      tl_in_region = false;
      if (region.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          region.n_chunks) {
        { std::lock_guard<std::mutex> lock(mu_); }
        done_cv_.notify_all();
      }
    }
  }

  mutable std::mutex mu_;
  std::mutex submit_mu_;  // serializes outer regions
  std::condition_variable work_cv_, done_cv_;
  std::vector<std::thread> workers_;
  Region region_slot_;          // reused across regions; see run_region
  Region* region_ = nullptr;    // published slot, guarded by mu_
  std::atomic<std::size_t> active_{0};  // workers inside execute()
  std::size_t n_threads_ = 1;
  std::size_t warmed_ = 0;  // workers past their arena pre-warm, guarded by mu_
  bool stop_ = false;

  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> serial_regions_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> peak_chunks_{0};
};

/// RAII wrapper around the installed observer's begin/end pair.
class ObserverScope {
 public:
  ObserverScope(const char* label, std::size_t n_chunks, std::size_t threads) {
    // Nested regions are inline implementation detail — not observed.
    if (label == nullptr || tl_in_region) return;
    observer_ = g_observer.load(std::memory_order_acquire);
    if (observer_ != nullptr)
      token_ = observer_->region_begin(label, n_chunks, threads);
  }
  ~ObserverScope() {
    if (observer_ != nullptr) observer_->region_end(token_);
  }
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

  /// Observer to notify per chunk, or nullptr when the region is either
  /// unobserved or the observer declined it (null token).
  ParallelObserver* chunk_observer() const {
    return token_ != nullptr ? observer_ : nullptr;
  }
  void* token() const { return token_; }

 private:
  ParallelObserver* observer_ = nullptr;
  void* token_ = nullptr;
};

}  // namespace

std::size_t parallel_thread_count() { return ThreadPool::instance().size(); }

void set_parallel_threads(std::size_t n) {
  ThreadPool::instance().resize(n == 0 ? env_thread_count() : std::min<std::size_t>(n, 256));
}

bool in_parallel_region() { return tl_in_region; }

bool pin_current_thread(std::size_t cpu) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t target = hw == 0 ? 0 : cpu % hw;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(target, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

ParallelStats parallel_stats() { return ThreadPool::instance().stats(); }

void set_parallel_observer(ParallelObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}

std::size_t parallel_resolve_grain(std::size_t n, std::size_t grain) {
  if (grain > 0) return grain;
  return std::max<std::size_t>(1, n / 64);
}

namespace detail {

void run_chunks(const char* label, std::size_t n_chunks, ChunkFnRef chunk_fn) {
  if (n_chunks == 0) return;
  ThreadPool& pool = ThreadPool::instance();
  const std::size_t threads = pool.size();
  ObserverScope scope(label, n_chunks, threads);

  // Per-chunk timing only when an observer accepted the region; otherwise
  // the hot path runs the caller's functor directly with zero wrapping.
  // The wrapper is a stack lambda referenced through ChunkFnRef — no
  // std::function, no heap, valid for the full extent of this call.
  ParallelObserver* observer = scope.chunk_observer();
  void* token = scope.token();
  auto timed = [chunk_fn, observer, token](std::size_t c) {
    const auto t0 = std::chrono::steady_clock::now();
    chunk_fn(c);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    observer->chunk_done(token, c, us);
  };
  const ChunkFnRef body = observer != nullptr ? ChunkFnRef(timed) : chunk_fn;

  if (tl_in_region || n_chunks == 1 || threads <= 1) {
    pool.note_serial_region();
    ThreadPool::run_inline(n_chunks, body);
    return;
  }
  pool.run_region(n_chunks, body);
}

}  // namespace detail
}  // namespace drlhmd::util
