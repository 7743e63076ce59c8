// Steady-state zero-allocation proof for the serving hot path.
//
// This binary replaces the global allocation functions with counting
// wrappers (armed only inside the measured window, so gtest bookkeeping
// and test setup never pollute the count).  After warm-up — which grows
// the per-thread arenas and the thread pool's region slot to their
// high-water marks — DetectionRuntime::process_batch into caller-owned
// verdict storage must perform exactly zero heap allocations per call:
// every gather buffer, score array, flag array, and NN activation comes
// out of the per-thread bump arenas (src/util/arena.hpp).
//
// Every armed allocation also records its call stack (execinfo
// backtrace() into static storage, no heap), and a failing assert prints
// the stacks, so a regression names the allocating call.
//
// Runs under the plain preset only (label `alloc`): sanitizers intercept
// operator new themselves and are excluded via the preset label filters.
#include <execinfo.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/runtime.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocs{0};

constexpr int kMaxStacks = 4;
constexpr int kMaxFrames = 32;
struct Stack {
  void* frames[kMaxFrames];
  int depth;
};
Stack g_stacks[kMaxStacks];

void note_alloc() {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const std::uint64_t n = g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n < kMaxStacks)
    g_stacks[n].depth = backtrace(g_stacks[n].frames, kMaxFrames);
}

void arm() {
  g_allocs.store(0);
  g_armed.store(true);
}

/// Disarm and return the count, printing the first recorded stacks to
/// stderr (backtrace_symbols_fd writes without allocating).
std::uint64_t disarm() {
  g_armed.store(false);
  const std::uint64_t n = g_allocs.load();
  for (std::uint64_t i = 0; i < n && i < kMaxStacks; ++i) {
    std::fprintf(stderr, "armed allocation %llu:\n",
                 static_cast<unsigned long long>(i));
    backtrace_symbols_fd(g_stacks[i].frames, g_stacks[i].depth, STDERR_FILENO);
  }
  return n;
}

void* counted_alloc(std::size_t size) {
  note_alloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace drlhmd {
namespace {

/// Shares one trained pipeline plus a predictor-unflagged row probe across
/// the batch and serving zero-alloc proofs (training is the expensive part).
class ZeroAllocFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // backtrace() loads its unwinder on first use, which allocates: pay
    // that here, outside any armed window.
    void* frame[1];
    (void)backtrace(frame, 1);
    core::FrameworkConfig cfg;
    cfg.corpus.benign_apps = 80;
    cfg.corpus.malware_apps = 80;
    cfg.corpus.windows_per_app = 4;
    framework_ = new core::Framework(cfg);
    framework_->run_all();

    // Pre-filter to rows the predictor does not flag: flagged rows grow the
    // quarantine database, which is an intentional allocation.  Verdicts
    // are deterministic (frozen const models), so the filtered rows stay
    // unflagged on every pass below.
    core::DetectionRuntime scout(*framework_, frozen_config());
    const ml::Dataset& test = framework_->test_set();
    std::vector<core::TrafficVerdict> first(test.size());
    scout.process_batch(test.X.view(), first);
    probe_ = new ml::FeatureMatrix();
    probe_->reserve_rows(64);
    for (std::size_t i = 0; i < test.size() && probe_->rows() < 64; ++i)
      if (first[i] != core::TrafficVerdict::kAdversarialMalware)
        probe_->push_row(test.row_copy(i));
  }
  static void TearDownTestSuite() {
    delete probe_;
    probe_ = nullptr;
    delete framework_;
    framework_ = nullptr;
  }
  static core::RuntimeConfig frozen_config() {
    core::RuntimeConfig rcfg;
    rcfg.retrain_threshold = 0;       // adaptive retrain allocates by design
    rcfg.integrity_check_period = 0;  // vault re-hash allocates by design
    return rcfg;
  }
  static core::Framework* framework_;
  static ml::FeatureMatrix* probe_;
};

core::Framework* ZeroAllocFixture::framework_ = nullptr;
ml::FeatureMatrix* ZeroAllocFixture::probe_ = nullptr;

TEST_F(ZeroAllocFixture, SteadyStateProcessBatchDoesNotAllocate) {
  core::DetectionRuntime runtime(*framework_, frozen_config());
  const ml::FeatureMatrix& probe = *probe_;
  ASSERT_GE(probe.rows(), 16u) << "predictor flagged nearly everything";

  const std::size_t saved_threads = util::parallel_thread_count();
  std::vector<core::TrafficVerdict> verdicts(probe.rows());
  for (const bool telemetry : {false, true}) {
    obs::Telemetry::set_enabled(telemetry);
    // The parallel pool's telemetry bridge appends every region and chunk
    // to the tracer's event log, which grows by design (like retrain and
    // the vault re-hash above).  Detach it so the telemetry-on pass counts
    // what the runtime itself records: the stage tails.
    if (telemetry) util::set_parallel_observer(nullptr);
    for (const std::size_t width : {std::size_t{1}, std::size_t{2}}) {
      util::set_parallel_threads(width);
      // Warm-up: arenas, the pool's region slot and (telemetry on) this
      // thread's stage-tail shards grow to high water.
      for (int pass = 0; pass < 5; ++pass)
        runtime.process_batch(probe.view(), verdicts);

      arm();
      for (int pass = 0; pass < 10; ++pass)
        runtime.process_batch(probe.view(), verdicts);
      const std::uint64_t allocs = disarm();
      EXPECT_EQ(allocs, 0u) << "heap allocations in steady-state "
                               "process_batch at DRLHMD_THREADS="
                            << width << ", telemetry " << telemetry;
    }
  }
  obs::Telemetry::set_enabled(false);
  util::set_parallel_threads(saved_threads);
}

TEST_F(ZeroAllocFixture, SteadyStateServingDrainLoopDoesNotAllocate) {
  core::DetectionRuntime runtime(*framework_, frozen_config());
  const ml::FeatureMatrix& probe = *probe_;
  ASSERT_GE(probe.rows(), 16u) << "predictor flagged nearly everything";
  const std::size_t cols = probe.cols();

  serve::ServeConfig scfg;
  scfg.hosts = 4;
  scfg.ring_capacity = 256;
  scfg.completion_capacity = 256;
  scfg.max_batch = 16;
  serve::DetectionServer server(runtime, cols, scfg);

  // One manual-pump pass over the probe: enqueue, drain, pop verdicts.
  // The gather buffer is preallocated — gather_row writes in place.
  std::vector<double> row(cols);
  const auto pump = [&] {
    for (std::size_t i = 0; i < probe.rows(); ++i) {
      probe.view().gather_row(i, row);
      server.try_enqueue(static_cast<std::uint32_t>(i % scfg.hosts), row);
    }
    server.poll();
    serve::VerdictRecord rec;
    for (std::uint32_t host = 0; host < scfg.hosts; ++host)
      while (server.try_pop_verdict(host, rec)) {
      }
  };

  // Warm-up: runtime arenas reach high water and the serve tail recorders
  // (e2e_us/batch_rows/score_us) allocate this thread's shard slots.
  for (int pass = 0; pass < 5; ++pass) pump();

  // Armed: the whole enqueue -> ring -> stage -> score -> completion-queue
  // loop must stay off the heap.
  arm();
  for (int pass = 0; pass < 10; ++pass) pump();
  EXPECT_EQ(disarm(), 0u)
      << "heap allocations in the steady-state serving drain loop";

  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered, stats.scored);
}

}  // namespace
}  // namespace drlhmd
