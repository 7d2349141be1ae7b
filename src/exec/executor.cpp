#include "exec/executor.hpp"

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace stormtrack {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

}  // namespace

// ---------------------------------------------------------- SerialExecutor

void SerialExecutor::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) body(i);
  busy_ns_.fetch_add(ns_since(t0), std::memory_order_relaxed);
  tasks_.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
}

ExecutorStats SerialExecutor::stats() const {
  ExecutorStats s;
  s.threads = 1;
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

Executor& serial_executor() {
  static SerialExecutor exec;
  return exec;
}

int parse_thread_count(std::string_view text, std::string_view source) {
  int value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  ST_CHECK_MSG(ec != std::errc::result_out_of_range,
               source << ": thread count '" << text << "' is out of range");
  ST_CHECK_MSG(ec == std::errc() && ptr == last && !text.empty(),
               source << ": thread count must be a non-negative integer, got '"
                      << text << "'");
  ST_CHECK_MSG(value >= 0,
               source << ": thread count must be >= 0, got " << value);
  return value;
}

int default_thread_count() {
  if (const char* env = std::getenv("STORMTRACK_THREADS")) {
    const int n = parse_thread_count(env, "STORMTRACK_THREADS");
    if (n > 0) return n;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// ------------------------------------------------------ ThreadPoolExecutor

namespace {

/// One parallel_for call in flight. Indices are claimed from `next` by the
/// submitting thread and any idle workers; `done` counts completions so the
/// submitter can wait for indices still running on other threads.
struct Batch {
  Batch(std::size_t n_, const std::function<void(std::size_t)>* body_)
      : n(n_), body(body_) {}

  const std::size_t n;
  const std::function<void(std::size_t)>* body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};

  std::mutex mutex;                 // guards error* and pairs with cv
  std::condition_variable cv;       // signalled when done reaches n
  std::exception_ptr error;         // lowest failing index's exception
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }
};

}  // namespace

struct ThreadPoolExecutor::Impl {
  explicit Impl(int thread_count) {
    workers.reserve(static_cast<std::size_t>(thread_count));
    for (int t = 0; t < thread_count; ++t)
      workers.emplace_back([this] { worker_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard lk(mutex);
      stop = true;
    }
    cv.notify_all();
    for (std::thread& t : workers) t.join();
  }

  /// Claim and run indices of \p b until none remain unclaimed. Safe to
  /// call from workers and submitters alike.
  void drain(Batch& b) {
    for (std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
         i < b.n; i = b.next.fetch_add(1, std::memory_order_relaxed)) {
      const auto t0 = Clock::now();
      try {
        (*b.body)(i);
      } catch (...) {
        std::lock_guard lk(b.mutex);
        if (i < b.error_index) {
          b.error_index = i;
          b.error = std::current_exception();
        }
      }
      busy_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
      tasks.fetch_add(1, std::memory_order_relaxed);
      if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.n) {
        // Lock pairs with the submitter's predicate check: without it the
        // notify could slip between its predicate evaluation and wait.
        std::lock_guard lk(b.mutex);
        b.cv.notify_all();
      }
    }
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Batch> b;
      {
        std::unique_lock lk(mutex);
        cv.wait(lk, [this] { return stop || !batches.empty(); });
        if (batches.empty()) {
          if (stop) return;
          continue;
        }
        b = batches.front();
      }
      drain(*b);
      std::lock_guard lk(mutex);
      std::erase(batches, b);  // exhausted; stop routing workers to it
    }
  }

  std::mutex mutex;                          // guards batches + stop
  std::condition_variable cv;
  std::deque<std::shared_ptr<Batch>> batches;
  bool stop = false;
  std::vector<std::thread> workers;

  std::atomic<std::int64_t> tasks{0};
  std::atomic<std::int64_t> batches_run{0};
  std::atomic<std::int64_t> busy_ns{0};
};

ThreadPoolExecutor::ThreadPoolExecutor(int threads) {
  ST_CHECK_MSG(threads >= 0, "thread count must be >= 0, got " << threads);
  if (threads == 0) threads = default_thread_count();
  impl_ = std::make_unique<Impl>(threads);
}

ThreadPoolExecutor::~ThreadPoolExecutor() = default;

int ThreadPoolExecutor::concurrency() const {
  return static_cast<int>(impl_->workers.size());
}

void ThreadPoolExecutor::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  auto b = std::make_shared<Batch>(n, &body);
  {
    std::lock_guard lk(impl_->mutex);
    impl_->batches.push_back(b);
  }
  impl_->cv.notify_all();
  // Participate: claim indices alongside the workers. Afterwards every
  // index is either done or running on some thread, so the wait below can
  // only be on actively executing tasks — nesting cannot deadlock.
  impl_->drain(*b);
  // Take the exception out of the batch before rethrowing: a worker may
  // still hold the batch and drop the last reference to it later, and the
  // exception must die on this thread, which catches it, not in that
  // worker's release of the batch.
  std::exception_ptr error;
  {
    std::unique_lock lk(b->mutex);
    b->cv.wait(lk, [&] {
      return b->done.load(std::memory_order_acquire) == n;
    });
    error = std::exchange(b->error, nullptr);
  }
  {
    std::lock_guard lk(impl_->mutex);
    std::erase(impl_->batches, b);  // workers may have erased it already
  }
  impl_->batches_run.fetch_add(1, std::memory_order_relaxed);
  if (error) std::rethrow_exception(error);
}

ExecutorStats ThreadPoolExecutor::stats() const {
  ExecutorStats s;
  s.threads = concurrency();
  s.tasks = impl_->tasks.load(std::memory_order_relaxed);
  s.batches = impl_->batches_run.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(impl_->busy_ns.load(std::memory_order_relaxed)) *
      1e-9;
  return s;
}

}  // namespace stormtrack
