#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace stormtrack {
namespace {

TEST(SerialExecutor, RunsEveryIndexInAscendingOrder) {
  SerialExecutor exec;
  std::vector<std::size_t> order;
  exec.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(exec.concurrency(), 1);
}

TEST(SerialExecutor, StatsAccumulate) {
  SerialExecutor exec;
  exec.parallel_for(3, [](std::size_t) {});
  exec.parallel_for(2, [](std::size_t) {});
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.tasks, 5);
  EXPECT_EQ(s.batches, 2);
  EXPECT_EQ(s.threads, 1);
}

TEST(SerialExecutor, ExceptionPropagates) {
  SerialExecutor exec;
  EXPECT_THROW(
      exec.parallel_for(3,
                        [](std::size_t i) {
                          if (i == 1) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolExecutor, RunsEveryIndexExactlyOnce) {
  ThreadPoolExecutor exec(4);
  EXPECT_EQ(exec.concurrency(), 4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  exec.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolExecutor, MapIndexedFillsSlotsInIndexOrder) {
  ThreadPoolExecutor exec(3);
  const std::vector<int> out =
      exec.map_indexed<int>(64, [](std::size_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(out.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)],
                                         i * i);
}

TEST(ThreadPoolExecutor, EmptyBatchIsANoop) {
  ThreadPoolExecutor exec(2);
  bool ran = false;
  exec.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(exec.stats().batches, 0);
}

TEST(ThreadPoolExecutor, LowestFailingIndexExceptionSurfacesAndPoolSurvives) {
  ThreadPoolExecutor exec(4);
  // Several indices throw; the contract picks the lowest deterministically.
  const auto run = [&] {
    exec.parallel_for(100, [](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("failed at " +
                                               std::to_string(i));
    });
  };
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      run();
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 3");
    }
  }
  // The pool survives failures and keeps executing new batches.
  std::atomic<int> count{0};
  exec.parallel_for(50, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 50);
  // A failed batch still counts as completed.
  EXPECT_EQ(exec.stats().batches, 4);
}

TEST(ThreadPoolExecutor, NestedParallelForDoesNotDeadlock) {
  ThreadPoolExecutor exec(2);  // fewer threads than nested batches in flight
  std::atomic<int> total{0};
  exec.parallel_for(8, [&](std::size_t) {
    exec.parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
  EXPECT_EQ(exec.stats().batches, 8 + 1);  // nested batches count too
}

TEST(ThreadPoolExecutor, MatchesSerialByteForByte) {
  ThreadPoolExecutor pool(4);
  SerialExecutor serial;
  const std::size_t n = 257;
  const auto f = [](std::size_t i) {
    // Nontrivial floating point: any reordering of these operations would
    // change bits.
    double x = static_cast<double>(i) + 0.1;
    for (int k = 0; k < 20; ++k) x = x * 1.0000001 + 1e-9;
    return x;
  };
  EXPECT_EQ(pool.map_indexed<double>(n, f), serial.map_indexed<double>(n, f));
}

TEST(ThreadPoolExecutor, ManyConcurrentSubmittersGetIndependentResults) {
  // The daemon's shape: several session-driving threads submit batches
  // into one pool concurrently; every submitter must observe exactly its
  // own serial-identical results.
  ThreadPoolExecutor pool(3);
  SerialExecutor serial;
  constexpr int kSubmitters = 6;
  const std::size_t n = 64;
  const auto f = [](int s) {
    return [s](std::size_t i) {
      return static_cast<double>(s * 1000) + static_cast<double>(i) * 1.25;
    };
  };
  std::vector<std::vector<double>> results(kSubmitters);
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s)
    threads.emplace_back(
        [&, s] { results[s] = pool.map_indexed<double>(n, f(s)); });
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < kSubmitters; ++s)
    EXPECT_EQ(results[s], serial.map_indexed<double>(n, f(s)))
        << "submitter " << s;
  const ExecutorStats stats = pool.stats();
  EXPECT_EQ(stats.batches, kSubmitters);
  EXPECT_EQ(stats.tasks, static_cast<std::int64_t>(kSubmitters) *
                             static_cast<std::int64_t>(n));
}

TEST(ThreadPoolExecutor, StatsCountTasksAndBatches) {
  ThreadPoolExecutor exec(2);
  exec.parallel_for(10, [](std::size_t) {});
  exec.parallel_for(5, [](std::size_t) {});
  const ExecutorStats s = exec.stats();
  EXPECT_EQ(s.tasks, 15);
  EXPECT_EQ(s.batches, 2);
  EXPECT_EQ(s.threads, 2);
  EXPECT_GE(s.busy_seconds, 0.0);
}

TEST(ThreadPoolExecutor, NegativeThreadCountRejected) {
  EXPECT_THROW(ThreadPoolExecutor(-1), CheckError);
}

TEST(ThreadPoolExecutor, ConcurrentThrowStressKeepsContract) {
  // 100 iterations of a batch where many indices throw concurrently: the
  // lowest failing index's exception must surface every time, and the pool
  // must stay usable for the next batch.
  ThreadPoolExecutor exec(8);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t lowest = static_cast<std::size_t>(iter % 5);
    try {
      exec.parallel_for(64, [&](std::size_t i) {
        if (i >= lowest && i % 2 == lowest % 2)
          throw std::runtime_error("idx " + std::to_string(i));
      });
      FAIL() << "iteration " << iter << ": expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), ("idx " + std::to_string(lowest)).c_str())
          << "iteration " << iter;
    }
    std::atomic<int> count{0};
    exec.parallel_for(16, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 16) << "pool unusable after iteration " << iter;
  }
}

TEST(Executor, HookOverloadRunsHookBeforeBodyPerIndex) {
  SerialExecutor exec;
  std::vector<std::string> log;
  exec.parallel_for(
      3, [&](std::size_t i) { log.push_back("body" + std::to_string(i)); },
      [&](std::size_t i) { log.push_back("hook" + std::to_string(i)); });
  EXPECT_EQ(log, (std::vector<std::string>{"hook0", "body0", "hook1", "body1",
                                           "hook2", "body2"}));
}

TEST(Executor, NullHookDegradesToPlainParallelFor) {
  SerialExecutor exec;
  int ran = 0;
  exec.parallel_for(4, [&](std::size_t) { ++ran; },
                    std::function<void(std::size_t)>{});
  EXPECT_EQ(ran, 4);
}

TEST(Executor, HookExceptionRidesTheLowestIndexContract) {
  ThreadPoolExecutor exec(4);
  try {
    exec.parallel_for(
        32, [](std::size_t) {},
        [](std::size_t i) {
          if (i % 3 == 1) throw std::runtime_error("hook " +
                                                   std::to_string(i));
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "hook 1");
  }
}

TEST(ParseThreadCount, AcceptsNonNegativeDecimals) {
  EXPECT_EQ(parse_thread_count("0", "test"), 0);
  EXPECT_EQ(parse_thread_count("1", "test"), 1);
  EXPECT_EQ(parse_thread_count("12", "test"), 12);
  EXPECT_EQ(parse_thread_count("128", "test"), 128);
}

TEST(ParseThreadCount, RejectsEmpty) {
  EXPECT_THROW((void)parse_thread_count("", "STORMTRACK_THREADS"),
               CheckError);
}

TEST(ParseThreadCount, RejectsNonNumeric) {
  EXPECT_THROW((void)parse_thread_count("auto", "test"), CheckError);
  EXPECT_THROW((void)parse_thread_count(" 4", "test"), CheckError);
}

TEST(ParseThreadCount, RejectsTrailingGarbage) {
  EXPECT_THROW((void)parse_thread_count("12abc", "test"), CheckError);
  EXPECT_THROW((void)parse_thread_count("4 ", "test"), CheckError);
}

TEST(ParseThreadCount, RejectsNegative) {
  EXPECT_THROW((void)parse_thread_count("-1", "test"), CheckError);
}

TEST(ParseThreadCount, RejectsOutOfRange) {
  EXPECT_THROW((void)parse_thread_count("99999999999999999999", "test"),
               CheckError);
}

TEST(ParseThreadCount, ErrorNamesTheSource) {
  try {
    (void)parse_thread_count("bogus", "STORMTRACK_THREADS");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("STORMTRACK_THREADS"),
              std::string::npos)
        << e.what();
  }
}

TEST(Executor, ResolveExecutorFallsBackToSerialSingleton) {
  EXPECT_EQ(&resolve_executor(nullptr), &serial_executor());
  SerialExecutor mine;
  EXPECT_EQ(&resolve_executor(&mine), &mine);
}

TEST(Executor, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1);
}

TEST(Executor, OccupancyFormula) {
  ExecutorStats s;
  s.threads = 4;
  s.busy_seconds = 2.0;
  EXPECT_DOUBLE_EQ(s.occupancy(1.0), 0.5);
  EXPECT_DOUBLE_EQ(s.occupancy(0.0), 0.0);
}

}  // namespace
}  // namespace stormtrack
