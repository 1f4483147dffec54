//===- tests/support_test.cpp - Support-library unit tests ----------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Barrier.h"
#include "support/Histogram.h"
#include "support/Platform.h"
#include "support/Random.h"
#include "support/SpinLock.h"
#include "support/ThreadRegistry.h"
#include "support/Timing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

using namespace lfm;

//===----------------------------------------------------------------------===
// Platform helpers
//===----------------------------------------------------------------------===

TEST(Platform, AlignUpBasics) {
  EXPECT_EQ(alignUp(0, 8), 0u);
  EXPECT_EQ(alignUp(1, 8), 8u);
  EXPECT_EQ(alignUp(8, 8), 8u);
  EXPECT_EQ(alignUp(9, 8), 16u);
  EXPECT_EQ(alignUp(4095, 4096), 4096u);
  EXPECT_EQ(alignUp(4097, 4096), 8192u);
}

TEST(Platform, AlignDownBasics) {
  EXPECT_EQ(alignDown(0, 8), 0u);
  EXPECT_EQ(alignDown(7, 8), 0u);
  EXPECT_EQ(alignDown(8, 8), 8u);
  EXPECT_EQ(alignDown(4097, 4096), 4096u);
}

TEST(Platform, AlignIsIdempotent) {
  for (std::uint64_t V : {0ull, 1ull, 63ull, 64ull, 65ull, 12345ull})
    for (std::uint64_t A : {1ull, 2ull, 64ull, 4096ull}) {
      EXPECT_EQ(alignUp(alignUp(V, A), A), alignUp(V, A));
      EXPECT_EQ(alignDown(alignDown(V, A), A), alignDown(V, A));
      EXPECT_LE(alignDown(V, A), V);
      EXPECT_GE(alignUp(V, A), V);
    }
}

TEST(Platform, PowerOf2) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ull << 40));
  EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(Platform, Log2) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(4), 2u);
  EXPECT_EQ(log2Ceil(1), 0u);
  EXPECT_EQ(log2Ceil(3), 2u);
  EXPECT_EQ(log2Ceil(4), 2u);
  EXPECT_EQ(log2Ceil(5), 3u);
}

//===----------------------------------------------------------------------===
// Random
//===----------------------------------------------------------------------===

TEST(Random, DeterministicPerSeed) {
  XorShift128 A(42), B(42), C(43);
  bool Diverged = false;
  for (int I = 0; I < 100; ++I) {
    const std::uint64_t V = A.next();
    EXPECT_EQ(V, B.next());
    if (V != C.next())
      Diverged = true;
  }
  EXPECT_TRUE(Diverged) << "different seeds must give different streams";
}

TEST(Random, ZeroSeedIsNotStuck) {
  XorShift128 Rng(0);
  std::set<std::uint64_t> Seen;
  for (int I = 0; I < 64; ++I)
    Seen.insert(Rng.next());
  EXPECT_GT(Seen.size(), 60u);
}

TEST(Random, BoundedStaysInBounds) {
  XorShift128 Rng(7);
  for (std::uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull})
    for (int I = 0; I < 1000; ++I)
      EXPECT_LT(Rng.nextBounded(Bound), Bound);
}

TEST(Random, RangeIsInclusive) {
  XorShift128 Rng(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 20000; ++I) {
    const std::uint64_t V = Rng.nextInRange(16, 80);
    ASSERT_GE(V, 16u);
    ASSERT_LE(V, 80u);
    SawLo |= V == 16;
    SawHi |= V == 80;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Random, RoughlyUniform) {
  XorShift128 Rng(123);
  constexpr int Buckets = 16, N = 160000;
  int Hist[Buckets] = {};
  for (int I = 0; I < N; ++I)
    ++Hist[Rng.nextBounded(Buckets)];
  for (int B = 0; B < Buckets; ++B) {
    EXPECT_GT(Hist[B], N / Buckets * 0.9) << "bucket " << B;
    EXPECT_LT(Hist[B], N / Buckets * 1.1) << "bucket " << B;
  }
}

//===----------------------------------------------------------------------===
// Timing
//===----------------------------------------------------------------------===

TEST(Timing, MonotonicNeverRegresses) {
  std::uint64_t Prev = monotonicNanos();
  for (int I = 0; I < 1000; ++I) {
    const std::uint64_t Now = monotonicNanos();
    ASSERT_GE(Now, Prev);
    Prev = Now;
  }
}

TEST(Timing, StopwatchMeasuresSleep) {
  Stopwatch W;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(W.elapsedNanos(), 15'000'000u);
  W.reset();
  EXPECT_LT(W.elapsedNanos(), 15'000'000u);
}

//===----------------------------------------------------------------------===
// Locks
//===----------------------------------------------------------------------===

namespace {

template <typename LockT> void exerciseMutualExclusion() {
  LockT Lock;
  long Counter = 0; // Deliberately non-atomic: the lock must protect it.
  constexpr int Threads = 8, PerThread = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        Lock.lock();
        ++Counter;
        Lock.unlock();
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Counter, static_cast<long>(Threads) * PerThread);
}

} // namespace

TEST(SpinLock, TasMutualExclusion) { exerciseMutualExclusion<TasLock>(); }

TEST(SpinLock, TryLockReportsContention) {
  TasLock Lock;
  EXPECT_TRUE(Lock.tryLock());
  EXPECT_TRUE(Lock.isLocked());
  EXPECT_FALSE(Lock.tryLock()) << "second tryLock must fail while held";
  Lock.unlock();
  EXPECT_FALSE(Lock.isLocked());
  EXPECT_TRUE(Lock.tryLock());
  Lock.unlock();
}

TEST(SpinLock, GuardReleasesOnScopeExit) {
  TasLock Lock;
  {
    LockGuard<TasLock> G(Lock);
    EXPECT_TRUE(Lock.isLocked());
  }
  EXPECT_FALSE(Lock.isLocked());
}

//===----------------------------------------------------------------------===
// Barrier
//===----------------------------------------------------------------------===

TEST(Barrier, AllArriveBeforeAnyProceeds) {
  constexpr unsigned Threads = 6;
  SpinBarrier Bar(Threads);
  std::atomic<unsigned> Arrived{0};
  std::atomic<bool> Violation{false};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      Arrived.fetch_add(1);
      Bar.arriveAndWait();
      if (Arrived.load() != Threads)
        Violation = true;
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Violation.load());
}

TEST(Barrier, ReusableAcrossPhases) {
  constexpr unsigned Threads = 4, Phases = 50;
  SpinBarrier Bar(Threads);
  std::atomic<unsigned> Phase[Phases] = {};
  std::atomic<bool> Violation{false};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      for (unsigned P = 0; P < Phases; ++P) {
        Phase[P].fetch_add(1);
        Bar.arriveAndWait();
        if (Phase[P].load() != Threads)
          Violation = true;
        Bar.arriveAndWait();
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Violation.load());
}

//===----------------------------------------------------------------------===
// ThreadRegistry
//===----------------------------------------------------------------------===

TEST(ThreadRegistry, StablePerThread) {
  const std::uint32_t A = threadIndex();
  EXPECT_EQ(A, threadIndex());
}

TEST(ThreadRegistry, DistinctAcrossThreads) {
  constexpr int N = 16;
  std::vector<std::uint32_t> Ids(N);
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&, I] { Ids[I] = threadIndex(); });
  for (auto &T : Ts)
    T.join();
  std::set<std::uint32_t> Unique(Ids.begin(), Ids.end());
  EXPECT_EQ(Unique.size(), static_cast<std::size_t>(N));
  EXPECT_GE(threadIndexWatermark(), static_cast<std::uint32_t>(N));
}

//===----------------------------------------------------------------------===
// Histogram / StreamingStats
//===----------------------------------------------------------------------===

TEST(StreamingStats, MeanAndExtremes) {
  StreamingStats S;
  for (double V : {1.0, 2.0, 3.0, 4.0, 5.0})
    S.add(V);
  EXPECT_EQ(S.count(), 5u);
  EXPECT_DOUBLE_EQ(S.mean(), 3.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 5.0);
  EXPECT_NEAR(S.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats All, Left, Right;
  XorShift128 Rng(5);
  for (int I = 0; I < 1000; ++I) {
    const double V = static_cast<double>(Rng.nextBounded(1000));
    All.add(V);
    (I % 2 ? Left : Right).add(V);
  }
  Left.merge(Right);
  EXPECT_EQ(Left.count(), All.count());
  EXPECT_NEAR(Left.mean(), All.mean(), 1e-9);
  EXPECT_NEAR(Left.stddev(), All.stddev(), 1e-9);
  EXPECT_EQ(Left.min(), All.min());
  EXPECT_EQ(Left.max(), All.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats A, Empty;
  A.add(7);
  A.merge(Empty);
  EXPECT_EQ(A.count(), 1u);
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 1u);
  EXPECT_DOUBLE_EQ(Empty.mean(), 7.0);
}

TEST(LogHistogram, QuantilesBracketTheData) {
  LogHistogram H;
  for (std::uint64_t V = 1; V <= 1024; ++V)
    H.add(V);
  EXPECT_EQ(H.count(), 1024u);
  const std::uint64_t Median = H.quantile(0.5);
  EXPECT_GE(Median, 256u);
  EXPECT_LE(Median, 1024u);
  EXPECT_LE(H.quantile(0.1), H.quantile(0.9));
  EXPECT_FALSE(H.summary().empty());
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram A, B;
  A.add(10);
  B.add(20);
  B.add(30);
  A.merge(B);
  EXPECT_EQ(A.count(), 3u);
}

TEST(LogHistogram, ZeroSample) {
  LogHistogram H;
  H.add(0);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.quantile(0.5), 0u);
}
