//===- bench_latency_micro.cpp - §4.2.1 micro latency ---------------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// google-benchmark microbenchmarks behind the paper's §4.2.1 latency
// argument:
//
//   "the average contention-free latency for a pair of lock acquire and
//    release is 165 ns. ... the average contention-free latency for a
//    pair of malloc and free in Linux Scalability using our allocator is
//    282 ns., i.e., it is less than twice that of a minimal critical
//    section protected by a lightweight test-and-set lock."
//
// The reproduction target is the RATIO: malloc/free pair (new) should be
// under ~2x a bare TasLock acquire/release pair, and under every
// lock-based allocator's pair.
//
//===----------------------------------------------------------------------===//

#include "baselines/AllocatorInterface.h"
#include "lfmalloc/LFAllocator.h"
#include "support/SpinLock.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

using namespace lfm;

namespace {

void BM_MallocFreePair(benchmark::State &State, AllocatorKind Kind) {
  auto Alloc = makeAllocator(Kind, 4);
  for (auto _ : State) {
    void *P = Alloc->malloc(8);
    benchmark::DoNotOptimize(P);
    Alloc->free(P);
  }
}

void BM_TasLockPair(benchmark::State &State) {
  TasLock Lock;
  for (auto _ : State) {
    Lock.lock();
    benchmark::ClobberMemory();
    Lock.unlock();
  }
}

void BM_CasPair(benchmark::State &State) {
  std::atomic<std::uint64_t> Word{0};
  std::uint64_t V = 0;
  for (auto _ : State) {
    Word.compare_exchange_strong(V, V + 1, std::memory_order_acq_rel);
    benchmark::DoNotOptimize(V);
  }
}

void BM_SeqCstFence(benchmark::State &State) {
  for (auto _ : State)
    std::atomic_thread_fence(std::memory_order_seq_cst);
}

/// The §4.2.1 fence-count claim: the lock-free allocator's malloc/free
/// pair on the common path performs one publication fence (free's hazard
/// pin) plus its CASes — measured here directly on LFAllocator without
/// the virtual-dispatch adapter.
void BM_LFAllocatorDirectPair(benchmark::State &State) {
  LFAllocator Alloc;
  for (auto _ : State) {
    void *P = Alloc.allocate(8);
    benchmark::DoNotOptimize(P);
    Alloc.deallocate(P);
  }
}

/// Telemetry cost under contention: all threads hammer ONE stats-enabled
/// allocator, so every pair also bumps Mallocs/Frees/FromActive. The
/// counters are sharded by thread index; compare 1 vs 8 threads against
/// BM_StatsOffPairShared to see that the counter writes don't serialize.
void BM_StatsOnPairShared(benchmark::State &State) {
  static LFAllocator *Alloc = [] {
    AllocatorOptions Opts;
    Opts.EnableStats = true;
    return new LFAllocator(Opts);
  }();
  for (auto _ : State) {
    void *P = Alloc->allocate(8);
    benchmark::DoNotOptimize(P);
    Alloc->deallocate(P);
  }
}

/// Control for BM_StatsOnPairShared: the same shared-allocator pair with
/// counters off isolates the telemetry delta from ordinary allocator
/// contention.
void BM_StatsOffPairShared(benchmark::State &State) {
  static LFAllocator *Alloc = new LFAllocator;
  for (auto _ : State) {
    void *P = Alloc->allocate(8);
    benchmark::DoNotOptimize(P);
    Alloc->deallocate(P);
  }
}

} // namespace

BENCHMARK_CAPTURE(BM_MallocFreePair, new_, AllocatorKind::LockFree);
BENCHMARK_CAPTURE(BM_MallocFreePair, new_uni, AllocatorKind::LockFreeUni);
BENCHMARK_CAPTURE(BM_MallocFreePair, hoard, AllocatorKind::Hoard);
BENCHMARK_CAPTURE(BM_MallocFreePair, ptmalloc, AllocatorKind::Ptmalloc);
BENCHMARK_CAPTURE(BM_MallocFreePair, libc, AllocatorKind::SerialLock);
BENCHMARK(BM_LFAllocatorDirectPair);
BENCHMARK(BM_StatsOnPairShared)->Threads(1)->Threads(8);
BENCHMARK(BM_StatsOffPairShared)->Threads(1)->Threads(8);
BENCHMARK(BM_TasLockPair);
BENCHMARK(BM_CasPair);
BENCHMARK(BM_SeqCstFence);

BENCHMARK_MAIN();
