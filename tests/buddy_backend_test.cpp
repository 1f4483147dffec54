//===- tests/buddy_backend_test.cpp - Lock-free buddy large backend -------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// The buddy large-object backend (BuddyBackend.h): order rounding, the
// split/coalesce accounting of the counting-tree protocol, steady-state
// freedom from OS map traffic, alignment, the >max-order and exhaustion
// OS fallbacks, ENOMEM propagation under fault injection, watermark
// decommit + trim, deterministic seeded double-runs, placement around a
// busy block without rollbacks, a full-span reject that one free lifts,
// an allocating thread that reuses another thread's frees,
// exact sharded meters under more threads than shards, and the quiescent
// structural validator — plus the os backend's byte-identical behavior as
// the reference. Seeded randomness derives from LFM_TEST_SEED
// (tests/TestSeed.h).
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/BuddyBackend.h"
#include "lfmalloc/LFAllocator.h"
#include "lfmalloc/SizeClasses.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

using namespace lfm;

namespace {

constexpr std::size_t MinOrder = BuddyBackend::MinOrderBytes; // 8 KiB
constexpr std::size_t MaxOrder = BuddyBackend::MaxOrderBytes; // 8 MiB

class BuddyBackendTest : public ::testing::Test {
protected:
  /// A buddy-backed instance with the smallest legal span (8 MiB = one
  /// tree root) so span-boundary behavior is cheap to reach.
  AllocatorOptions buddyOptions(std::size_t SpanBytes = MaxOrder) {
    AllocatorOptions Opts;
    Opts.NumHeaps = 1;
    Opts.EnableStats = true;
    Opts.LargeBackend = LargeBackendKind::Buddy;
    Opts.BuddySpanBytes = SpanBytes;
    return Opts;
  }

  static LargeBackendSnapshot snap(const LFAllocator &A) {
    LargeBackendSnapshot S;
    A.largeBackendSnapshot(S);
    return S;
  }

  static void expectValid(const LFAllocator &A) {
    const char *What = nullptr;
    EXPECT_TRUE(A.debugValidateLargeBackend(&What))
        << "buddy invariant broken: " << (What ? What : "?");
  }

  /// Sum of the free-forest census plus live bytes must cover the whole
  /// reservation when the backend is quiescent.
  static void expectCensusComplete(const LargeBackendSnapshot &S) {
    std::uint64_t Free = 0;
    for (unsigned O = 0; O < S.NumOrders; ++O)
      Free += S.FreeBytesByOrder[O];
    EXPECT_EQ(Free + S.BytesAllocated, S.BytesReserved);
  }
};

TEST_F(BuddyBackendTest, RoundsToOrdersAndAccounts) {
  LFAllocator A(buddyOptions());
  ASSERT_TRUE(A.largeBackendIsBuddy());

  // Each request lands in the smallest order covering payload + prefix.
  const std::size_t Probes[] = {MinOrder, MinOrder + 1, 3 * MinOrder,
                                (1u << 20) - 64, 1u << 20, (4u << 20) + 9};
  for (std::size_t Bytes : Probes) {
    const LargeBackendSnapshot Before = snap(A);
    void *P = A.allocate(Bytes);
    ASSERT_NE(P, nullptr);
    EXPECT_GE(A.usableSize(P), Bytes);
    std::memset(P, 0x5C, Bytes);
    const LargeBackendSnapshot After = snap(A);
    EXPECT_EQ(After.Allocs, Before.Allocs + 1) << Bytes;
    const std::uint64_t Order = After.BytesAllocated - Before.BytesAllocated;
    // Rounded size is a power of two in [MinOrder, MaxOrder] that covers
    // the request + prefix but is not gratuitously large.
    EXPECT_EQ(Order & (Order - 1), 0u) << Bytes;
    EXPECT_GE(Order, Bytes);
    EXPECT_LT(Order / 2, Bytes + BlockPrefixSize) << Bytes;
    A.deallocate(P);
    EXPECT_EQ(snap(A).Frees, After.Frees + 1);
  }
  EXPECT_EQ(snap(A).BytesAllocated, 0u);
  expectValid(A);
  expectCensusComplete(snap(A));
}

TEST_F(BuddyBackendTest, SplitAndCoalesceCountsMatchTreeDepth) {
  LFAllocator A(buddyOptions());
  // The smallest large-path block: an 8 KiB payload's total (+ prefix)
  // exceeds the last 8 KiB size class, so it rounds to a 16 KiB buddy —
  // 2 levels above the leaves. Its first claim in a fresh 8 MiB span
  // carves every level above it: exactly NumOrders-2 splits. Freeing it
  // drains the same ancestors back to zero: NumOrders-2 coalesces.
  const LargeBackendSnapshot S0 = snap(A);
  void *P = A.allocate(MinOrder);
  ASSERT_NE(P, nullptr);
  const LargeBackendSnapshot S1 = snap(A);
  EXPECT_EQ(S1.Splits - S0.Splits, BuddyBackend::NumOrders - 2);
  EXPECT_EQ(S1.BytesAllocated, 2 * MinOrder);

  // A sibling-sized claim reuses the carved path: no further splits.
  void *Q = A.allocate(MinOrder);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(snap(A).Splits, S1.Splits);

  A.deallocate(Q);
  A.deallocate(P);
  const LargeBackendSnapshot S2 = snap(A);
  EXPECT_EQ(S2.Coalesces - S0.Coalesces, BuddyBackend::NumOrders - 2);
  EXPECT_EQ(S2.BytesAllocated, 0u);
  // The span is whole again: the census shows one max-order free block.
  EXPECT_EQ(S2.FreeBytesByOrder[S2.NumOrders - 1], S2.BytesReserved);
  expectValid(A);
}

TEST_F(BuddyBackendTest, SteadyStateMakesNoMapCalls) {
  LFAllocator A(buddyOptions(std::size_t{1} << 27)); // 128 MiB span
  // Warm up: one round touches the span and commits its pages.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(A.allocate(1u << 20));
  for (void *P : Ptrs)
    A.deallocate(P);
  Ptrs.clear();

  // Steady state: the whole churn is CAS traffic inside the span — zero
  // map/unmap/reserve syscalls. This is the backend's reason to exist.
  const PageStats Before = A.pageStats();
  for (int Round = 0; Round < 32; ++Round) {
    for (int I = 0; I < 16; ++I)
      Ptrs.push_back(A.allocate(1u << 20));
    for (void *P : Ptrs)
      A.deallocate(P);
    Ptrs.clear();
  }
  const PageStats After = A.pageStats();
  EXPECT_EQ(After.MapCalls, Before.MapCalls);
  EXPECT_EQ(After.UnmapCalls, Before.UnmapCalls);
  EXPECT_EQ(After.ReserveCalls, Before.ReserveCalls);
  expectValid(A);
}

TEST_F(BuddyBackendTest, AlignedAllocationsWithinSpan) {
  LFAllocator A(buddyOptions());
  for (std::size_t Align : {std::size_t{4096}, std::size_t{1} << 16,
                            std::size_t{1} << 20}) {
    char *P = static_cast<char *>(A.allocateAligned(Align, 512 << 10));
    ASSERT_NE(P, nullptr) << Align;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(P) % Align, 0u) << Align;
    std::memset(P, 0x3D, 512 << 10);
    A.deallocate(P);
  }
  EXPECT_EQ(snap(A).BytesAllocated, 0u);
  expectValid(A);
}

TEST_F(BuddyBackendTest, AboveMaxOrderFallsBackToOs) {
  LFAllocator A(buddyOptions());
  const LargeBackendSnapshot Before = snap(A);
  const std::size_t BeforeUse = A.pageStats().BytesInUse;
  char *P = static_cast<char *>(A.allocate(MaxOrder)); // + prefix > max
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x11, MaxOrder);
  const LargeBackendSnapshot Mid = snap(A);
  EXPECT_EQ(Mid.OsFallbacks, Before.OsFallbacks + 1);
  EXPECT_EQ(Mid.BytesAllocated, Before.BytesAllocated)
      << "fallback block must not be charged to the spans";
  A.deallocate(P);
  EXPECT_EQ(A.pageStats().BytesInUse, BeforeUse)
      << "fallback free must unmap immediately (Fig. 6 line 5)";
  expectValid(A);
}

TEST_F(BuddyBackendTest, SpanExhaustionFallsBackThenRecovers) {
  LFAllocator A(buddyOptions()); // one 8 MiB root per span
  // Claim whole max-order blocks until every span slot is in play and the
  // backend resorts to direct maps.
  std::vector<void *> Blocks;
  const std::size_t Payload = (MaxOrder / 2) - BlockPrefixSize;
  LargeBackendSnapshot S = snap(A);
  while (snap(A).OsFallbacks == S.OsFallbacks) {
    void *P = A.allocate(Payload);
    ASSERT_NE(P, nullptr);
    Blocks.push_back(P);
    ASSERT_LE(Blocks.size(), 4096u) << "fallback never engaged";
  }
  for (void *P : Blocks)
    A.deallocate(P);
  // With the spans drained the next claim comes from a span again.
  S = snap(A);
  void *P = A.allocate(Payload);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(snap(A).OsFallbacks, S.OsFallbacks);
  A.deallocate(P);
  expectValid(A);
  expectCensusComplete(snap(A));
}

TEST_F(BuddyBackendTest, ExhaustionSetsEnomem) {
  LFAllocator A(buddyOptions());
  // Refuse every further OS operation: the first large request needs a
  // span reserve (which fails), then tries the direct-map fallback (which
  // fails) — the user must see null + ENOMEM, never a crash.
  A.debugInjectMapFailuresAfter(0);
  errno = 0;
  EXPECT_EQ(A.allocate(1u << 20), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  A.debugInjectMapFailuresAfter(-1);
  // The backend is not poisoned: maps restored, allocation succeeds.
  void *P = A.allocate(1u << 20);
  EXPECT_NE(P, nullptr);
  A.deallocate(P);
  expectValid(A);
}

TEST_F(BuddyBackendTest, WatermarkZeroDecommitsOnFree) {
  AllocatorOptions Opts = buddyOptions();
  Opts.RetainMaxBytes = 0; // Return every free committed page eagerly.
  LFAllocator A(Opts);
  const PageStats Before = A.pageStats();
  void *P = A.allocate(4u << 20);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x6E, 4u << 20);
  A.deallocate(P);
  const PageStats After = A.pageStats();
  EXPECT_GT(After.DecommitCalls, Before.DecommitCalls);
  EXPECT_GE(After.BytesDecommitted - Before.BytesDecommitted, 4u << 20);
  const LargeBackendSnapshot S = snap(A);
  EXPECT_GT(S.Decommits, 0u);
  EXPECT_EQ(S.FreeCommittedBytes, 0u);
  expectValid(A);
}

TEST_F(BuddyBackendTest, TrimReleasesRetainedPages) {
  LFAllocator A(buddyOptions()); // Default watermark: retain everything.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 8; ++I)
    Ptrs.push_back(A.allocate(512 << 10));
  for (void *P : Ptrs) {
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x42, 512 << 10);
    A.deallocate(P);
  }
  const LargeBackendSnapshot Retained = snap(A);
  EXPECT_GE(Retained.FreeCommittedBytes, 8u * (512u << 10))
      << "frees below the watermark must stay resident";

  const std::size_t Freed = A.trimLargeBackend(0);
  EXPECT_GE(Freed, Retained.FreeCommittedBytes);
  EXPECT_EQ(snap(A).FreeCommittedBytes, 0u);
  // Trimmed address space is still reserved and still allocatable.
  void *P = A.allocate(512 << 10);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0x24, 512 << 10);
  A.deallocate(P);
  expectValid(A);
}

TEST_F(BuddyBackendTest, ReallocAcrossOrdersPreservesContent) {
  LFAllocator A(buddyOptions());
  const std::size_t Start = 256 << 10;
  char *P = static_cast<char *>(A.allocate(Start));
  ASSERT_NE(P, nullptr);
  for (std::size_t I = 0; I < Start; ++I)
    P[I] = static_cast<char>(I * 29 + 3);
  // Grow across buddy orders (copy path) and past the max order (into an
  // OS-fallback block), then shrink back into a span.
  char *Q = static_cast<char *>(A.reallocate(P, 2u << 20));
  ASSERT_NE(Q, nullptr);
  char *R = static_cast<char *>(A.reallocate(Q, MaxOrder + (1u << 20)));
  ASSERT_NE(R, nullptr);
  char *S = static_cast<char *>(A.reallocate(R, Start / 2));
  ASSERT_NE(S, nullptr);
  for (std::size_t I = 0; I < Start / 2; ++I)
    ASSERT_EQ(S[I], static_cast<char>(I * 29 + 3)) << "byte " << I;
  A.deallocate(S);
  EXPECT_EQ(snap(A).BytesAllocated, 0u);
  expectValid(A);
}

TEST_F(BuddyBackendTest, SeededChurnIsDeterministic) {
  // The same seeded operation sequence against two fresh instances must
  // land every counter on the same value: no hidden time/address
  // dependence in the single-threaded protocol.
  const std::uint64_t Seed = test::baseSeed() + 9001;
  auto Run = [&](LFAllocator &A) {
    std::mt19937_64 Rng(Seed);
    std::vector<std::pair<void *, std::size_t>> Live;
    for (int Op = 0; Op < 400; ++Op) {
      if (Live.empty() || (Rng() & 3) != 0) {
        const std::size_t Bytes =
            MinOrder / 2 + Rng() % (2u << 20);
        void *P = A.allocate(Bytes);
        ASSERT_NE(P, nullptr);
        std::memset(P, 0x7A, 64);
        Live.emplace_back(P, Bytes);
      } else {
        const std::size_t Victim = Rng() % Live.size();
        A.deallocate(Live[Victim].first);
        Live[Victim] = Live.back();
        Live.pop_back();
      }
    }
    for (auto &[P, Bytes] : Live)
      A.deallocate(P);
    expectValid(A);
  };
  LFAllocator A1(buddyOptions()), A2(buddyOptions());
  Run(A1);
  Run(A2);
  const LargeBackendSnapshot S1 = snap(A1), S2 = snap(A2);
  EXPECT_EQ(S1.Allocs, S2.Allocs);
  EXPECT_EQ(S1.Frees, S2.Frees);
  EXPECT_EQ(S1.Splits, S2.Splits);
  EXPECT_EQ(S1.Coalesces, S2.Coalesces);
  EXPECT_EQ(S1.OsFallbacks, S2.OsFallbacks);
  EXPECT_EQ(S1.BytesAllocated, S2.BytesAllocated);
  EXPECT_EQ(S1.BytesAllocated, 0u);
}

TEST_F(BuddyBackendTest, ConcurrentChurnKeepsInvariants) {
  LFAllocator A(buddyOptions(std::size_t{1} << 27));
  constexpr int NumThreads = 4, OpsPerThread = 300;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&A, T] {
      std::mt19937_64 Rng(test::baseSeed() + 31 * T);
      std::vector<void *> Live;
      for (int Op = 0; Op < OpsPerThread; ++Op) {
        if (Live.empty() || (Rng() & 1)) {
          const std::size_t Bytes = MinOrder + Rng() % (1u << 20);
          if (void *P = A.allocate(Bytes)) {
            std::memset(P, T + 1, 64);
            Live.push_back(P);
          }
        } else {
          A.deallocate(Live.back());
          Live.pop_back();
        }
      }
      for (void *P : Live)
        A.deallocate(P);
    });
  for (std::thread &T : Threads)
    T.join();
  const LargeBackendSnapshot S = snap(A);
  EXPECT_EQ(S.Allocs - S.OsFallbacks, S.Frees - 0u);
  EXPECT_EQ(S.BytesAllocated, 0u);
  expectValid(A);
  expectCensusComplete(S);
}

TEST_F(BuddyBackendTest, PlacementSkipsBusyBlockWithoutRollback) {
  // Drive the backend directly so every order, the 8 KiB one included, is
  // reachable. Four roots; every level's hint starts at index 0.
  PageAllocator Pages;
  BuddyBackend B(Pages);
  B.configure(4 * MaxOrder, ~std::size_t{0});
  LargeBackend::Allocation Whole;
  ASSERT_TRUE(B.allocate(MaxOrder, OsPageSize, Whole));
  ASSERT_FALSE(Whole.OsMapped);
  // A fresh span hands out root 0, so the busy block sits exactly where
  // every finer level's hint points: its zero descendants are the first
  // words each scan reads.
  const char *Base = static_cast<const char *>(Whole.Block);

  std::vector<LargeBackend::Allocation> Smaller;
  for (std::size_t Bytes = MaxOrder / 2; Bytes >= MinOrder; Bytes /= 2) {
    LargeBackend::Allocation A;
    ASSERT_TRUE(B.allocate(Bytes, OsPageSize, A)) << Bytes;
    ASSERT_FALSE(A.OsMapped) << Bytes;
    EXPECT_EQ(A.Total, Bytes);
    // Outside the busy block, and packed into the next root (the orders
    // below the max sum to less than one root).
    const char *P = static_cast<const char *>(A.Block);
    EXPECT_GE(P, Base + MaxOrder) << Bytes;
    EXPECT_LE(P + Bytes, Base + 2 * MaxOrder) << Bytes;
    Smaller.push_back(A);
  }
  LargeBackendSnapshot S;
  B.snapshot(S);
  // largebackend.rollbacks: the ancestor pre-check skips the busy range
  // instead of claiming a word under it and undoing the claim.
  EXPECT_EQ(S.Rollbacks, 0u);
  EXPECT_EQ(S.Allocs, Smaller.size() + 1);

  for (const LargeBackend::Allocation &A : Smaller)
    B.deallocate(A.Block, A.Total);
  B.deallocate(Whole.Block, Whole.Total);
  const char *What = nullptr;
  EXPECT_TRUE(B.debugValidate(&What)) << (What ? What : "?");
}

TEST_F(BuddyBackendTest, FullSpanRejectClearsOnFree) {
  // One root per span, driven directly so 8 KiB blocks are reachable.
  PageAllocator Pages;
  {
    BuddyBackend B(Pages);
    B.configure(MaxOrder, ~std::size_t{0});
    std::vector<LargeBackend::Allocation> Span0;
    for (std::size_t I = 0; I < MaxOrder / MinOrder; ++I) {
      LargeBackend::Allocation A;
      ASSERT_TRUE(B.allocate(MinOrder, OsPageSize, A)) << I;
      Span0.push_back(A);
    }
    const char *Base0 = static_cast<const char *>(Span0.front().Block);
    const auto InSpan0 = [Base0](const void *P) {
      const char *C = static_cast<const char *>(P);
      return C >= Base0 && C < Base0 + MaxOrder;
    };
    for (const LargeBackend::Allocation &A : Span0)
      ASSERT_TRUE(InSpan0(A.Block)) << "span 0 was not filled first";

    // Span 0 is full at the leaf level: this claim confirms it and marks
    // the level full, then goes on to span 1.
    LargeBackend::Allocation Over;
    ASSERT_TRUE(B.allocate(MinOrder, OsPageSize, Over));
    ASSERT_FALSE(Over.OsMapped);
    EXPECT_FALSE(InSpan0(Over.Block));
    const char *What = nullptr;
    EXPECT_TRUE(B.debugValidate(&What)) << (What ? What : "?");

    // One free in span 0 must lift the reject: the next claim lands on it.
    const LargeBackend::Allocation Freed = Span0[Span0.size() / 2];
    B.deallocate(Freed.Block, Freed.Total);
    LargeBackend::Allocation Back;
    ASSERT_TRUE(B.allocate(MinOrder, OsPageSize, Back));
    EXPECT_EQ(Back.Block, Freed.Block)
        << "a span with a free 8 KiB block was still rejected as full";
    Span0[Span0.size() / 2] = Back;

    for (const LargeBackend::Allocation &A : Span0)
      B.deallocate(A.Block, A.Total);
    B.deallocate(Over.Block, Over.Total);
    EXPECT_TRUE(B.debugValidate(&What)) << (What ? What : "?");
  }
  const PageStats After = Pages.stats();
  EXPECT_EQ(After.ReserveCalls, 2u);
  EXPECT_EQ(After.BytesReserved, 0u);
}

TEST_F(BuddyBackendTest, AllocatingThreadReusesAnotherThreadsFrees) {
  // Producer/consumer split: this thread only allocates, another thread
  // (on another hint row) frees everything. The frees never lower this
  // thread's hint, so only the span's Low row can keep its next claims
  // off pages that were never touched.
  constexpr unsigned K = 64;
  PageAllocator Pages;
  BuddyBackend B(Pages);
  B.configure(MaxOrder, ~std::size_t{0}); // One root: 8 KiB leaves reachable.
  std::vector<LargeBackend::Allocation> Blocks(K);
  for (LargeBackend::Allocation &A : Blocks)
    ASSERT_TRUE(B.allocate(MinOrder, OsPageSize, A));
  LargeBackendSnapshot Before;
  B.snapshot(Before);
  ASSERT_EQ(Before.BytesCommitted, K * MinOrder);

  const std::uint32_t Producer = threadIndex();
  bool Freed = false;
  while (!Freed) // Thread indices are never reused: one more try at most.
    std::thread([&] {
      if (((threadIndex() ^ Producer) & (BuddyBackend::MeterShards - 1)) == 0)
        return; // Same hint row as the producer: not a split.
      for (const LargeBackend::Allocation &A : Blocks)
        B.deallocate(A.Block, A.Total);
      Freed = true;
    }).join();

  for (LargeBackend::Allocation &A : Blocks)
    ASSERT_TRUE(B.allocate(MinOrder, OsPageSize, A));
  LargeBackendSnapshot After;
  B.snapshot(After);
  EXPECT_EQ(After.BytesCommitted, Before.BytesCommitted)
      << "the allocating thread faulted in fresh pages while blocks another "
         "thread had freed were free";
  for (const LargeBackend::Allocation &A : Blocks)
    B.deallocate(A.Block, A.Total);
  const char *What = nullptr;
  EXPECT_TRUE(B.debugValidate(&What)) << (What ? What : "?");
}

TEST_F(BuddyBackendTest, ShardedMetersExactWithMoreThreadsThanShards) {
  // More threads than meter shards, so some threads share a shard; every
  // block is freed by a different thread than the one that allocated it,
  // so its bytes leave a different shard than they entered.
  AllocatorOptions Opts = buddyOptions(std::size_t{1} << 28);
  LFAllocator A(Opts);
  constexpr unsigned NumThreads = BuddyBackend::MeterShards + 3;
  constexpr unsigned PerRound = 4, Rounds = 24;
  std::vector<std::atomic<void *>> Mailbox(NumThreads * PerRound);
  std::barrier Sync(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937_64 Rng(test::baseSeed() + 77 * T);
      for (unsigned R = 0; R < Rounds; ++R) {
        for (unsigned K = 0; K < PerRound; ++K) {
          // No ASSERT here: a thread leaving early would strand the rest
          // at the barrier. Null frees are no-ops.
          void *P = A.allocate(MinOrder + Rng() % (1u << 20));
          EXPECT_NE(P, nullptr);
          if (P != nullptr)
            std::memset(P, static_cast<int>(T + 1), 64);
          Mailbox[T * PerRound + K].store(P, std::memory_order_relaxed);
        }
        Sync.arrive_and_wait();
        const unsigned From = (T + 1) % NumThreads;
        for (unsigned K = 0; K < PerRound; ++K)
          A.deallocate(
              Mailbox[From * PerRound + K].load(std::memory_order_relaxed));
        Sync.arrive_and_wait();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  const LargeBackendSnapshot S = snap(A);
  EXPECT_EQ(S.OsFallbacks, 0u);
  EXPECT_EQ(S.Allocs, std::uint64_t{NumThreads} * PerRound * Rounds);
  EXPECT_EQ(S.Allocs, S.Frees);
  EXPECT_EQ(S.BytesAllocated, 0u);
  EXPECT_EQ(S.FreeCommittedBytes, S.BytesCommitted);
  // Committed bytes == popcount of the residency bitmaps, allocated bytes
  // == the busy blocks of the trees.
  expectValid(A);
  expectCensusComplete(S);
}

TEST_F(BuddyBackendTest, OsBackendKeepsPaperBehavior) {
  // LargeBackendKind::OsDirect must reproduce the paper's large path
  // operation for operation: one map per malloc, one unmap per free.
  AllocatorOptions Opts;
  Opts.NumHeaps = 1;
  Opts.EnableStats = true;
  Opts.LargeBackend = LargeBackendKind::OsDirect;
  LFAllocator A(Opts);
  ASSERT_FALSE(A.largeBackendIsBuddy());
  EXPECT_FALSE(snap(A).Buddy);

  const PageStats Before = A.pageStats();
  std::vector<void *> Ptrs;
  for (int I = 0; I < 8; ++I) {
    Ptrs.push_back(A.allocate(1u << 20));
    ASSERT_NE(Ptrs.back(), nullptr);
  }
  const PageStats Mid = A.pageStats();
  EXPECT_EQ(Mid.MapCalls, Before.MapCalls + 8);
  for (void *P : Ptrs)
    A.deallocate(P);
  const PageStats After = A.pageStats();
  EXPECT_EQ(After.UnmapCalls, Mid.UnmapCalls + 8);
  EXPECT_EQ(After.BytesInUse, Before.BytesInUse);
  EXPECT_EQ(After.ReserveCalls, Before.ReserveCalls);
}

} // namespace
