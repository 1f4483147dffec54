//===- lfmalloc/SuperblockCache.cpp - Hyperblock-batched superblocks ------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/SuperblockCache.h"

#include "schedtest/SchedPoint.h"
#include "support/Platform.h"
#include "support/Usdt.h"
#include "telemetry/ContentionHook.h"
#include "support/Timing.h"
#include "telemetry/Telemetry.h"

#include <atomic>
#include <cassert>
#include <new>

using namespace lfm;

namespace {

// A stale TreiberStack::pop may load the link word of a node it no longer
// owns (its tagged CAS then fails), so once a superblock has been on a
// stack its link is only ever written through atomic_ref, the way
// TreiberStack::push writes it.

/// Writes a free-list link that a stale popper may be reading.
template <class NodeT> void storeLink(NodeT *&Link, NodeT *Value) {
  std::atomic_ref<NodeT *>(Link).store(Value, std::memory_order_relaxed);
}

/// Starts a free-list node in \p Mem with no plain store to its link:
/// default-initialization leaves Next alone, and push() writes it.
template <class NodeT> NodeT *startNode(void *Mem, std::uint64_t Flags) {
  auto *Node = new (Mem) NodeT;
  Node->Flags = Flags;
  return Node;
}

} // namespace

SuperblockCache::SuperblockCache(PageAllocator &Pages, std::size_t SbSize,
                                 std::size_t HyperSize)
    : Pages(Pages), SbSize(SbSize), HyperSize(HyperSize),
      SbsPerHyper(HyperSize
                      ? static_cast<std::uint32_t>(HyperSize / SbSize - 1)
                      : 0) {
  assert(isPowerOf2(SbSize) && SbSize >= OsPageSize &&
         "superblock size must be a power-of-two number of pages");
  assert((HyperSize == 0 ||
          (isPowerOf2(HyperSize) && HyperSize >= 4 * SbSize)) &&
         "hyperblock must fit a header slot plus several superblocks");
  LastDecayMs.store(monotonicNanos() / 1'000'000,
                    std::memory_order_relaxed);
}

SuperblockCache::~SuperblockCache() {
  HyperHeader *Hyper = Hypers.load(std::memory_order_relaxed);
  while (Hyper) {
    HyperHeader *Next = Hyper->Next;
    Pages.unmap(Hyper, HyperSize);
    Hyper = Next;
  }
}

void *SuperblockCache::acquire() {
  if (HyperSize == 0) {
    void *Sb = Pages.map(SbSize);
    if (Sb) {
      LFM_TEL_CTR(Tel, SbAcquires);
      LFM_TEL_EVT(Tel, OsMap, SbSize, 0);
      LFM_PROBE2(sb_acquire, Sb, SbSize);
    }
    return Sb;
  }

  // Decay runs off the allocator's slow paths; acquire is the allocation
  // side's (release covers the deallocation side), so an alloc-only phase
  // still trims on schedule.
  maybeDecay();

  // The pop below opens a nested TreiberPop scope; by design the
  // innermost active retry loop owns the thread's progress slot.
  LFM_CONT_LOOP(SbAcquire);
  for (;;) {
    LFM_CONT_ATTEMPT(SbAcquire);
    LFM_SCHED_POINT(SbAcquire);
    if (FreeSb *Sb = FreeList.pop()) {
      CachedSbs.fetch_sub(1, std::memory_order_relaxed);
      hyperOf(Sb)->FreeCount.fetch_sub(1, std::memory_order_relaxed);
      if (LFM_UNLIKELY(Sb->Flags & FreeSbDecommitted)) {
        // The tail pages were returned to the OS; they refault as zeros on
        // first touch, which the caller's "contents unspecified" contract
        // already allows.
        DecommittedSbs.fetch_sub(1, std::memory_order_relaxed);
        LFM_TEL_CTR(Tel, SbRecommits);
      }
      LFM_TEL_CTR(Tel, SbAcquires);
      LFM_PROBE2(sb_acquire, Sb, SbSize);
      return Sb;
    }
    if (unparkHyperblock())
      continue;
    if (!mintHyperblock())
      return nullptr;
  }
}

void SuperblockCache::release(void *Sb) {
  assert(Sb && "releasing null superblock");
  LFM_TEL_CTR(Tel, SbReleases);
  LFM_PROBE2(sb_release, Sb, SbSize);
  if (HyperSize == 0) {
    Pages.unmap(Sb, SbSize);
    LFM_TEL_EVT(Tel, OsUnmap, SbSize, 0);
    return;
  }
  LFM_SCHED_POINT(SbRelease);
  hyperOf(Sb)->FreeCount.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t Cached =
      CachedSbs.fetch_add(1, std::memory_order_relaxed) + 1;
  FreeSb *Node = startNode<FreeSb>(Sb, 0);
  // Over the retention watermark: return this superblock's physical pages
  // right away. This must happen *before* the push — afterwards another
  // thread could pop the block and write into pages we are discarding.
  if (LFM_UNLIKELY(Cached * SbSize >
                   RetainMaxBytes.load(std::memory_order_relaxed)))
    decommitTail(Node);
  FreeList.push(Node);
  maybeDecay();
}

void SuperblockCache::decommitTail(FreeSb *Node) {
  // The first page stays resident: it carries the free-list link that a
  // stalled popper may still read (TreiberStack type-stability).
  if (!Pages.decommit(reinterpret_cast<char *>(Node) + OsPageSize,
                      SbSize - OsPageSize))
    return;
  Node->Flags |= FreeSbDecommitted;
  DecommittedSbs.fetch_add(1, std::memory_order_relaxed);
  LFM_TEL_CTR(Tel, SbDecommits);
  LFM_TEL_EVT(Tel, OsDecommit, SbSize - OsPageSize, 0);
}

void SuperblockCache::maybeDecay() {
  const std::int64_t D = DecayMs.load(std::memory_order_relaxed);
  if (LFM_LIKELY(D < 0))
    return;
  const std::uint64_t NowMs = monotonicNanos() / 1'000'000;
  std::uint64_t Last = LastDecayMs.load(std::memory_order_relaxed);
  if (NowMs - Last < static_cast<std::uint64_t>(D))
    return;
  // One thread wins the epoch CAS and runs the trim; everyone else goes
  // straight back to work.
  if (!LastDecayMs.compare_exchange_strong(Last, NowMs,
                                           std::memory_order_relaxed))
    return;
  const std::size_t Keep = RetainMaxBytes.load(std::memory_order_relaxed);
  trimRetained(Keep == ~std::size_t{0} ? 0 : Keep);
}

bool SuperblockCache::mintHyperblock() {
  void *Raw = Pages.map(HyperSize, HyperSize);
  if (!Raw)
    return false;
  LFM_TEL_CTR(Tel, HyperblockMaps);
  LFM_TEL_EVT(Tel, OsMap, HyperSize, 0);
  auto *Hyper = new (Raw) HyperHeader();
  Hyper->FreeCount.store(SbsPerHyper, std::memory_order_relaxed);
  Hyper->Next = Hypers.load(std::memory_order_relaxed);
  while (!Hypers.compare_exchange_weak(Hyper->Next, Hyper,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
  // Slot 0 hosts the header; slots 1..SbsPerHyper are superblocks.
  char *Base = static_cast<char *>(Raw);
  for (std::uint32_t I = 1; I <= SbsPerHyper; ++I)
    FreeList.push(
        startNode<FreeSb>(Base + static_cast<std::size_t>(I) * SbSize, 0));
  CachedSbs.fetch_add(SbsPerHyper, std::memory_order_relaxed);
  return true;
}

bool SuperblockCache::unparkHyperblock() {
  HyperHeader *Hyper = Parked.pop();
  if (!Hyper)
    return false;
  // Revive: all SbsPerHyper superblocks go back on the free list, still
  // tail-decommitted (their pages refault zero-filled on first use). The
  // header page was never decommitted, so FreeCount survived intact at
  // SbsPerHyper.
  Hyper->Parked.store(false, std::memory_order_relaxed);
  Hyper->TrimCollected.store(0, std::memory_order_relaxed);
  ParkedHypers.fetch_sub(1, std::memory_order_relaxed);
  LFM_TEL_CTR(Tel, HyperblockUnparks);
  LFM_PROBE2(hyperblock_unpark, Hyper, HyperSize);
  char *Base = reinterpret_cast<char *>(Hyper);
  CachedSbs.fetch_add(SbsPerHyper, std::memory_order_relaxed);
  DecommittedSbs.fetch_add(SbsPerHyper, std::memory_order_relaxed);
  for (std::uint32_t I = 1; I <= SbsPerHyper; ++I) {
    FreeList.push(startNode<FreeSb>(Base + static_cast<std::size_t>(I) * SbSize,
                                    FreeSbDecommitted));
  }
  return true;
}

std::size_t SuperblockCache::trimRetained(std::size_t KeepBytes) {
  if (HyperSize == 0)
    return 0;
  // Non-blocking single-trimmer slot: a loser returns immediately (the
  // winner is already doing the work), so no caller ever waits.
  if (TrimActive.exchange(true, std::memory_order_acquire))
    return 0;
  LFM_TEL_CTR(Tel, TrimRuns);
#if LFM_TELEMETRY
  // Trim passes are rare and entirely tail (they run under the retention
  // watermark or on OOM rescue), so every winner is timed, not sampled.
  const std::uint64_t LatStart =
      Tel != nullptr ? Tel->latency().rareBegin() : 0;
#endif

  // Drain the free list into a private chain. Every node drained is ours
  // alone; concurrent acquirers see an empty list and mint/unpark.
  FreeSb *Chain = nullptr;
  std::uint64_t Drained = 0;
  for (;;) {
    LFM_SCHED_POINT(SbTrim);
    FreeSb *Sb = FreeList.pop();
    if (!Sb)
      break;
    CachedSbs.fetch_sub(1, std::memory_order_relaxed);
    storeLink(Sb->Next, Chain);
    Chain = Sb;
    ++Drained;
  }

  // Pass A: tally how many superblocks of each hyperblock we hold. A
  // hyperblock is parkable only when we drained every one of its slots —
  // FreeCount alone is racy (a popped-but-not-yet-reused block still
  // counts as free there).
  for (FreeSb *Node = Chain; Node; Node = Node->Next)
    hyperOf(Node)->TrimCollected.fetch_add(1, std::memory_order_relaxed);

  // Pass B: walk the chain once. Nodes of fully-collected hyperblocks are
  // withheld (their hyperblock gets parked below); survivors are re-pushed,
  // tail-decommitting those beyond the keep budget. The budget can also
  // spare a would-be-parked hyperblock by demoting one of its nodes back
  // to survivor (TrimCollected drops below the full count, so the rest of
  // its nodes classify as survivors too).
  std::size_t BudgetLeft = KeepBytes;
  std::size_t Released = 0;
  HyperHeader *DeadQ = nullptr;
  for (FreeSb *Node = Chain; Node;) {
    FreeSb *Next = Node->Next;
    HyperHeader *Hyper = hyperOf(Node);
    std::uint32_t Collected =
        Hyper->TrimCollected.load(std::memory_order_relaxed);
    bool Dead = Collected >= SbsPerHyper;
    // The spare is only legal before the hyperblock is queued (sentinel):
    // afterwards its siblings must all stay withheld or Pass C would
    // decommit a hyperblock with a block back in circulation.
    if (Dead && Collected == SbsPerHyper && BudgetLeft >= SbSize) {
      Hyper->TrimCollected.store(Collected - 1, std::memory_order_relaxed);
      Dead = false;
    }
    if (Dead) {
      if (Collected == SbsPerHyper) {
        // First withheld node of this hyperblock: queue it once, using the
        // +1 sentinel so siblings skip the queueing.
        Hyper->TrimCollected.store(SbsPerHyper + 1,
                                   std::memory_order_relaxed);
        storeLink(Hyper->ParkNext, DeadQ);
        DeadQ = Hyper;
      }
      if (Node->Flags & FreeSbDecommitted)
        DecommittedSbs.fetch_sub(1, std::memory_order_relaxed);
    } else {
      const bool AlreadyOut = Node->Flags & FreeSbDecommitted;
      if (!AlreadyOut) {
        if (BudgetLeft >= SbSize) {
          BudgetLeft -= SbSize;
        } else {
          decommitTail(Node);
          Released += SbSize - OsPageSize;
        }
      }
      CachedSbs.fetch_add(1, std::memory_order_relaxed);
      FreeList.push(Node);
    }
    Node = Next;
  }

  // Pass C: park the fully-collected hyperblocks. Only now is it safe to
  // decommit their interiors — during Pass B a sibling node's link fields
  // still had to stay readable. The header page stays resident for the
  // Parked-stack link and FreeCount.
  while (DeadQ) {
    HyperHeader *Hyper = DeadQ;
    DeadQ = Hyper->ParkNext;
    Pages.decommit(reinterpret_cast<char *>(Hyper) + OsPageSize,
                   HyperSize - OsPageSize);
    Hyper->Parked.store(true, std::memory_order_relaxed);
    ParkedHypers.fetch_add(1, std::memory_order_relaxed);
    LFM_TEL_CTR(Tel, HyperblockParks);
    LFM_PROBE2(hyperblock_park, Hyper, HyperSize);
    LFM_TEL_EVT(Tel, OsDecommit, HyperSize - OsPageSize, 0);
    Released += HyperSize - OsPageSize;
    Parked.push(Hyper);
  }

  // Reset the tallies of live hyperblocks for the next pass. Parked ones
  // keep the sentinel until unpark clears it. Walking the Hypers list is
  // safe against concurrent minting: a new head simply is not visited and
  // its tally is already zero.
  for (HyperHeader *Hyper = Hypers.load(std::memory_order_acquire); Hyper;
       Hyper = Hyper->Next)
    if (!Hyper->Parked.load(std::memory_order_relaxed))
      Hyper->TrimCollected.store(0, std::memory_order_relaxed);

  LFM_TEL_EVT(Tel, Trim, Released, Drained);
  LFM_PROBE2(trim_pass, Released, Drained);
#if LFM_TELEMETRY
  if (LatStart != 0)
    Tel->latency().rareEnd(LatStart, telemetry::LatencyPath::Trim);
#endif
  TrimActive.store(false, std::memory_order_release);
  return Released;
}

std::size_t SuperblockCache::trimQuiescent() {
  if (HyperSize == 0)
    return 0;

  // Quiescent: no concurrent acquires/releases/trims. Parked hyperblocks
  // are fully free by construction, so draining the Parked stack and
  // letting the FreeCount partition below classify them as dead is enough.
  while (Parked.pop() != nullptr) {
  }
  ParkedHypers.store(0, std::memory_order_relaxed);

  // Pop the whole free list, then re-push only superblocks whose
  // hyperblock is not fully free; unmap the fully free hyperblocks.
  FreeSb *Kept = nullptr;
  while (FreeSb *Sb = FreeList.pop()) {
    storeLink(Sb->Next, Kept);
    Kept = Sb;
  }

  // Partition the hyper list into survivors and fully free hyperblocks.
  HyperHeader *DeadList = nullptr;
  HyperHeader *Live = nullptr;
  for (HyperHeader *Hyper = Hypers.load(std::memory_order_relaxed); Hyper;) {
    HyperHeader *Next = Hyper->Next;
    if (Hyper->FreeCount.load(std::memory_order_relaxed) == SbsPerHyper) {
      Hyper->Next = DeadList;
      DeadList = Hyper;
    } else {
      Hyper->Next = Live;
      Live = Hyper;
    }
    Hyper = Next;
  }
  Hypers.store(Live, std::memory_order_relaxed);

  // Re-push survivors whose hyperblock stays mapped.
  std::uint64_t Remaining = 0;
  std::uint64_t RemainingDecommitted = 0;
  while (Kept) {
    FreeSb *Next = Kept->Next;
    bool Dead = false;
    for (HyperHeader *D = DeadList; D; D = D->Next)
      if (hyperOf(Kept) == D)
        Dead = true;
    if (!Dead) {
      if (Kept->Flags & FreeSbDecommitted)
        ++RemainingDecommitted;
      FreeList.push(Kept);
      ++Remaining;
    }
    Kept = Next;
  }
  CachedSbs.store(Remaining, std::memory_order_relaxed);
  DecommittedSbs.store(RemainingDecommitted, std::memory_order_relaxed);

  std::size_t Freed = 0;
  while (DeadList) {
    HyperHeader *Next = DeadList->Next;
    Pages.unmap(DeadList, HyperSize);
    LFM_TEL_CTR(Tel, HyperblockUnmaps);
    LFM_TEL_EVT(Tel, OsUnmap, HyperSize, 0);
    Freed += HyperSize;
    DeadList = Next;
  }
  return Freed;
}
