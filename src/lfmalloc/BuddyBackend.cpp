//===- lfmalloc/BuddyBackend.cpp - Non-blocking buddy large backend -------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// See BuddyBackend.h for the protocol and its correctness argument. Two
// discipline notes for this translation unit:
//
//  - It must contribute zero telemetry symbols under LFM_TELEMETRY=0 (CI
//    nm check): all instrumentation goes through the ContentionHook.h /
//    SchedPoint.h macro gates, and the backend's own statistics are plain
//    relaxed atomics (per-thread meter shards) folded into telemetry
//    counters at snapshot time.
//
//  - Span status trees and residency bitmaps live in zero-filled mmap
//    memory and are accessed through std::atomic without placement-new:
//    the static_asserts below pin the layout assumptions that make the
//    all-zero byte pattern a valid "everything free" initial state.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/BuddyBackend.h"

#include "schedtest/SchedPoint.h"
#include "support/Usdt.h"
#include "telemetry/ContentionHook.h"

#include <cassert>

using namespace lfm;

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "status-tree nodes overlay raw zeroed pages");
static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t),
              "residency bitmap words overlay raw zeroed pages");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "the buddy protocol requires lock-free word atomics");

unsigned BuddyBackend::orderForTotal(std::size_t Total) {
  if (Total > MaxOrderBytes)
    return NumOrders;
  if (Total <= MinOrderBytes)
    return 0;
  const unsigned Bits =
      64 - static_cast<unsigned>(
               __builtin_clzll(static_cast<unsigned long long>(Total - 1)));
  return Bits - MinOrderShift;
}

BuddyBackend::~BuddyBackend() {
  for (std::atomic<Span *> &SlotRef : Spans) {
    Span *S = SlotRef.exchange(nullptr, std::memory_order_acq_rel);
    if (S == nullptr)
      continue;
    Pages.recordUncommit(
        static_cast<std::size_t>(S->Committed.load(std::memory_order_relaxed)));
    Pages.unreserve(S->Base, S->Bytes);
    Pages.unmap(S, S->MetaBytes);
  }
}

BuddyBackend::Span *BuddyBackend::spanAt(unsigned Slot) {
  Span *S = Spans[Slot].load(std::memory_order_acquire);
  if (LFM_LIKELY(S != nullptr))
    return S;

  // Mint a span: one accounted mapping for [Span | trees | bitmap], then
  // the MAP_NORESERVE reservation it describes. Racing minters both build;
  // the CAS loser tears its copy down and adopts the winner's.
  const std::size_t Bytes = SpanBytes;
  const std::uint32_t TopCount =
      static_cast<std::uint32_t>(Bytes >> MaxOrderShift);
  const std::size_t Nodes =
      static_cast<std::size_t>(TopCount) * ((1u << NumOrders) - 1);
  const std::size_t Words = ((Bytes >> MinOrderShift) + 63) / 64;
  const std::size_t TreeOff = alignUp(sizeof(Span), CacheLineSize);
  const std::size_t ResOff =
      alignUp(TreeOff + Nodes * sizeof(std::uint32_t), CacheLineSize);
  const std::size_t MetaBytes = ResOff + Words * sizeof(std::uint64_t);

  void *Meta = Pages.map(MetaBytes);
  if (Meta == nullptr)
    return nullptr;
  char *Base = static_cast<char *>(Pages.reserve(Bytes, MaxOrderBytes));
  if (Base == nullptr) {
    Pages.unmap(Meta, MetaBytes);
    return nullptr;
  }

  Span *Fresh = static_cast<Span *>(Meta);
  Fresh->Base = Base;
  Fresh->Bytes = Bytes;
  Fresh->TopCount = TopCount;
  Fresh->MetaBytes = MetaBytes;
  Fresh->Tree = reinterpret_cast<std::atomic<std::uint32_t> *>(
      static_cast<char *>(Meta) + TreeOff);
  Fresh->Resident = reinterpret_cast<std::atomic<std::uint64_t> *>(
      static_cast<char *>(Meta) + ResOff);
  Fresh->Committed.store(0, std::memory_order_relaxed);
  Fresh->Allocated.store(0, std::memory_order_relaxed);
  for (std::atomic<std::uint32_t> &H : Fresh->Hint)
    H.store(0, std::memory_order_relaxed);

  Span *Expected = nullptr;
  if (!Spans[Slot].compare_exchange_strong(Expected, Fresh,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    Pages.unreserve(Base, Bytes);
    Pages.unmap(Meta, MetaBytes);
    return Expected;
  }
  bump(&MeterShard::SpanReserves);
  LFM_PROBE2(buddy_span_reserve, Base, Bytes);
  return Fresh;
}

BuddyBackend::Span *BuddyBackend::spanOf(const void *P) const {
  const char *C = static_cast<const char *>(P);
  for (const std::atomic<Span *> &SlotRef : Spans) {
    Span *S = SlotRef.load(std::memory_order_acquire);
    if (S == nullptr)
      continue;
    if (C >= S->Base && C < S->Base + S->Bytes)
      return S;
  }
  return nullptr;
}

bool BuddyBackend::upMark(Span &S, unsigned Level, std::uint32_t Idx,
                          bool Account) {
  std::uint32_t I = Idx;
  std::uint64_t NewSplits = 0;
  for (unsigned A = Level; A > 0;) {
    --A;
    I >>= 1;
    const std::uint32_t Old =
        node(S, A, I).fetch_add(1, std::memory_order_acq_rel);
    if (LFM_UNLIKELY((Old & BusyBit) != 0)) {
      // An enclosing block was concurrently allocated as a unit and its
      // claim completed below us. Retreat: subtract exactly the increments
      // made so far (levels A .. Level-1), then release our claim mark.
      // Counters commute, so concurrent claims are untouched.
      std::uint32_t J = Idx;
      for (unsigned B = Level; B > A;) {
        --B;
        J >>= 1;
        node(S, B, J).fetch_sub(1, std::memory_order_release);
      }
      node(S, Level, Idx).fetch_sub(BusyBit | 1, std::memory_order_release);
      bump(&MeterShard::Rollbacks);
      return false;
    }
    if ((Old & CountMask) == 0)
      ++NewSplits; // This free whole is now carved into: a split.
  }
  if (Account && NewSplits != 0)
    bump(&MeterShard::Splits, NewSplits);
  return true;
}

void BuddyBackend::downMark(Span &S, unsigned Level, std::uint32_t Idx,
                            bool Account) {
  node(S, Level, Idx).fetch_sub(BusyBit | 1, std::memory_order_release);
  std::uint32_t I = Idx;
  std::uint64_t NewCoalesces = 0;
  for (unsigned A = Level; A > 0;) {
    --A;
    I >>= 1;
    const std::uint32_t Old =
        node(S, A, I).fetch_sub(1, std::memory_order_release);
    if ((Old & CountMask) == 1 && (Old & BusyBit) == 0)
      ++NewCoalesces; // Subtree drained: this block is whole again.
  }
  if (Account && NewCoalesces != 0)
    bump(&MeterShard::Coalesces, NewCoalesces);
}

std::uint32_t BuddyBackend::busyAncestorEnd(const Span &S, unsigned Level,
                                            std::uint32_t Idx) {
  std::uint32_t J = Idx;
  for (unsigned A = Level; A > 0;) {
    --A;
    J >>= 1;
    const std::uint32_t V = node(S, A, J).load(std::memory_order_relaxed);
    if (V == 0)
      continue;
    if ((V & BusyBit) != 0)
      return (J + 1) << (Level - A); // First index past the busy range.
    return 0; // Carved: nothing above it is a unit allocation.
  }
  return 0;
}

std::int64_t BuddyBackend::allocFromSpan(Span &S, unsigned Level) {
  // Cheap full-span reject before an O(level-width) scan.
  if (S.Bytes - S.Allocated.load(std::memory_order_relaxed) <
      blockBytes(Level))
    return -1;
  const std::uint32_t N = S.TopCount << Level;
  const std::uint32_t Hint = S.Hint[Level].load(std::memory_order_relaxed);
  const std::uint32_t Start = Hint < N ? Hint : 0;
  LFM_CONT_LOOP(BuddyAlloc);
  for (std::uint32_t Step = 0; Step < N; ++Step) {
    std::uint32_t I = Start + Step;
    if (I >= N)
      I -= N;
    std::atomic<std::uint32_t> &Node = node(S, Level, I);
    if (Node.load(std::memory_order_relaxed) != 0)
      continue;
    // Ancestor pre-check: a zero word under a unit allocation is not
    // free. Skip the whole range instead of claiming and rolling back.
    // Ranges are aligned and N is a multiple of their width, so the jump
    // never crosses the wrap point.
    if (const std::uint32_t End = busyAncestorEnd(S, Level, I)) {
      Step += End - I - 1;
      continue;
    }
    LFM_CONT_ATTEMPT(BuddyAlloc);
    LFM_SCHED_POINT(BuddyAlloc);
    std::uint32_t Expected = 0;
    if (LFM_SCHED_CAS_FAIL(BuddyAlloc) ||
        !Node.compare_exchange_strong(Expected, BusyBit | 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed))
      continue; // Lost the word to a peer; keep scanning.
    if (!upMark(S, Level, I, /*Account=*/true))
      continue; // Rolled back: an enclosing block won. Keep scanning.
    if (I != Hint)
      S.Hint[Level].store(I, std::memory_order_relaxed);
    LFM_CONT_DONE(BuddyAlloc);
    return static_cast<std::int64_t>(I);
  }
  LFM_CONT_DONE(BuddyAlloc);
  return -1;
}

std::size_t BuddyBackend::commitRange(Span &S, std::size_t Off,
                                      std::size_t Len) {
  std::size_t Bit = Off >> MinOrderShift;
  const std::size_t End = (Off + Len) >> MinOrderShift;
  std::uint64_t NewBits = 0;
  while (Bit < End) {
    const std::size_t Word = Bit >> 6;
    const std::size_t WordEnd = (Word + 1) << 6;
    const unsigned Lo = static_cast<unsigned>(Bit & 63);
    const unsigned Hi =
        static_cast<unsigned>((End < WordEnd ? End : WordEnd) - (Word << 6));
    std::uint64_t Mask = ~std::uint64_t{0} << Lo;
    if (Hi < 64)
      Mask &= (std::uint64_t{1} << Hi) - 1;
    // Read first: once a block's pages are resident (the steady state)
    // committing it again writes nothing.
    if ((S.Resident[Word].load(std::memory_order_relaxed) & Mask) != Mask) {
      const std::uint64_t Old =
          S.Resident[Word].fetch_or(Mask, std::memory_order_relaxed);
      NewBits +=
          static_cast<std::uint64_t>(__builtin_popcountll(Mask & ~Old));
    }
    Bit = WordEnd;
  }
  const std::size_t NewBytes = static_cast<std::size_t>(NewBits)
                               << MinOrderShift;
  if (NewBytes != 0) {
    S.Committed.fetch_add(NewBytes, std::memory_order_relaxed);
    bump(&MeterShard::Committed, NewBytes);
    Pages.recordCommit(NewBytes);
  }
  return NewBytes;
}

std::size_t BuddyBackend::decommitRange(Span &S, std::size_t Off,
                                        std::size_t Len) {
  std::size_t Bit = Off >> MinOrderShift;
  const std::size_t End = (Off + Len) >> MinOrderShift;
  std::uint64_t ClearedBits = 0;
  while (Bit < End) {
    const std::size_t Word = Bit >> 6;
    const std::size_t WordEnd = (Word + 1) << 6;
    const unsigned Lo = static_cast<unsigned>(Bit & 63);
    const unsigned Hi =
        static_cast<unsigned>((End < WordEnd ? End : WordEnd) - (Word << 6));
    std::uint64_t Mask = ~std::uint64_t{0} << Lo;
    if (Hi < 64)
      Mask &= (std::uint64_t{1} << Hi) - 1;
    const std::uint64_t Old =
        S.Resident[Word].fetch_and(~Mask, std::memory_order_relaxed);
    ClearedBits +=
        static_cast<std::uint64_t>(__builtin_popcountll(Mask & Old));
    Bit = WordEnd;
  }
  const std::size_t ClearedBytes = static_cast<std::size_t>(ClearedBits)
                                   << MinOrderShift;
  if (ClearedBytes == 0)
    return 0; // Never touched: nothing resident to give back.
  // The caller holds the block's claim, so no one else can fault pages in
  // concurrently; untouched pages inside the range make madvise a no-op.
  Pages.decommit(S.Base + Off, Len);
  S.Committed.fetch_sub(ClearedBytes, std::memory_order_relaxed);
  drop(&MeterShard::Committed, ClearedBytes);
  Pages.recordUncommit(ClearedBytes);
  bump(&MeterShard::Decommits);
  return ClearedBytes;
}

bool BuddyBackend::allocate(std::size_t Total, std::size_t Align,
                            Allocation &Out) {
  // A buddy block's alignment equals its size, so folding the alignment
  // into the order request satisfies both with one claim.
  const std::size_t Want = Total < Align ? Align : Total;
  const unsigned Order = orderForTotal(Want);
  if (Order < NumOrders) {
    const unsigned Level = (NumOrders - 1) - Order;
    for (unsigned Slot = 0; Slot < MaxSpans; ++Slot) {
      Span *S = spanAt(Slot);
      if (S == nullptr)
        break; // Reservation refused: let the OS fallback try below.
      const std::int64_t Idx = allocFromSpan(*S, Level);
      if (Idx < 0)
        continue; // Span full (or fragmented) at this order.
      const std::size_t Len = blockBytes(Level);
      const std::size_t Off = static_cast<std::size_t>(Idx) * Len;
      S->Allocated.fetch_add(Len, std::memory_order_relaxed);
      bump(&MeterShard::Allocated, Len);
      commitRange(*S, Off, Len);
      bump(&MeterShard::Allocs);
      Out.Block = S->Base + Off;
      Out.Total = Len;
      Out.OsMapped = false;
      return true;
    }
  }
  // Above the max order, every span exhausted, or reservation impossible:
  // direct OS map, exactly the os backend's behavior.
  const std::size_t Rounded = alignUp(Total, OsPageSize);
  void *Block = Pages.map(Rounded, Align);
  if (Block == nullptr)
    return false;
  bump(&MeterShard::OsFallbacks);
  Out.Block = Block;
  Out.Total = Rounded;
  Out.OsMapped = true;
  return true;
}

bool BuddyBackend::deallocate(void *Block, std::size_t Total) {
  Span *S = spanOf(Block);
  if (S == nullptr) {
    Pages.unmap(Block, Total);
    return true;
  }
  const unsigned Order = orderForTotal(Total);
  assert(Order < NumOrders && blockBytes((NumOrders - 1) - Order) == Total &&
         "in-span frees carry the exact order size the allocate returned");
  const unsigned Level = (NumOrders - 1) - Order;
  const std::size_t Off =
      static_cast<std::size_t>(static_cast<char *>(Block) - S->Base);
  const std::uint32_t Idx = static_cast<std::uint32_t>(Off / Total);
  bump(&MeterShard::Frees);
  // Watermark decommit happens while the claim still stands: exclusivity
  // makes the madvise race-free, and the block re-enters circulation cold.
  // Only a bounded watermark needs the shard sums.
  const std::size_t Retain = RetainMax.load(std::memory_order_relaxed);
  if (Retain != ~std::size_t{0}) {
    const std::uint64_t C = sum(&MeterShard::Committed);
    const std::uint64_t A = sum(&MeterShard::Allocated);
    const std::uint64_t FreeAfter = C > A - Total ? C - (A - Total) : 0;
    if (FreeAfter > Retain)
      decommitRange(*S, Off, Total);
  }
  S->Allocated.fetch_sub(Total, std::memory_order_relaxed);
  drop(&MeterShard::Allocated, Total);
  downMark(*S, Level, Idx, /*Account=*/true);
  // Lower the hint to the freed block so scans pack toward low addresses.
  if (Idx < S->Hint[Level].load(std::memory_order_relaxed))
    S->Hint[Level].store(Idx, std::memory_order_relaxed);
  return false;
}

void *BuddyBackend::remap(void *Block, std::size_t OldTotal,
                          std::size_t NewTotal, std::size_t &RoundedTotal) {
  Span *S = spanOf(Block);
  if (S != nullptr) {
    // In-span blocks regrow only within their own order; merging with a
    // free sibling would need another claim protocol and realloc-grow of
    // large blocks is too rare to justify it. The caller copies instead.
    if (NewTotal <= OldTotal) {
      RoundedTotal = OldTotal;
      return Block;
    }
    const unsigned Order = orderForTotal(NewTotal);
    if (Order < NumOrders && blockBytes((NumOrders - 1) - Order) == OldTotal) {
      RoundedTotal = OldTotal;
      return Block;
    }
    return nullptr;
  }
  // OS-fallback blocks behave exactly like the os backend.
  const std::size_t Rounded = alignUp(NewTotal, OsPageSize);
  void *Fresh = Pages.remap(Block, OldTotal, Rounded);
  if (Fresh == nullptr)
    return nullptr;
  RoundedTotal = Rounded;
  return Fresh;
}

std::size_t BuddyBackend::trimNode(Span &S, unsigned Level, std::uint32_t Idx,
                                   std::size_t KeepBytes) {
  const std::uint32_t V = node(S, Level, Idx).load(std::memory_order_acquire);
  if ((V & BusyBit) != 0)
    return 0; // Allocated as a unit: nothing below is free.
  if ((V & CountMask) == 0) {
    const std::size_t Len = blockBytes(Level);
    const std::size_t Off = static_cast<std::size_t>(Idx) * Len;
    // Skip blocks with no resident pages: claiming them frees nothing.
    bool AnyResident = false;
    std::size_t Bit = Off >> MinOrderShift;
    const std::size_t End = (Off + Len) >> MinOrderShift;
    while (Bit < End) {
      const std::size_t Word = Bit >> 6;
      const std::size_t WordEnd = (Word + 1) << 6;
      const unsigned Lo = static_cast<unsigned>(Bit & 63);
      const unsigned Hi =
          static_cast<unsigned>((End < WordEnd ? End : WordEnd) - (Word << 6));
      std::uint64_t Mask = ~std::uint64_t{0} << Lo;
      if (Hi < 64)
        Mask &= (std::uint64_t{1} << Hi) - 1;
      if ((S.Resident[Word].load(std::memory_order_relaxed) & Mask) != 0) {
        AnyResident = true;
        break;
      }
      Bit = WordEnd;
    }
    if (!AnyResident)
      return 0;
    // Whole free block with resident pages: claim it through the normal
    // protocol so no allocation can race the decommit, give the pages
    // back, release. This is the obstruction-free coalesce walk — a lost
    // claim means an allocation won; descend and trim around it.
    LFM_CONT_LOOP(BuddyCoalesce);
    LFM_CONT_ATTEMPT(BuddyCoalesce);
    LFM_SCHED_POINT(BuddyCoalesce);
    std::uint32_t Expected = 0;
    const bool Claimed =
        !LFM_SCHED_CAS_FAIL(BuddyCoalesce) &&
        node(S, Level, Idx).compare_exchange_strong(Expected, BusyBit | 1,
                                                    std::memory_order_acq_rel,
                                                    std::memory_order_relaxed) &&
        upMark(S, Level, Idx, /*Account=*/false);
    LFM_CONT_DONE(BuddyCoalesce);
    if (Claimed) {
      const std::size_t Released = decommitRange(S, Off, Len);
      downMark(S, Level, Idx, /*Account=*/false);
      return Released;
    }
  }
  if (Level + 1 >= NumOrders)
    return 0;
  std::size_t Released = trimNode(S, Level + 1, 2 * Idx, KeepBytes);
  if (freeCommittedBytes() > KeepBytes)
    Released += trimNode(S, Level + 1, 2 * Idx + 1, KeepBytes);
  return Released;
}

std::size_t BuddyBackend::trim(std::size_t KeepBytes) {
  std::size_t Released = 0;
  for (std::atomic<Span *> &SlotRef : Spans) {
    if (freeCommittedBytes() <= KeepBytes)
      break;
    Span *S = SlotRef.load(std::memory_order_acquire);
    if (S == nullptr)
      break;
    for (std::uint32_t Root = 0; Root < S->TopCount; ++Root) {
      if (freeCommittedBytes() <= KeepBytes)
        break;
      Released += trimNode(*S, 0, Root, KeepBytes);
    }
  }
  return Released;
}

void BuddyBackend::walkFree(const Span &S, unsigned Level, std::uint32_t Idx,
                            LargeBackendSnapshot &Out) const {
  const std::uint32_t V = node(S, Level, Idx).load(std::memory_order_relaxed);
  if ((V & BusyBit) != 0)
    return;
  if ((V & CountMask) == 0) {
    Out.FreeBytesByOrder[(NumOrders - 1) - Level] += blockBytes(Level);
    return;
  }
  if (Level + 1 < NumOrders) {
    walkFree(S, Level + 1, 2 * Idx, Out);
    walkFree(S, Level + 1, 2 * Idx + 1, Out);
  }
}

void BuddyBackend::snapshot(LargeBackendSnapshot &Out) const {
  Out = LargeBackendSnapshot{};
  Out.Buddy = true;
  Out.NumOrders = NumOrders;
  Out.MinOrderBytes = MinOrderBytes;
  Out.MaxOrderBytes = MaxOrderBytes;
  Out.SpanBytes = SpanBytes;
  Out.BytesCommitted = sum(&MeterShard::Committed);
  Out.BytesAllocated = sum(&MeterShard::Allocated);
  Out.FreeCommittedBytes = freeCommittedBytes();
  Out.Allocs = sum(&MeterShard::Allocs);
  Out.Frees = sum(&MeterShard::Frees);
  Out.Splits = sum(&MeterShard::Splits);
  Out.Coalesces = sum(&MeterShard::Coalesces);
  Out.OsFallbacks = sum(&MeterShard::OsFallbacks);
  Out.Rollbacks = sum(&MeterShard::Rollbacks);
  Out.Decommits = sum(&MeterShard::Decommits);
  Out.SpanReserves = sum(&MeterShard::SpanReserves);
  for (const std::atomic<Span *> &SlotRef : Spans) {
    const Span *S = SlotRef.load(std::memory_order_acquire);
    if (S == nullptr)
      continue;
    ++Out.SpansReserved;
    Out.BytesReserved += S->Bytes;
    for (std::uint32_t Root = 0; Root < S->TopCount; ++Root)
      walkFree(*S, 0, Root, Out);
  }
}

bool BuddyBackend::debugValidate(const char **What) const {
  std::uint64_t Allocated = 0;
  std::uint64_t Committed = 0;
  for (const std::atomic<Span *> &SlotRef : Spans) {
    const Span *S = SlotRef.load(std::memory_order_acquire);
    if (S == nullptr)
      continue;
    std::uint64_t SpanBusyBytes = 0;
    for (unsigned Level = 0; Level < NumOrders; ++Level) {
      const std::uint32_t N = S->TopCount << Level;
      for (std::uint32_t I = 0; I < N; ++I) {
        const std::uint32_t V =
            node(*S, Level, I).load(std::memory_order_relaxed);
        const std::uint32_t Self = (V & BusyBit) != 0 ? 1u : 0u;
        if ((V & BusyBit) != 0 && (V & CountMask) != 1) {
          *What = "busy node whose subtree count is not exactly itself";
          return false;
        }
        if (Level + 1 < NumOrders) {
          const std::uint32_t L =
              node(*S, Level + 1, 2 * I).load(std::memory_order_relaxed) &
              CountMask;
          const std::uint32_t R =
              node(*S, Level + 1, 2 * I + 1).load(std::memory_order_relaxed) &
              CountMask;
          if ((V & CountMask) != Self + L + R) {
            *What = "node count != own busy bit + children counts";
            return false;
          }
        } else if ((V & CountMask) != Self) {
          *What = "leaf count disagrees with its busy bit";
          return false;
        }
        if (Self != 0)
          SpanBusyBytes += blockBytes(Level);
      }
    }
    if (SpanBusyBytes != S->Allocated.load(std::memory_order_relaxed)) {
      *What = "span allocated meter disagrees with busy blocks";
      return false;
    }
    Allocated += SpanBusyBytes;
    std::uint64_t SpanResident = 0;
    const std::size_t Words = ((S->Bytes >> MinOrderShift) + 63) / 64;
    for (std::size_t W = 0; W < Words; ++W)
      SpanResident += static_cast<std::uint64_t>(__builtin_popcountll(
          S->Resident[W].load(std::memory_order_relaxed)));
    SpanResident <<= MinOrderShift;
    if (SpanResident != S->Committed.load(std::memory_order_relaxed)) {
      *What = "span committed meter disagrees with residency bitmap";
      return false;
    }
    Committed += SpanResident;
  }
  if (Allocated != sum(&MeterShard::Allocated)) {
    *What = "backend allocated meter disagrees with spans";
    return false;
  }
  if (Committed != sum(&MeterShard::Committed)) {
    *What = "backend committed meter disagrees with spans";
    return false;
  }
  *What = nullptr;
  return true;
}
