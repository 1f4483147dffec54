//===- lfmalloc/BuddyBackend.h - Non-blocking buddy large backend -*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free buddy system for large objects, replacing the per-operation
/// mmap/munmap round trip of the paper's large path with CAS-only span
/// management — the NBBS design (Marotta et al., "A Non-blocking Buddy
/// System for Scalable Memory Allocation on Multi-core Machines") married
/// to scalloc's reserve-large/commit-lazily virtual-memory strategy.
///
/// ## Layout
///
/// Address space comes in large reserved spans (default 1 GiB, mmap with
/// MAP_NORESERVE — no physical memory until touched). Each span is carved
/// into power-of-two blocks from 8 KiB (min order) to 8 MiB (max order); a
/// request above the max order, or one that finds every span exhausted,
/// falls back to a direct OS map exactly like the os backend.
///
/// Per span there is a forest of complete binary status trees, one rooted
/// at each max-order block, stored level-major in one flat array: level 0
/// holds the TopCount max-order roots, level k holds TopCount<<k nodes,
/// and node (k,i) has children (k+1,2i) and (k+1,2i+1). Each node is one
/// 32-bit word:
///
///     bit 31        BUSY  — this exact block is allocated as a unit
///     bits 30..0    count — number of BUSY nodes in this subtree
///                           (including the node itself)
///
/// A block is allocatable if and only if its word is 0 *and* no ancestor
/// is BUSY. The word alone is not enough: the descendants of a unit
/// allocation stay 0 (a claim marks only its own node and its ancestors),
/// so it is the up-mark — or the scan's ancestor pre-check — that rejects
/// them. This replaces NBBS's per-node occupancy bits with a counter,
/// which is what makes rollback lossless under concurrency: increments
/// and decrements commute, so a retreating claimer can always subtract
/// exactly what it added without clobbering concurrent claims.
///
/// ## Protocol
///
/// Allocate(order): scan the target level from a per-level hint for a
/// word equal to 0. Before claiming it, walk its ancestors with relaxed
/// loads up to the first nonzero one: a BUSY ancestor means the whole
/// range under it is taken, so the scan jumps past that range; a carved
/// (nonzero, non-BUSY) ancestor ends the walk, since nothing above a
/// carved block can be a unit allocation. Then claim with CAS(0 ->
/// BUSY|1) and walk the ancestors to the root doing fetch_add(+1). If any
/// fetch_add returns a value with BUSY set, an enclosing block was
/// allocated as a unit between the pre-check and the claim: subtract the
/// increments made so far, release the claim with fetch_sub(BUSY|1),
/// count a rollback, and continue scanning. The pre-check is only a
/// filter — the CAS and up-mark stay the correctness mechanism — so a
/// rollback always means a lost race, never a stale scan. The claim is
/// complete — and only then is the memory handed out — once every
/// ancestor has been marked, at which point no enclosing CAS can succeed
/// (every ancestor word is nonzero) and no descendant CAS can succeed
/// (the claimed word is nonzero). Ancestors whose returned count was 0
/// were free wholes this allocation carved into: those are the splits.
///
/// Free: fetch_sub(BUSY|1) on the node, then fetch_sub(1) on each ancestor
/// up to the root — no CAS, no retry: the free path is wait-free, and
/// coalescing is implicit: a block at any level is reusable the instant
/// its count drains to 0, with no sibling hand-shake. Ancestors whose
/// count reaches 0 are the coalesces.
///
/// Hint: each level's scan starts at its hint, which is written only when
/// it moves. An allocation leaves it at the index it claimed; a free
/// lowers it to the index it freed. Scans therefore restart near the
/// lowest recently freed block, packing live blocks toward the low end of
/// the span and keeping the touched (resident) part of it small.
///
/// Progress: allocation is lock-free (a claim CAS or an up-mark conflict
/// fails only because another allocation succeeded), freeing is wait-free,
/// and trim is obstruction-free (its claims yield to allocations). The
/// claim CAS has no ABA hazard: it fires only on the exact value 0, and 0
/// always means genuinely free — a block that was freed and re-freed back
/// to 0 between a scanner's read and its CAS is still free.
///
/// ## Physical memory
///
/// A per-span residency bitmap (one bit per min-order leaf) tracks which
/// pages have ever been handed out. On allocate, newly-set bits are
/// counted into the committed meter (PageAllocator::recordCommit — the
/// §4.2.5 space meter sees lazily-faulted pages when they are promised,
/// not when the kernel faults them). On free, if free committed bytes
/// exceed the retention watermark (the PR 4 memory-return policy, second
/// tier), the block is decommitted (MADV_DONTNEED) while the claim still
/// stands — exclusivity makes the madvise race-free. trim(keep) walks the
/// trees claiming maximal free blocks through the same CAS protocol and
/// decommits them down to the watermark. Residency words are read before
/// they are written: a block whose pages are all resident already (the
/// steady state) commits without a single RMW on the bitmap.
///
/// ## Meters
///
/// The backend byte meters and operation counters are sharded: each
/// thread adds into the cache-line-padded shard picked by its
/// threadIndex(). Readers (snapshot, trim, debugValidate) sum the shards;
/// the sums are exact at quiescence. Free sums them only for the
/// watermark check, and skips even that while the watermark is unbounded
/// (the default). Besides its tree path and its block, the one shared
/// word a claim or free writes is its span's Allocated meter, which the
/// full-span reject reads; it has a cache line of its own.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_LFMALLOC_BUDDYBACKEND_H
#define LFMALLOC_LFMALLOC_BUDDYBACKEND_H

#include "lfmalloc/LargeBackend.h"
#include "support/ThreadRegistry.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lfm {

class BuddyBackend final : public LargeBackend {
public:
  /// Geometry. Orders count from 0 (min) to NumOrders-1 (max); tree levels
  /// count from 0 (max-order roots) down to NumOrders-1 (min-order leaves).
  static constexpr unsigned MinOrderShift = 13; ///< 8 KiB min block.
  static constexpr unsigned NumOrders = 11;     ///< 8 KiB .. 8 MiB.
  static constexpr unsigned MaxOrderShift = MinOrderShift + NumOrders - 1;
  static constexpr std::size_t MinOrderBytes = std::size_t{1} << MinOrderShift;
  static constexpr std::size_t MaxOrderBytes = std::size_t{1} << MaxOrderShift;
  /// Span directory capacity. Published by CAS; never shrinks.
  static constexpr unsigned MaxSpans = 16;
  /// Meter shards (power of two); threads share one only beyond this many.
  static constexpr unsigned MeterShards = 16;

  explicit BuddyBackend(PageAllocator &Pages) : Pages(Pages) {}
  ~BuddyBackend() override;

  BuddyBackend(const BuddyBackend &) = delete;
  BuddyBackend &operator=(const BuddyBackend &) = delete;

  /// One-time setup before first use (the owning allocator's constructor):
  /// per-span reservation size (power of two, multiple of MaxOrderBytes)
  /// and the retention watermark shared with the superblock cache tier.
  void configure(std::size_t SpanBytesV, std::size_t RetainMaxV) {
    SpanBytes = SpanBytesV;
    RetainMax.store(RetainMaxV, std::memory_order_relaxed);
  }

  /// Runtime watermark update (lf_malloc_ctl trim.retain_max_bytes).
  void setRetainMaxBytes(std::size_t Bytes) {
    RetainMax.store(Bytes, std::memory_order_relaxed);
  }

  // LargeBackend interface.
  bool allocate(std::size_t Total, std::size_t Align,
                Allocation &Out) override;
  bool deallocate(void *Block, std::size_t Total) override;
  void *remap(void *Block, std::size_t OldTotal, std::size_t NewTotal,
              std::size_t &RoundedTotal) override;
  std::size_t trim(std::size_t KeepBytes) override;
  void snapshot(LargeBackendSnapshot &Out) const override;

  /// Quiescent structural check: every node's count equals its own BUSY
  /// bit plus its children's counts, BUSY nodes have all-zero subtrees,
  /// and the byte meters match the trees and bitmaps. Call only with no
  /// concurrent operations. \returns false with \p What naming the broken
  /// invariant.
  bool debugValidate(const char **What) const;

private:
  /// Node word encoding.
  static constexpr std::uint32_t BusyBit = 0x80000000u;
  static constexpr std::uint32_t CountMask = 0x7fffffffu;

  /// One reserved span plus its metadata, all living in a single page
  /// mapping laid out [Span | status trees | residency bitmap]. The
  /// geometry every operation reads, the span meters every claim and free
  /// update, and the hints each sit on their own cache line, so meter and
  /// hint writes never evict the geometry from other cores.
  struct Span {
    char *Base;               ///< Reserved range, MaxOrderBytes-aligned.
    std::size_t Bytes;        ///< Reserved size.
    std::uint32_t TopCount;   ///< Bytes / MaxOrderBytes tree roots.
    std::size_t MetaBytes;    ///< Size of this metadata mapping.
    std::atomic<std::uint32_t> *Tree;     ///< Level-major status nodes.
    std::atomic<std::uint64_t> *Resident; ///< One bit per min-order leaf.
    /// Resident bytes in this span.
    alignas(CacheLineSize) std::atomic<std::uint64_t> Committed;
    /// Live-block bytes in this span: the full-span reject reads it.
    std::atomic<std::uint64_t> Allocated;
    /// Per-level scan start.
    alignas(CacheLineSize) std::atomic<std::uint32_t> Hint[NumOrders];
  };

  /// One shard of the backend meters and operation counters. Plain
  /// relaxed atomics, maintained in every build configuration; the
  /// telemetry layer folds their sums into Counter::Buddy* at snapshot
  /// time so this translation unit stays free of telemetry symbols (the CI
  /// nm check). A shard holds wrapping deltas — a page committed on one
  /// thread may be decommitted on another — so only the sum is meaningful.
  struct alignas(CacheLineSize) MeterShard {
    std::atomic<std::uint64_t> Committed{0}; ///< Resident bytes.
    std::atomic<std::uint64_t> Allocated{0}; ///< Live-block bytes.
    std::atomic<std::uint64_t> Allocs{0};
    std::atomic<std::uint64_t> Frees{0};
    std::atomic<std::uint64_t> Splits{0};
    std::atomic<std::uint64_t> Coalesces{0};
    std::atomic<std::uint64_t> OsFallbacks{0};
    std::atomic<std::uint64_t> Rollbacks{0};
    std::atomic<std::uint64_t> Decommits{0};
    std::atomic<std::uint64_t> SpanReserves{0};
  };
  using Meter = std::atomic<std::uint64_t> MeterShard::*;

  static unsigned orderForTotal(std::size_t Total);
  static constexpr std::size_t blockBytes(unsigned Level) {
    return MaxOrderBytes >> Level;
  }
  static constexpr std::uint32_t levelOffset(std::uint32_t TopCount,
                                             unsigned Level) {
    return TopCount * ((1u << Level) - 1);
  }
  static std::atomic<std::uint32_t> &node(const Span &S, unsigned Level,
                                          std::uint32_t Idx) {
    return S.Tree[levelOffset(S.TopCount, Level) + Idx];
  }
  static std::uint32_t busyAncestorEnd(const Span &S, unsigned Level,
                                       std::uint32_t Idx);

  Span *spanOf(const void *P) const;
  Span *spanAt(unsigned Slot);

  /// Adds \p Delta to this thread's shard of \p M.
  void bump(Meter M, std::uint64_t Delta = 1) {
    (Meters[threadIndex() & (MeterShards - 1)].*M)
        .fetch_add(Delta, std::memory_order_relaxed);
  }
  /// Subtracts \p Delta from this thread's shard of \p M (shards wrap).
  void drop(Meter M, std::uint64_t Delta) {
    (Meters[threadIndex() & (MeterShards - 1)].*M)
        .fetch_sub(Delta, std::memory_order_relaxed);
  }
  /// \returns the sum of \p M over every shard (exact at quiescence).
  std::uint64_t sum(Meter M) const {
    std::uint64_t Total = 0;
    for (const MeterShard &Shard : Meters)
      Total += (Shard.*M).load(std::memory_order_relaxed);
    return Total;
  }

  bool upMark(Span &S, unsigned Level, std::uint32_t Idx, bool Account);
  void downMark(Span &S, unsigned Level, std::uint32_t Idx, bool Account);
  std::int64_t allocFromSpan(Span &S, unsigned Level);
  std::size_t commitRange(Span &S, std::size_t Off, std::size_t Len);
  std::size_t decommitRange(Span &S, std::size_t Off, std::size_t Len);
  std::size_t trimNode(Span &S, unsigned Level, std::uint32_t Idx,
                       std::size_t KeepBytes);
  void walkFree(const Span &S, unsigned Level, std::uint32_t Idx,
                LargeBackendSnapshot &Out) const;
  std::uint64_t freeCommittedBytes() const {
    const std::uint64_t C = sum(&MeterShard::Committed);
    const std::uint64_t A = sum(&MeterShard::Allocated);
    return C > A ? C - A : 0;
  }

  PageAllocator &Pages;
  std::size_t SpanBytes = std::size_t{1} << 30;
  std::atomic<std::size_t> RetainMax{~std::size_t{0}};
  std::atomic<Span *> Spans[MaxSpans] = {};
  MeterShard Meters[MeterShards];
};

} // namespace lfm

#endif // LFMALLOC_LFMALLOC_BUDDYBACKEND_H
