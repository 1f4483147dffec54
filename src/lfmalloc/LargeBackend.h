//===- lfmalloc/LargeBackend.h - Pluggable large-object backends -*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend boundary for allocations beyond the last small size class.
/// LFAllocator's large path (Fig. 4 malloc line 3 / Fig. 6 free line 5)
/// talks only to this interface, so alternative large-object strategies —
/// the os-direct mmap round trip the paper describes, the non-blocking
/// buddy system (BuddyBackend.h), future NUMA arenas — plug in without
/// touching the allocator core.
///
/// Contract notes shared by every implementation:
///  - \c Total sizes always INCLUDE the 8-byte block prefix; the caller
///    writes `RoundedTotal | 1` into the first word of the returned block
///    and hands the payload (Block + BlockPrefixSize) to the user.
///  - The backend rounds \c Total up to its own granularity and reports
///    the rounded size; free() passes that same rounded size back.
///  - All entry points are safe under full concurrency and are lock-free
///    (the buddy's claim loops retry only against other threads'
///    successful progress; os-direct defers to the kernel, as the paper
///    accepts).
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_LFMALLOC_LARGEBACKEND_H
#define LFMALLOC_LFMALLOC_LARGEBACKEND_H

#include "os/PageAllocator.h"

#include <cstddef>
#include <cstdint>

namespace lfm {

/// Upper bound on buddy orders any backend reports (the snapshot arrays
/// are fixed-size so snapshots stay allocation-free).
constexpr unsigned MaxBuddyOrders = 16;

/// Observability snapshot of a large backend. Plain struct, allocation-
/// free to fill; every field is zero for the os-direct backend except the
/// operation counters it shares.
struct LargeBackendSnapshot {
  bool Buddy = false; ///< True when the buddy backend filled this.
  std::uint64_t SpansReserved = 0;   ///< Spans currently reserved.
  std::uint64_t BytesReserved = 0;   ///< Address space under spans.
  std::uint64_t BytesCommitted = 0;  ///< Span bytes ever touched and resident.
  std::uint64_t BytesAllocated = 0;  ///< Span bytes in live blocks.
  std::uint64_t FreeCommittedBytes = 0; ///< Committed but free (trim target).
  std::uint64_t Allocs = 0;      ///< Blocks served from spans.
  std::uint64_t Frees = 0;       ///< Blocks returned to spans.
  std::uint64_t Splits = 0;      ///< Free blocks first carved by an alloc.
  std::uint64_t Coalesces = 0;   ///< Blocks whose subtree drained fully free.
  std::uint64_t OsFallbacks = 0; ///< Requests served by a direct OS map.
  std::uint64_t Rollbacks = 0;   ///< Claims undone after a lost race.
  std::uint64_t Decommits = 0;   ///< Free blocks returned to the OS (madvise).
  std::uint64_t SpanReserves = 0; ///< reserve() calls ever made.
  /// Committed-or-not free bytes per order (index 0 = min order). Walked
  /// from the status trees at snapshot time; maximal free blocks only.
  std::uint64_t FreeBytesByOrder[MaxBuddyOrders] = {};
  unsigned NumOrders = 0;            ///< Valid FreeBytesByOrder entries.
  std::uint64_t MinOrderBytes = 0;
  std::uint64_t MaxOrderBytes = 0;
  std::uint64_t SpanBytes = 0;       ///< Configured per-span reservation.
};

/// Abstract large-object backend.
class LargeBackend {
public:
  virtual ~LargeBackend() = default;

  /// Result of one allocation.
  struct Allocation {
    void *Block = nullptr;    ///< Block base (prefix word lives here).
    std::size_t Total = 0;    ///< Rounded size the prefix must record.
    bool OsMapped = false;    ///< True when a fresh OS mapping served it.
  };

  /// Allocates a block of at least \p Total bytes (prefix included) whose
  /// base is aligned to at least \p Align (a power of two <= OsPageSize;
  /// stronger alignment is the caller's marker-offset business).
  /// \returns false with Out.Block == nullptr on exhaustion — the caller
  /// may trim caches and retry once before reporting ENOMEM.
  virtual bool allocate(std::size_t Total, std::size_t Align,
                        Allocation &Out) = 0;

  /// Frees a block previously returned with rounded size \p Total.
  /// \returns true when the memory went back to the OS as a whole mapping
  /// (the caller emits its os_unmap trace event only then).
  virtual bool deallocate(void *Block, std::size_t Total) = 0;

  /// realloc()'s in-kernel resize: grows \p Block from rounded \p OldTotal
  /// to at least \p NewTotal without copying when the backend can.
  /// \returns the (possibly moved) block base with \p RoundedTotal set, or
  /// nullptr when unsupported for this block or failed — the caller falls
  /// back to allocate-copy-free.
  virtual void *remap(void *Block, std::size_t OldTotal, std::size_t NewTotal,
                      std::size_t &RoundedTotal) = 0;

  /// Returns free physical memory to the OS, keeping roughly \p KeepBytes
  /// of free committed span memory resident. \returns bytes decommitted.
  virtual std::size_t trim(std::size_t KeepBytes) = 0;

  /// Fills \p Out. Racy-but-consistent-per-word under concurrency.
  virtual void snapshot(LargeBackendSnapshot &Out) const = 0;
};

/// The paper's behavior, verbatim: every large allocation is one OS map,
/// every free one unmap. Kept as the reference backend (`LFM_LARGE_BACKEND
/// =os`) and as the bench baseline the buddy is measured against.
class OsDirectBackend final : public LargeBackend {
public:
  explicit OsDirectBackend(PageAllocator &Pages) : Pages(Pages) {}

  bool allocate(std::size_t Total, std::size_t Align,
                Allocation &Out) override;
  bool deallocate(void *Block, std::size_t Total) override;
  void *remap(void *Block, std::size_t OldTotal, std::size_t NewTotal,
              std::size_t &RoundedTotal) override;
  std::size_t trim(std::size_t KeepBytes) override;
  void snapshot(LargeBackendSnapshot &Out) const override;

private:
  PageAllocator &Pages;
};

} // namespace lfm

#endif // LFMALLOC_LFMALLOC_LARGEBACKEND_H
