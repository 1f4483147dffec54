//===- lfmalloc/ThreadCache.h - Thread-local magazine cache ------*- C++ -*-==//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-local magazine layer in front of the lock-free core
/// (ROADMAP item 1; scalloc-style frontend over the paper's backend).
///
/// A ThreadCache holds one Magazine per small size class: a plain pointer
/// array only its owner thread touches. The 99% path for small malloc and
/// free is then a handful of ordinary loads/stores — zero lock-prefixed
/// RMW instructions — while misses batch-refill from the Active/Partial
/// anchor CAS machinery and overflows batch-flush back through it, so
/// system-wide lock-freedom is untouched: a stalled thread can strand at
/// most the blocks parked in its own magazines, never another thread's
/// progress.
///
/// Three cooperating pieces (protocol details in docs/DESIGN.md):
///
///  - Magazines: per-thread, per-class block stacks. Slots store payload
///    pointers whose 8-byte block prefixes stay intact, so a magazine hit
///    returns the pointer as-is and cross-thread frees of a once-cached
///    block still classify correctly through the prefix.
///
///  - The depot: one lock-free chain per class, shared by all threads of
///    an instance. Flushes push whole chains (one CAS); refills "steal"
///    the entire chain with a single exchange — ABA-free by construction
///    because a stealer never CASes against a head it previously read.
///
///  - The cache registry: every ThreadCache ever minted by an instance
///    stays on a push-only list for snapshot walks; exiting threads drain
///    their magazines to the anchors (through the same hazard-protected
///    EMPTY transition as free()) and park the empty shell on a tagged
///    Treiber free-stack for the next thread to adopt, so 10k short-lived
///    threads reuse a handful of caches instead of minting 10k.
///
/// Thread exit runs through a process-wide pthread key destructor. The
/// TLS state is a plain POD (no C++ destructor ordering hazards), and the
/// destructor validates the owning allocator's registration epoch against
/// a global live-instance table before touching it, so an allocator
/// destroyed before some idle thread exits is simply skipped.
///
/// Reentrancy: magazine operations are not async-signal-atomic, so a
/// per-thread Busy flag (plain stores only) makes any malloc/free issued
/// from a signal handler that interrupted a tcache operation bypass the
/// magazines and take the signal-safe lock-free backend instead.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_LFMALLOC_THREADCACHE_H
#define LFMALLOC_LFMALLOC_THREADCACHE_H

#include "lfmalloc/Config.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lfm {

class LFAllocator;

namespace tcache {

/// One per-class block stack. Owner-thread access only; no atomics.
struct Magazine {
  void **Slots = nullptr;      ///< Payload pointers, prefixes intact.
  std::uint32_t Count = 0;     ///< Live entries in Slots.
  std::uint32_t Capacity = 0;  ///< Slot array size (>= 2).
};

/// Per-(thread, allocator-instance) cache. Lives in one private slab
/// mapped by the owning allocator; never freed before the allocator is
/// destroyed (type-stable, as the free-stack contract requires).
struct ThreadCache {
  ThreadCache *AllNext = nullptr;  ///< Push-only registry of every cache.
  ThreadCache *FreeNext = nullptr; ///< Link while parked for adoption.
  LFAllocator *Owner = nullptr;    ///< Minting instance.
  std::uint64_t Epoch = 0;         ///< Owner's live-table epoch.
  std::uint32_t ClassCount = 0;    ///< Magazines in Mags.
  std::size_t SlabBytes = 0;       ///< Slab size, for the dtor's unmap.
  /// Plain (non-atomic) hit tallies: the RMW-free fast path cannot touch
  /// the sharded CounterSet, so snapshots aggregate these instead. Written
  /// only by the attached thread; read racily by snapshot walks. Never
  /// reset — they survive park/adopt cycles, keeping totals monotonic.
  std::uint64_t HitMallocs = 0;
  std::uint64_t HitFrees = 0;
  Magazine *Mags = nullptr; ///< ClassCount magazines, inside the slab.
};

/// One shared per-class depot of flushed block chains, linked through the
/// first payload word (every class holds >= 8 payload bytes). Pushes are
/// Treiber chain-pushes; refills steal the whole chain with one exchange.
struct alignas(DescriptorAlignment) Depot {
  std::atomic<void *> Head{nullptr};
  std::atomic<std::uint32_t> Blocks{0}; ///< Approximate resident count.
};

/// Chain links through the block payload (not the prefix — the prefix
/// keeps naming the descriptor while a block sits in depot or magazine).
inline void *chainNext(void *Payload) {
  void *Next;
  __atomic_load(reinterpret_cast<void **>(Payload), &Next, __ATOMIC_RELAXED);
  return Next;
}
inline void setChainNext(void *Payload, void *Next) {
  __atomic_store(reinterpret_cast<void **>(Payload), &Next, __ATOMIC_RELAXED);
}

/// How many distinct tcache-enabled instances one thread can attach to.
inline constexpr unsigned TlsEntrySlots = 4;

struct TlsEntry {
  std::uint64_t Epoch = 0; ///< Matching instance epoch; 0 = empty slot.
  ThreadCache *Cache = nullptr;
};

/// The whole per-thread state: a POD with constant initialization so the
/// fast path is a direct TLS access with no guard variable.
struct TlsState {
  TlsEntry Entries[TlsEntrySlots];
  /// Nonzero while a magazine operation is in flight on this thread;
  /// malloc/free reentered under it (signal handlers) bypass the cache.
  unsigned Busy = 0;
  bool ExitHooked = false; ///< pthread_setspecific done for this thread.
};

/// constinit for the same reason as CachedThreadIndex: no TLS init-function
/// check on the fast path.
extern constinit thread_local TlsState TheTls;

/// The calling thread's tcache state. Plain TLS load; safe everywhere.
inline TlsState &tls() { return TheTls; }

/// Finds the calling thread's cache for instance \p Epoch, or null.
/// RMW-free: a linear scan of at most TlsEntrySlots plain loads.
inline ThreadCache *find(TlsState &T, std::uint64_t Epoch) {
  for (unsigned I = 0; I < TlsEntrySlots; ++I)
    if (T.Entries[I].Epoch == Epoch)
      return T.Entries[I].Cache;
  return nullptr;
}

/// Mints a globally-unique, never-reused epoch and records \p Owner in
/// the live-instance table. \returns the epoch, or 0 when the table is
/// full (the caller must then run without a thread cache).
std::uint64_t registerInstance(LFAllocator *Owner);

/// Clears \p Epoch from the live-instance table. Threads exiting later
/// find no owner and skip the drain (their cached blocks died with the
/// instance, per the destruction-quiescence contract).
void unregisterInstance(std::uint64_t Epoch);

/// \returns the live allocator registered under \p Epoch, or null.
LFAllocator *lookupInstance(std::uint64_t Epoch);

/// Records \p Cache under \p Epoch in a free TLS slot and arms the
/// pthread-key exit destructor for this thread. \returns false (leaving
/// the TLS state untouched) when no slot is free or the key cannot be
/// created — the caller then runs uncached.
bool attachTls(TlsState &T, std::uint64_t Epoch, ThreadCache *Cache);

/// Drains every cache recorded in \p T whose instance is still live, then
/// empties the TLS slots. The pthread key destructor; also callable
/// directly by tests to simulate an exit on a live thread.
void drainThreadTls(TlsState &T);

/// Computes the slab size for a cache with \p ClassCount magazines of
/// capacities \p Caps, and formats \p Slab in place. The slab must be
/// zeroed (fresh map) and at least slabBytes() long.
std::size_t slabBytes(unsigned ClassCount, const std::uint32_t *Caps);
ThreadCache *formatSlab(void *Slab, std::size_t Bytes, unsigned ClassCount,
                        const std::uint32_t *Caps);

} // namespace tcache
} // namespace lfm

#endif // LFMALLOC_LFMALLOC_THREADCACHE_H
