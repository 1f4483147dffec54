//===- lfmalloc/ThreadCache.cpp - Thread-local magazine cache -------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Process-wide pieces of the magazine layer: the per-thread TLS state, the
// live-instance epoch table the thread-exit destructor validates against,
// and the cache-slab layout. The magazine/refill/flush protocol itself
// lives in LFAllocator.cpp next to the anchor machinery it batches over.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/ThreadCache.h"

#include "lfmalloc/LFAllocator.h"
#include "support/Platform.h"

#include <pthread.h>

using namespace lfm;
using namespace lfm::tcache;

namespace lfm {
namespace tcache {
constinit thread_local TlsState TheTls;
} // namespace tcache
} // namespace lfm

namespace {

/// Epochs start at 1 so 0 always means "no instance"; 64 bits never wrap.
std::atomic<std::uint64_t> NextEpoch{1};

/// A slot is claimed by CASing Epoch 0 -> ClaimedEpoch, then publishing
/// Owner and the real epoch, so a concurrent lookup can never observe a
/// half-written slot under a matching epoch.
constexpr std::uint64_t ClaimedEpoch = ~std::uint64_t{0};

constexpr unsigned MaxLiveInstances = 64;

struct LiveSlot {
  std::atomic<std::uint64_t> Epoch{0};
  std::atomic<LFAllocator *> Owner{nullptr};
};

LiveSlot LiveTable[MaxLiveInstances];

pthread_key_t ExitKey;
pthread_once_t ExitKeyOnce = PTHREAD_ONCE_INIT;
std::atomic<int> ExitKeyState{0}; // 0 unmade, 1 usable, -1 creation failed.

extern "C" void lfmTcacheThreadExit(void *Arg) {
  TlsState *T = static_cast<TlsState *>(Arg);
  // Re-arm detection: if a later TSD destructor mallocs, attach runs again
  // and re-registers the key for another destructor round.
  T->ExitHooked = false;
  drainThreadTls(*T);
}

void makeExitKey() {
  ExitKeyState.store(
      pthread_key_create(&ExitKey, lfmTcacheThreadExit) == 0 ? 1 : -1,
      std::memory_order_relaxed);
}

} // namespace

std::uint64_t lfm::tcache::registerInstance(LFAllocator *Owner) {
  const std::uint64_t Epoch =
      NextEpoch.fetch_add(1, std::memory_order_relaxed);
  for (LiveSlot &S : LiveTable) {
    std::uint64_t Empty = 0;
    if (S.Epoch.load(std::memory_order_relaxed) != 0)
      continue;
    if (!S.Epoch.compare_exchange_strong(Empty, ClaimedEpoch,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
      continue;
    S.Owner.store(Owner, std::memory_order_relaxed);
    S.Epoch.store(Epoch, std::memory_order_release);
    return Epoch;
  }
  return 0; // Table full: this instance runs without a thread cache.
}

void lfm::tcache::unregisterInstance(std::uint64_t Epoch) {
  if (Epoch == 0)
    return;
  for (LiveSlot &S : LiveTable) {
    if (S.Epoch.load(std::memory_order_relaxed) != Epoch)
      continue;
    S.Owner.store(nullptr, std::memory_order_relaxed);
    S.Epoch.store(0, std::memory_order_release);
    return;
  }
}

LFAllocator *lfm::tcache::lookupInstance(std::uint64_t Epoch) {
  if (Epoch == 0)
    return nullptr;
  for (LiveSlot &S : LiveTable)
    if (S.Epoch.load(std::memory_order_acquire) == Epoch)
      return S.Owner.load(std::memory_order_relaxed);
  return nullptr;
}

bool lfm::tcache::attachTls(TlsState &T, std::uint64_t Epoch,
                            ThreadCache *Cache) {
  pthread_once(&ExitKeyOnce, makeExitKey);
  if (ExitKeyState.load(std::memory_order_relaxed) != 1)
    return false; // No exit drain possible: refuse to cache blocks.
  int Slot = -1;
  for (unsigned I = 0; I < TlsEntrySlots; ++I) {
    // Reclaim entries whose instance has been destroyed: the dead
    // allocator already unmapped the cache slab, so the stale pointer
    // must never be drained — dropping it here keeps slots available to
    // later instances on long-lived threads.
    if (T.Entries[I].Epoch != 0 && lookupInstance(T.Entries[I].Epoch) == nullptr)
      T.Entries[I] = TlsEntry{};
    if (T.Entries[I].Epoch == 0) {
      Slot = static_cast<int>(I);
      break;
    }
  }
  if (Slot < 0)
    return false;
  if (!T.ExitHooked) {
    if (pthread_setspecific(ExitKey, &T) != 0)
      return false;
    T.ExitHooked = true;
  }
  T.Entries[Slot] = TlsEntry{Epoch, Cache};
  return true;
}

void lfm::tcache::drainThreadTls(TlsState &T) {
  // Busy brackets the whole drain: a signal handler that mallocs while a
  // magazine is mid-flush must take the lock-free backend, not re-attach
  // or touch the half-drained cache.
  T.Busy = 1;
  for (TlsEntry &E : T.Entries) {
    if (E.Epoch == 0)
      continue;
    // Validate the instance is still alive: an allocator destroyed before
    // this thread exited already reclaimed the cache slab with everything
    // in it, so the entry is simply dropped.
    LFAllocator *Owner = lookupInstance(E.Epoch);
    ThreadCache *Cache = E.Cache;
    E = TlsEntry{};
    if (Owner)
      Owner->tcacheThreadExit(Cache);
  }
  T.Busy = 0;
}

std::size_t lfm::tcache::slabBytes(unsigned ClassCount,
                                   const std::uint32_t *Caps) {
  std::size_t Bytes = alignUp(sizeof(ThreadCache), alignof(Magazine));
  Bytes += std::size_t{ClassCount} * sizeof(Magazine);
  Bytes = alignUp(Bytes, alignof(void *));
  for (unsigned C = 0; C < ClassCount; ++C)
    Bytes += std::size_t{Caps[C]} * sizeof(void *);
  return alignUp(Bytes, OsPageSize);
}

ThreadCache *lfm::tcache::formatSlab(void *Slab, std::size_t Bytes,
                                     unsigned ClassCount,
                                     const std::uint32_t *Caps) {
  char *Base = static_cast<char *>(Slab);
  ThreadCache *TC = new (Base) ThreadCache;
  std::size_t Off = alignUp(sizeof(ThreadCache), alignof(Magazine));
  Magazine *Mags = reinterpret_cast<Magazine *>(Base + Off);
  Off += std::size_t{ClassCount} * sizeof(Magazine);
  Off = alignUp(Off, alignof(void *));
  for (unsigned C = 0; C < ClassCount; ++C) {
    Mags[C] = Magazine{};
    Mags[C].Slots = reinterpret_cast<void **>(Base + Off);
    Mags[C].Capacity = Caps[C];
    Off += std::size_t{Caps[C]} * sizeof(void *);
  }
  TC->ClassCount = ClassCount;
  TC->SlabBytes = Bytes;
  TC->Mags = Mags;
  return TC;
}
