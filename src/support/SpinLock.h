//===- support/SpinLock.h - Lightweight user-level locks ---------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "lightweight test-and-set mutual exclusion lock" of the paper's
/// Section 4: the lock-based baseline allocators (Hoard-like, Ptmalloc-like,
/// SerialLockMalloc) are built on these locks, exactly as the paper replaced
/// pthread mutexes in Hoard/Ptmalloc with hand-coded lightweight locks for a
/// fair comparison.
///
/// Memory-order mapping of the paper's PowerPC fences: lock acquisition ends
/// with an acquire barrier (the paper's `isync`) and release begins with a
/// release barrier (the paper's `eieio`). C++20 `memory_order_acquire` /
/// `memory_order_release` express precisely that.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_SUPPORT_SPINLOCK_H
#define LFMALLOC_SUPPORT_SPINLOCK_H

#include "support/Platform.h"

#include <atomic>
#include <cstdint>

namespace lfm {

/// Test-and-test-and-set spinlock with capped exponential backoff.
///
/// This is deliberately a *user-level* spinlock with no kernel assistance:
/// the paper's robustness experiments hinge on the fact that such locks
/// suffer lock-holder preemption when threads outnumber processors, while
/// the lock-free allocator does not. Sized and aligned to one cache line so
/// adjacent locks never false-share.
class alignas(CacheLineSize) TasLock {
public:
  TasLock() = default;
  TasLock(const TasLock &) = delete;
  TasLock &operator=(const TasLock &) = delete;

  /// Acquires the lock, spinning with backoff until available.
  void lock() {
    // Fast path: a single uncontended RMW.
    if (LFM_LIKELY(!Flag.exchange(true, std::memory_order_acquire)))
      return;
    lockSlow();
  }

  /// Tries to acquire without spinning. \returns true on success.
  bool tryLock() {
    // Test first so a failed try is read-only and does not bounce the line.
    if (Flag.load(std::memory_order_relaxed))
      return false;
    return !Flag.exchange(true, std::memory_order_acquire);
  }

  /// Releases the lock. Caller must hold it.
  void unlock() { Flag.store(false, std::memory_order_release); }

  /// \returns true if some thread currently holds the lock (racy snapshot;
  /// useful only for stats and assertions).
  bool isLocked() const { return Flag.load(std::memory_order_relaxed); }

private:
  void lockSlow() {
    std::uint32_t Backoff = 1;
    for (;;) {
      // Spin read-only on the cached line until the lock looks free.
      while (Flag.load(std::memory_order_relaxed)) {
        for (std::uint32_t I = 0; I < Backoff; ++I)
          cpuRelax();
        if (Backoff < MaxBackoff)
          Backoff <<= 1;
      }
      if (!Flag.exchange(true, std::memory_order_acquire))
        return;
    }
  }

  static constexpr std::uint32_t MaxBackoff = 1024;

  std::atomic<bool> Flag{false};
};

/// RAII guard for any lock with lock()/unlock().
template <typename LockT> class LockGuard {
public:
  explicit LockGuard(LockT &L) : Lock(L) { Lock.lock(); }
  ~LockGuard() { Lock.unlock(); }
  LockGuard(const LockGuard &) = delete;
  LockGuard &operator=(const LockGuard &) = delete;

private:
  LockT &Lock;
};

} // namespace lfm

#endif // LFMALLOC_SUPPORT_SPINLOCK_H
