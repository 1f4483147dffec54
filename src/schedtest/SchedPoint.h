//===- schedtest/SchedPoint.h - Schedule-exploration hook points -*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time gate and hook macros for the deterministic
/// schedule-exploration harness (see docs/TESTING.md).
///
/// LFM_SCHED_TEST == 0 (the default): LFM_SCHED_POINT() compiles to
/// nothing and LFM_SCHED_CAS_FAIL() folds to `false` — the lock-free hot
/// paths are bit-identical to the uninstrumented code, mirroring the
/// LFM_TELEMETRY gate discipline.
///
/// LFM_SCHED_TEST == 1 (CMake: -DLFMALLOC_SCHED_TEST=ON): every marked
/// linearization window in the lock-free core becomes a cooperative yield
/// point. When the calling thread runs under a ScheduleController the
/// controller decides, from a seed, which thread proceeds next
/// (PCT-style bounded preemption) and whether a CAS site must report a
/// forced failure (exercising retry paths deterministically). Threads not
/// under a controller pay one predicted-false thread-local test per site.
///
/// Layering: this header depends on nothing so the lowest layers
/// (lockfree/, os/) can include it; the controller itself lives in
/// ScheduleController.h and links in via lfm_schedtest.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_SCHEDTEST_SCHEDPOINT_H
#define LFMALLOC_SCHEDTEST_SCHEDPOINT_H

#ifndef LFM_SCHED_TEST
#define LFM_SCHED_TEST 0
#endif

#if LFM_SCHED_TEST
#include <cstdint>
#endif

namespace lfm {
namespace sched {

/// Every instrumented linearization window in the library. One id per
/// razor-thin CAS race the paper's correctness argument rests on; the
/// controller filters forced CAS failures per site through
/// SchedOptions::CasFailSiteMask.
enum class Site : unsigned {
  // LFAllocator (paper Figs. 4 and 6).
  ActiveReserve,   ///< Fig. 4 MallocFromActive lines 1-6 credit CAS.
  ActivePop,       ///< Fig. 4 MallocFromActive lines 8-18 anchor pop CAS.
  UpdateActive,    ///< Fig. 4 UpdateActive credit-return anchor CAS.
  PartialReserve,  ///< Fig. 4 MallocFromPartial lines 4-10 reserve CAS.
  PartialPop,      ///< Fig. 4 MallocFromPartial lines 11-15 pop CAS.
  NewSbInstall,    ///< Fig. 4 MallocFromNewSB line 13 Active install CAS.
  FreePush,        ///< Fig. 6 free() lines 7-18 anchor push CAS.
  HeapPartialSlot, ///< Heap Partial-slot exchange/CAS (HeapGet/PutPartial).
  // DescriptorAllocator (paper Fig. 7).
  DescPop,  ///< DescAlloc hazard-protected freelist pop CAS.
  DescPush, ///< DescRetire freelist push CAS (via hazard reclamation).
  // Generic lock-free substrate.
  TreiberPush,   ///< TreiberStack::push head CAS.
  TreiberPop,    ///< TreiberStack::pop head CAS (the tagged ABA window).
  MsqEnqueue,    ///< MSQueue::enqueue link CAS.
  MsqDequeue,    ///< MSQueue::dequeue head CAS.
  HazardProtect, ///< HazardDomain::protect load-to-publish window.
  HazardClaim,   ///< HazardDomain record mint: watermark bump to claim CAS.
  // SuperblockCache.
  SbAcquire, ///< SuperblockCache::acquire pop/mint window.
  SbRelease, ///< SuperblockCache::release push window.
  SbTrim,    ///< SuperblockCache::trimRetained drain window.
  // Thread-local magazine cache (ThreadCache.cpp / LFAllocator tcache).
  TcacheRefill, ///< Batch refill reserve/pop anchor CAS windows.
  TcacheFlush,  ///< Batch flush anchor push + depot push CAS windows.
  TcacheSteal,  ///< Depot steal-all exchange + leftover re-push window.
  // Buddy large-object backend (BuddyBackend.cpp).
  BuddyAlloc,    ///< Status-tree claim CAS + ancestor up-mark window.
  BuddyCoalesce, ///< Trim-walk claim CAS before a free-block decommit.
  NumSites
};

/// \returns a stable human-readable name for \p S (for failure reports).
const char *siteName(Site S);

class ScheduleController;

/// Controller governing the calling thread, or null. Set by
/// ScheduleController for its worker threads only; every other thread in
/// the process sees null and passes straight through the hooks.
extern thread_local ScheduleController *TlsController;

/// Out-of-line slow paths, entered only with a controller attached.
void schedYield(Site S);
bool schedShouldFailCas(Site S);

#if LFM_SCHED_TEST
/// Per-thread count of instrumented-site visits (every LFM_SCHED_POINT /
/// LFM_SCHED_CAS_FAIL evaluation, controlled or not). Every site marks a
/// lock-prefixed RMW's linearization window, so this doubles as a
/// deterministic proxy for "lock-prefixed instructions executed" that
/// bench_fastpath reads to prove the magazine-hit path performs zero —
/// robust to containers where hardware perf counters are unavailable.
extern thread_local std::uint64_t TlsSiteVisits;
#endif

} // namespace sched
} // namespace lfm

#if LFM_SCHED_TEST

/// A point where the scheduler may preempt the calling thread. Place one
/// inside every instrumented CAS retry loop so the controller can
/// interleave other threads between the read of the expected value and
/// the CAS attempt.
#define LFM_SCHED_POINT(SiteId)                                              \
  do {                                                                       \
    ++::lfm::sched::TlsSiteVisits;                                           \
    if (__builtin_expect(::lfm::sched::TlsController != nullptr, 0))         \
      ::lfm::sched::schedYield(::lfm::sched::Site::SiteId);                  \
  } while (0)

/// Forced-failure cue for a CAS site: evaluates to true when the
/// controller injects a failure, in which case the caller must behave
/// exactly as if the CAS lost a race (skip it and retry the loop).
/// Use as `while (LFM_SCHED_CAS_FAIL(Site) || !word.compareExchange(...))`.
#define LFM_SCHED_CAS_FAIL(SiteId)                                           \
  (++::lfm::sched::TlsSiteVisits,                                            \
   __builtin_expect(::lfm::sched::TlsController != nullptr, 0) &&            \
   ::lfm::sched::schedShouldFailCas(::lfm::sched::Site::SiteId))

#else

#define LFM_SCHED_POINT(SiteId)                                              \
  do {                                                                       \
  } while (0)
#define LFM_SCHED_CAS_FAIL(SiteId) false

#endif // LFM_SCHED_TEST

#endif // LFMALLOC_SCHEDTEST_SCHEDPOINT_H
