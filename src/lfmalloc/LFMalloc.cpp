//===- lfmalloc/LFMalloc.cpp - Process-global malloc facade ---------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/LFMalloc.h"

#include "lfmalloc/FacadeState.h"
#include "lfmalloc/LFAllocator.h"
#include "support/RuntimeConfig.h"

#include <cstring>
#include <new>

using namespace lfm;

namespace {

/// Builds the default instance's options from the LFM_* environment (the
/// instance has no other configuration channel when it is interposed as
/// the process malloc). The variable registry lives in
/// support/RuntimeConfig.h; this reads it with getenv only — no
/// allocation, usable before main().
AllocatorOptions defaultOptions() {
  using config::Var;
  AllocatorOptions Opts;
  Opts.EnableStats = config::varFlag(Var::Stats);
  Opts.EnableTrace = config::varFlag(Var::Trace);
  std::uint64_t U = 0;
  if (config::varU64(Var::TraceEvents, U) && U > 0)
    Opts.TraceEventsPerThread = static_cast<unsigned>(U);
  Opts.EnableProfiler = config::varFlag(Var::Profile);
  if (config::varU64(Var::ProfileRate, U) && U > 0)
    Opts.ProfileRateBytes = static_cast<std::size_t>(U);
  if (config::varU64(Var::ProfileSeed, U) && U > 0)
    Opts.ProfileSeed = U;
  if (config::varU64(Var::ProfileSites, U) && U > 0)
    Opts.ProfileSiteCapacity = static_cast<std::uint32_t>(U);
  if (config::varU64(Var::ProfileLive, U) && U > 0)
    Opts.ProfileLiveCapacity = static_cast<std::uint32_t>(U);
  if (config::varU64(Var::RetainMaxBytes, U))
    Opts.RetainMaxBytes = static_cast<std::size_t>(U);
  std::int64_t I = 0;
  if (config::varI64(Var::RetainDecayMs, I))
    Opts.RetainDecayMs = I;
  if (const char *Prefix = config::varRaw(Var::ProfileDump)) {
    if (std::strlen(Prefix) < detail::ProfileDumpPrefixCap)
      std::strcpy(detail::ProfileDumpPrefix, Prefix);
  }
  // An explicit LFM_LATENCY_SAMPLE implies stats: latency recording rides
  // on the telemetry block, and asking for samples while leaving stats off
  // would silently record nothing.
  if (config::varU64(Var::LatencySample, U)) {
    Opts.LatencySamplePeriod = U;
    if (U > 0)
      Opts.EnableStats = true;
  }
  // LFM_CONTENTION_SAMPLE / LFM_CONTENTION_WATCHDOG imply stats the same
  // way: the contention recorder rides on the telemetry block.
  if (config::varU64(Var::ContentionSample, U)) {
    Opts.ContentionSamplePeriod = U;
    if (U > 0)
      Opts.EnableStats = true;
  }
  if (config::varU64(Var::ContentionHeat, U) && U > 0)
    Opts.ContentionHeatCapacity = static_cast<std::uint32_t>(U);
  if (config::varFlag(Var::ContentionWatchdog)) {
    Opts.ContentionWatchdog = true;
    Opts.EnableStats = true;
  }
  if (config::varU64(Var::ContentionStallMs, U) && U > 0)
    Opts.ContentionStallMs = U;
  if (config::varU64(Var::ContentionStorm, U) && U > 0)
    Opts.ContentionStormRetries = U;
  if (config::varU64(Var::TestSeed, U) && U > 0) {
    Opts.LatencySampleSeed = U;
    Opts.ContentionSampleSeed = U;
  }
  if (const char *Prefix = config::varRaw(Var::StatsPrefix)) {
    if (std::strlen(Prefix) < detail::StatsPrefixCap)
      std::strcpy(detail::StatsPrefix, Prefix);
  }
  // Thread cache defaults ON for the process-wide default allocator (the
  // registry default "1"); LFM_TCACHE=0 turns it off. Explicitly-optioned
  // local instances keep the AllocatorOptions default (off).
  Opts.EnableThreadCache =
      config::varRaw(Var::Tcache) ? config::varFlag(Var::Tcache) : true;
  if (config::varU64(Var::TcacheMagSize, U) && U > 0)
    Opts.ThreadCacheMagSize = static_cast<unsigned>(U);
  // The buddy large backend defaults ON for the default allocator (the
  // registry default "buddy"); LFM_LARGE_BACKEND=os (or =0) restores the
  // paper's per-operation mmap path byte for byte. Explicitly-optioned
  // local instances keep the AllocatorOptions default (OsDirect).
  Opts.LargeBackend = LargeBackendKind::Buddy;
  if (const char *Backend = config::varRaw(Var::LargeBackend))
    if (std::strcmp(Backend, "os") == 0 || std::strcmp(Backend, "0") == 0)
      Opts.LargeBackend = LargeBackendKind::OsDirect;
  if (config::varU64(Var::BuddySpanBytes, U) && U > 0)
    Opts.BuddySpanBytes = static_cast<std::size_t>(U);
  return Opts;
}

} // namespace

LFAllocator &lfm::defaultAllocator() {
  // Immortal storage (constructed on first use, never destroyed): avoids
  // static-destructor ordering hazards and keeps the allocator usable from
  // code running during process shutdown.
  alignas(LFAllocator) static unsigned char Storage[sizeof(LFAllocator)];
  static LFAllocator *Instance = [] {
    auto *A = new (Storage) LFAllocator(defaultOptions());
    // Fault injection arms after construction so bootstrap maps (heap
    // directory, first descriptor chunk) are never the injected failures —
    // the contract under test is steady-state allocation, not bringup.
    std::int64_t FailAfter = 0;
    if (config::varI64(config::Var::FailMap, FailAfter)) {
      A->debugInjectMapFailuresAfter(FailAfter);
      detail::LastFailMapArm.store(FailAfter, std::memory_order_relaxed);
    }
    return A;
  }();
  return *Instance;
}

void *lfm::lfMalloc(std::size_t Bytes) {
  return defaultAllocator().allocate(Bytes);
}

void lfm::lfFree(void *Ptr) { defaultAllocator().deallocate(Ptr); }

void *lfm::lfCalloc(std::size_t Num, std::size_t Size) {
  return defaultAllocator().allocateZeroed(Num, Size);
}

void *lfm::lfRealloc(void *Ptr, std::size_t Bytes) {
  return defaultAllocator().reallocate(Ptr, Bytes);
}

void *lfm::lfAlignedAlloc(std::size_t Alignment, std::size_t Bytes) {
  return defaultAllocator().allocateAligned(Alignment, Bytes);
}

std::size_t lfm::lfUsableSize(const void *Ptr) {
  return defaultAllocator().usableSize(Ptr);
}

void *lf_malloc(size_t Bytes) { return lfm::lfMalloc(Bytes); }
void lf_free(void *Ptr) { lfm::lfFree(Ptr); }
void *lf_calloc(size_t Num, size_t Size) { return lfm::lfCalloc(Num, Size); }
void *lf_realloc(void *Ptr, size_t Bytes) {
  return lfm::lfRealloc(Ptr, Bytes);
}
void *lf_aligned_alloc(size_t Alignment, size_t Bytes) {
  return lfm::lfAlignedAlloc(Alignment, Bytes);
}
size_t lf_malloc_usable_size(const void *Ptr) {
  return lfm::lfUsableSize(Ptr);
}
