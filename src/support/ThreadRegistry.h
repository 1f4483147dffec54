//===- support/ThreadRegistry.h - Dense thread indices -----------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns every thread a small dense index on first use. The paper says
/// "threads use their thread ids to decide which processor heap to use"
/// (§2.2/§3.1); the allocators map \c threadIndex() onto their processor
/// heaps / arenas, and the telemetry layer onto its counter shards and
/// per-thread trace rings. Indices are never reused, which keeps assignment
/// lock-free and async-signal-safe after the first call on a thread.
///
/// The lookup is inline: after a thread's first call it is a single
/// thread-local read, cheap enough for the allocator's per-malloc heap
/// selection and the telemetry layer's per-increment shard selection.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_SUPPORT_THREADREGISTRY_H
#define LFMALLOC_SUPPORT_THREADREGISTRY_H

#include "support/Platform.h"

#include <cstdint>

namespace lfm {

namespace detail {

/// Sentinel meaning "not yet assigned"; real indices start at 0.
inline constexpr std::uint32_t UnassignedThreadIndex = ~0u;

/// constinit: the declaration itself promises constant initialization, so
/// every access is a plain TLS load with no call through the weak TLS init
/// function (GCC emits that check for a non-constinit extern thread_local).
extern constinit thread_local std::uint32_t CachedThreadIndex;

/// Cold path of threadIndex(): assigns and caches this thread's index
/// (a single atomic fetch-add).
std::uint32_t assignThreadIndex();

} // namespace detail

/// \returns this thread's process-unique dense index, assigning one on the
/// first call (a single atomic fetch-add; afterwards a thread-local read).
inline std::uint32_t threadIndex() {
  const std::uint32_t Cached = detail::CachedThreadIndex;
  if (LFM_LIKELY(Cached != detail::UnassignedThreadIndex))
    return Cached;
  return detail::assignThreadIndex();
}

/// \returns the number of thread indices handed out so far. Monotonic;
/// useful for sizing hazard-pointer tables and for stats.
std::uint32_t threadIndexWatermark();

} // namespace lfm

#endif // LFMALLOC_SUPPORT_THREADREGISTRY_H
