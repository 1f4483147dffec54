//===- support/ThreadRegistry.cpp - Dense thread indices ------------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadRegistry.h"

#include <atomic>

namespace {

std::atomic<std::uint32_t> NextIndex{0};

} // namespace

constinit thread_local std::uint32_t lfm::detail::CachedThreadIndex =
    lfm::detail::UnassignedThreadIndex;

std::uint32_t lfm::detail::assignThreadIndex() {
  CachedThreadIndex = NextIndex.fetch_add(1, std::memory_order_relaxed);
  return CachedThreadIndex;
}

std::uint32_t lfm::threadIndexWatermark() {
  return NextIndex.load(std::memory_order_relaxed);
}
