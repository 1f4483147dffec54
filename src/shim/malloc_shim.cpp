//===- shim/malloc_shim.cpp - LD_PRELOAD malloc replacement ---------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// Drop-in replacement for the C allocation API, for use via LD_PRELOAD:
//
//   LD_PRELOAD=/path/to/liblfmalloc_preload.so some_program
//
// Every allocation in the process — including libc internals and C++
// operator new, which routes through malloc in libstdc++ — then goes
// through the completely lock-free allocator. This is safe to interpose
// from process start because the allocator is self-contained: its own
// implementation performs no heap allocation (only mmap), so there is no
// bootstrap recursion and no dlsym trampoline is needed.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/FacadeState.h"
#include "lfmalloc/LFAllocator.h"
#include "lfmalloc/LFMalloc.h"
#include "profiling/HeapTopology.h"
#include "support/RuntimeConfig.h"
#include "telemetry/DumpSignal.h"
#include "telemetry/ShmStats.h"
#include "trace/AllocTrace.h"

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace lfm;

extern "C" {

// The trace::on* hooks cost one predicted-false branch when no flight
// recording is active (trace/AllocTrace.h) and compile to nothing under
// LFM_ALLOC_TRACE=0. Ordering contract: alloc hooks run AFTER the
// operation (the result is part of the record), free/realloc hooks erase
// the address→token mapping BEFORE the block can be recycled.

void *malloc(size_t Bytes) {
  void *Ptr = defaultAllocator().allocate(Bytes);
  trace::onMalloc(Ptr, Bytes);
  return Ptr;
}

void free(void *Ptr) {
  trace::onFree(Ptr);
  defaultAllocator().deallocate(Ptr);
}

void *calloc(size_t Num, size_t Size) {
  void *Ptr = defaultAllocator().allocateZeroed(Num, Size);
  trace::onCalloc(Ptr, Num, Size);
  return Ptr;
}

void *realloc(void *Ptr, size_t Bytes) {
  const std::uint64_t OldTok = trace::beforeRealloc(Ptr);
  void *NewPtr = defaultAllocator().reallocate(Ptr, Bytes);
  trace::afterRealloc(Ptr, OldTok, NewPtr, Bytes);
  return NewPtr;
}

void *reallocarray(void *Ptr, size_t Num, size_t Size) {
  if (Size != 0 && Num > ~size_t{0} / Size) {
    errno = ENOMEM;
    return nullptr;
  }
  const std::uint64_t OldTok = trace::beforeRealloc(Ptr);
  void *NewPtr = defaultAllocator().reallocate(Ptr, Num * Size);
  trace::afterRealloc(Ptr, OldTok, NewPtr, Num * Size);
  return NewPtr;
}

void *aligned_alloc(size_t Alignment, size_t Bytes) {
  if (!isPowerOf2(Alignment)) {
    errno = EINVAL;
    return nullptr;
  }
  void *Ptr = defaultAllocator().allocateAligned(Alignment, Bytes);
  trace::onAlignedAlloc(Ptr, Alignment, Bytes);
  return Ptr;
}

int posix_memalign(void **Out, size_t Alignment, size_t Bytes) {
  if (!isPowerOf2(Alignment) || Alignment % sizeof(void *) != 0)
    return EINVAL;
  void *Ptr = defaultAllocator().allocateAligned(Alignment, Bytes);
  trace::onAlignedAlloc(Ptr, Alignment, Bytes);
  if (!Ptr)
    return ENOMEM;
  *Out = Ptr;
  return 0;
}

void *memalign(size_t Alignment, size_t Bytes) {
  if (!isPowerOf2(Alignment)) {
    errno = EINVAL;
    return nullptr;
  }
  void *Ptr = defaultAllocator().allocateAligned(Alignment, Bytes);
  trace::onAlignedAlloc(Ptr, Alignment, Bytes);
  return Ptr;
}

void *valloc(size_t Bytes) {
  void *Ptr = defaultAllocator().allocateAligned(OsPageSize, Bytes);
  trace::onAlignedAlloc(Ptr, OsPageSize, Bytes);
  return Ptr;
}

void *pvalloc(size_t Bytes) {
  const size_t Rounded = alignUp(Bytes, OsPageSize);
  void *Ptr = defaultAllocator().allocateAligned(OsPageSize, Rounded);
  trace::onAlignedAlloc(Ptr, OsPageSize, Rounded);
  return Ptr;
}

size_t malloc_usable_size(void *Ptr) {
  return Ptr ? defaultAllocator().usableSize(Ptr) : 0;
}

// glibc's malloc_trim(pad) releases free heap memory back to the system,
// keeping up to pad bytes; ours trims the retained superblock cache the
// same way (lock-free, madvise-based). Returns 1 when memory was
// released, matching glibc.
int malloc_trim(size_t Pad) { return lf_malloc_trim(Pad); }

// glibc's malloc_stats() prints arena statistics to stderr; ours prints
// the telemetry metrics JSON (counters require LFM_STATS=1 or LFM_TRACE=1
// in the environment at first allocation).
void malloc_stats(void) { defaultAllocator().metricsJson(stderr); }

// glibc's malloc_info() emits arena state as XML. We keep the call shape
// (Options must be 0, Stream non-null) but emit our own dialect, version
// "lfmalloc-1", carrying the heap-topology census: glibc's <arena>/<bin>
// vocabulary has no sensible mapping onto superblocks and size classes.
int malloc_info(int Options, FILE *Stream) {
  if (Options != 0 || Stream == nullptr) {
    errno = EINVAL;
    return -1;
  }
  profiling::TopologySnapshot Topo;
  defaultAllocator().topologySnapshot(Topo);
  std::fprintf(Stream, "<malloc version=\"lfmalloc-1\">\n");
  std::fprintf(Stream,
               "<heap superblocks=\"%llu\" cached=\"%llu\" blocks=\"%llu\" "
               "used=\"%llu\"/>\n",
               static_cast<unsigned long long>(Topo.TotalSuperblocks),
               static_cast<unsigned long long>(Topo.CachedSuperblocks),
               static_cast<unsigned long long>(Topo.TotalBlocks),
               static_cast<unsigned long long>(Topo.TotalUsedBlocks));
  std::fprintf(Stream,
               "<system type=\"current\" size=\"%llu\"/>\n"
               "<system type=\"max\" size=\"%llu\"/>\n",
               static_cast<unsigned long long>(Topo.Space.BytesInUse),
               static_cast<unsigned long long>(Topo.Space.PeakBytes));
  for (unsigned C = 0; C < Topo.ClassCount; ++C) {
    const profiling::ClassTopology &CT = Topo.Classes[C];
    if (CT.Superblocks == 0)
      continue;
    std::fprintf(Stream,
                 "<sizeclass size=\"%llu\" superblocks=\"%llu\" "
                 "blocks=\"%llu\" used=\"%llu\"/>\n",
                 static_cast<unsigned long long>(CT.BlockSize),
                 static_cast<unsigned long long>(CT.Superblocks),
                 static_cast<unsigned long long>(CT.TotalBlocks),
                 static_cast<unsigned long long>(CT.UsedBlocks));
  }
  std::fprintf(Stream, "</malloc>\n");
  return 0;
}

} // extern "C"

namespace {

// Whether the Prometheus latency/metrics exposition has data worth
// emitting at exit, decided once at init (no allocator queries from the
// atexit path).
bool DumpLatencyArmed = false;

// SIGUSR2 dump callbacks, registered with the telemetry::dumpSignal
// registrar (which owns the actual sigaction; anything else in the
// process — tests, embedders — can chain its own dump through the same
// registrar without clobbering ours). Each callback is async-signal-safe:
// raw-fd I/O over pre-cached state, or plain stores.

void dumpProfileCb() {
  lf_malloc_ctl("dump.heap_profile_seq", nullptr, nullptr, nullptr, 0);
}

void dumpLatencyCb() {
  lf_malloc_ctl("dump.prometheus_seq", nullptr, nullptr, nullptr, 0);
}

// One atomic store; a no-op unless a flight recording is active. The
// writer thread flushes on its next wakeup (~25 ms).
void traceFlushCb() { trace::requestAsyncFlush(); }

// Seqlock-publish a fresh frame so an inspector (or the core dump a
// crashing signal handler is about to produce) sees current numbers.
void shmPublishCb() {
  telemetry::ShmStats::publish(defaultAllocator().metricsSnapshot());
}

void leakReportAtExit() {
  lf_malloc_ctl("dump.leak_report", nullptr, nullptr, nullptr, 0);
  // A leak report at exit is a post-mortem; the latency exposition is the
  // other half of that story, so emit it alongside when it has data.
  if (DumpLatencyArmed)
    dumpLatencyCb();
}

// Final frame at orderly exit: whatever reads the segment (or the core)
// afterwards sees the process's last numbers, not the last exporter tick.
void shmPublishAtExit() { shmPublishCb(); }

// Shim initialization beyond the allocator itself: signal-dump handler,
// the atexit leak report, and the background stats exporter. This runs as
// an ELF constructor — after the allocator can serve (it self-initializes
// on first malloc, which libc may already have issued) but deliberately
// NOT inside defaultAllocator()'s static-init guard, where atexit's and
// pthread_create's own allocations could deadlock.
__attribute__((constructor)) void shimInit() {
  LFAllocator &Alloc = defaultAllocator();
  if (Alloc.profilerEnabled())
    telemetry::dumpSignalRegister(dumpProfileCb);
  // The Prometheus exposition carries both the latency and the contention
  // histogram families, so either recorder makes the SIGUSR2 dump (and the
  // exit-time exposition) worth emitting.
  DumpLatencyArmed = Alloc.latencyEnabled() || Alloc.contentionEnabled();
  if (DumpLatencyArmed)
    telemetry::dumpSignalRegister(dumpLatencyCb);
  // LFM_TRACE_RECORD=<path>: flight-record the whole process lifetime.
  // Routed through lf_malloc_ctl so the env path and the programmatic
  // path ("trace.start") are one code path; the atexit hook installed by
  // the recorder flushes and publishes the file at process exit.
  const char *TracePath = config::varRaw(config::Var::TraceRecord);
  if (TracePath != nullptr && *TracePath != '\0' &&
      lf_malloc_ctl("trace.start", nullptr, nullptr,
                    const_cast<char *>(TracePath),
                    std::strlen(TracePath) + 1) == 0)
    telemetry::dumpSignalRegister(traceFlushCb);
  // LFM_SHM_STATS: map the lfm-shmstats-v2 segment, publish the first
  // frame immediately (an inspector attaching before the first exporter
  // tick still sees valid numbers), keep it fresh on SIGUSR2, and stamp a
  // final frame at exit.
  const char *ShmSpec = config::varRaw(config::Var::ShmStats);
  if (ShmSpec != nullptr && *ShmSpec != '\0' &&
      lf_malloc_ctl("shmstats.open", nullptr, nullptr,
                    const_cast<char *>(ShmSpec),
                    std::strlen(ShmSpec) + 1) == 0) {
    shmPublishCb();
    telemetry::dumpSignalRegister(shmPublishCb);
    std::atexit(shmPublishAtExit);
  }
  if (config::varFlag(config::Var::LeakReport)) {
    detail::LeakReportRequested.store(true, std::memory_order_relaxed);
    std::atexit(leakReportAtExit);
  }
  std::uint64_t IntervalMs = 0;
  if (config::varU64(config::Var::StatsIntervalMs, IntervalMs) &&
      IntervalMs > 0)
    lf_malloc_ctl("exporter.start", nullptr, nullptr, &IntervalMs,
                  sizeof(IntervalMs));
}

} // namespace
