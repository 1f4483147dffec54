//===- lfmalloc/LFMalloc.h - Process-global malloc facade --------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's quickstart surface: malloc/free-shaped functions backed by
/// one process-wide, immortal LFAllocator configured with the paper's
/// defaults. Programs needing multiple allocators, custom superblock
/// geometry, or metered space use LFAllocator directly.
///
/// All allocation functions here are lock-free and — after the first call
/// has initialized the instance — async-signal-safe, the property
/// motivating the paper's design (§1, "a completely lock-free allocator is
/// capable of being async-signal-safe without incurring any performance
/// cost").
///
/// Introspection and control go through lf_malloc_ctl(), a keyed
/// mallctl-style surface documented in docs/API.md.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_LFMALLOC_LFMALLOC_H
#define LFMALLOC_LFMALLOC_LFMALLOC_H

#include <cstddef>

namespace lfm {

class LFAllocator;

/// \returns the immortal process-wide allocator (created on first use,
/// never destroyed — so signal handlers and exiting threads can always
/// rely on it).
///
/// The instance is configured by `LFM_*` environment variables read at
/// first use (it has no other configuration channel when interposed as
/// the process malloc). The full variable table lives in
/// support/RuntimeConfig.h and docs/API.md; each variable mirrors an
/// lf_malloc_ctl key (`opt.*`, `retain.*`, `debug.*`).
LFAllocator &defaultAllocator();

/// malloc(): lock-free allocation from the default allocator.
void *lfMalloc(std::size_t Bytes);

/// free(): lock-free deallocation; accepts null.
void lfFree(void *Ptr);

/// calloc(): zeroed, overflow-checked.
void *lfCalloc(std::size_t Num, std::size_t Size);

/// realloc() semantics (Bytes == 0 frees and returns null).
void *lfRealloc(void *Ptr, std::size_t Bytes);

/// aligned_alloc(): \p Alignment must be a power of two.
void *lfAlignedAlloc(std::size_t Alignment, std::size_t Bytes);

/// \returns usable payload capacity of an lfMalloc'd block.
std::size_t lfUsableSize(const void *Ptr);

} // namespace lfm

// C-linkage shim, so C code (or FFI) can link against the allocator
// without touching C++ headers. Same semantics as the lfm:: functions.
extern "C" {
void *lf_malloc(size_t Bytes);
void lf_free(void *Ptr);
void *lf_calloc(size_t Num, size_t Size);
void *lf_realloc(void *Ptr, size_t Bytes);
void *lf_aligned_alloc(size_t Alignment, size_t Bytes);
size_t lf_malloc_usable_size(const void *Ptr);

/// Keyed control/introspection over the default allocator, in the style
/// of jemalloc's mallctl. Reads fill \p Out / \p OutLen (null Out with
/// non-null OutLen probes the required size); writes take the new value
/// in \p In / \p InLen. See docs/API.md for the key namespace:
///   version                 build/schema identifier (string)
///   stats.<name>            any metrics counter/gauge (u64; see API.md)
///   retain.max_bytes        retention watermark (u64, get/set)
///   retain.decay_ms         decay period, -1 off (i64, get/set)
///   trim                    release retained memory now (action)
///   dump.metrics|trace|topology|heap_profile|heap_profile_json|
///   dump.leak_report        write a report (In = path, null = stderr)
///   dump.prometheus         Prometheus text exposition (In = path)
///   dump.heap_profile_seq   sequenced "<prefix>.<seq>.heap" dump (no In)
///   dump.prometheus_seq     sequenced "<prefix>.<seq>.prom" dump (no In)
///                           (both _seq keys are async-signal-safe: the
///                           shim's SIGUSR2 dumps call them)
///   exporter.start          start background exporter (In = u64 ms)
///   exporter.stop           stop and join the exporter (action)
///   exporter.flush          run one export cycle synchronously (action)
///   exporter.cycles         completed export cycles (u64, read-only)
///   opt.<name>              resolved LFM_* option echo (read-only)
///   debug.fail_map          OS-map fault injection (test hook)
/// \returns 0 on success or an errno value (EINVAL, ENOENT, EPERM, EIO);
/// never touches the global errno.
int lf_malloc_ctl(const char *Key, void *Out, size_t *OutLen, const void *In,
                  size_t InLen);

/// glibc malloc_trim(): releases the retained superblock cache back to
/// the OS, keeping at most \p KeepBytes cached. Lock-free. \returns 1 if
/// any memory was released, else 0.
int lf_malloc_trim(size_t KeepBytes);
}

#endif // LFMALLOC_LFMALLOC_LFMALLOC_H
