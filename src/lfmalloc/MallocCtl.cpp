//===- lfmalloc/MallocCtl.cpp - Keyed control/introspection surface -------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lf_malloc_ctl(): one keyed entry point over the default allocator's
/// statistics, dumps, and runtime knobs, in the style of jemalloc's
/// mallctl. Every report is a `dump.*` key; new surface area lands here
/// as keys, not as new C symbols. Scalar reads (`stats.*` gauges,
/// `contention.*` status) resolve through the metric registry
/// (telemetry/Metrics.def) rather than a table of their own.
///
/// Conventions (documented in docs/API.md):
///  - Reads fill *Out and set *OutLen to the bytes written. Passing a null
///    Out with a non-null OutLen probes the required size. A too-small
///    buffer fails with EINVAL after storing the required size.
///  - Writes take the new value in In/InLen with exact sizes (u64/i64 are
///    8 bytes, host-endian). Writing a read-only key fails with EPERM.
///  - `dump.*` keys take an optional NUL-terminated path in In (null or
///    empty selects stderr) and fail with EIO when it cannot be opened.
///  - Unknown keys fail with ENOENT. Returns 0 on success; never sets
///    errno itself.
///
/// The dispatcher allocates nothing and takes no locks; dump keys stream
/// through stdio except the heap-profile text, leak-report and Prometheus
/// dumps, which stay on raw fds so signal handlers can reach them through
/// the `_seq` keys.
///
//===----------------------------------------------------------------------===//

#include "lfmalloc/FacadeState.h"
#include "lfmalloc/LFAllocator.h"
#include "lfmalloc/LFMalloc.h"
#include "support/RuntimeConfig.h"
#include "support/Usdt.h"
#include "telemetry/MetricsSnapshot.h"
#include "telemetry/ShmStats.h"
#include "telemetry/StatsExporter.h"
#include "trace/AllocTrace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace lfm;

char lfm::detail::ProfileDumpPrefix[lfm::detail::ProfileDumpPrefixCap] =
    "lfm-heap";
std::atomic<bool> lfm::detail::LeakReportRequested{false};
std::atomic<std::int64_t> lfm::detail::LastFailMapArm{-1};
char lfm::detail::StatsPrefix[lfm::detail::StatsPrefixCap] = "lfm-stats";
std::atomic<std::uint64_t> lfm::detail::StatsIntervalMs{0};
char lfm::detail::TraceRecordPath[lfm::detail::TraceRecordPathCap] = "";
std::atomic<std::uint64_t> lfm::detail::TraceBufferKb{0};

namespace {

/// Copies \p Size bytes of \p Src out through the Out/OutLen protocol.
int readBytes(void *Out, size_t *OutLen, const void *Src, size_t Size) {
  if (OutLen == nullptr)
    return EINVAL;
  if (Out == nullptr) {
    *OutLen = Size; // Size probe.
    return 0;
  }
  if (*OutLen < Size) {
    *OutLen = Size;
    return EINVAL;
  }
  std::memcpy(Out, Src, Size);
  *OutLen = Size;
  return 0;
}

int readU64(void *Out, size_t *OutLen, std::uint64_t V) {
  return readBytes(Out, OutLen, &V, sizeof(V));
}

int readI64(void *Out, size_t *OutLen, std::int64_t V) {
  return readBytes(Out, OutLen, &V, sizeof(V));
}

int readStr(void *Out, size_t *OutLen, const char *S) {
  return readBytes(Out, OutLen, S, std::strlen(S) + 1);
}

int takeU64(const void *In, size_t InLen, std::uint64_t &V) {
  if (In == nullptr || InLen != sizeof(V))
    return EINVAL;
  std::memcpy(&V, In, sizeof(V));
  return 0;
}

int takeI64(const void *In, size_t InLen, std::int64_t &V) {
  if (In == nullptr || InLen != sizeof(V))
    return EINVAL;
  std::memcpy(&V, In, sizeof(V));
  return 0;
}

/// Extracts the optional dump path from In/InLen into \p Buf. A null or
/// empty In selects stderr (Buf left empty). The path must be
/// NUL-terminated within InLen and fit the buffer.
int takePath(const void *In, size_t InLen, char *Buf, size_t Cap) {
  Buf[0] = '\0';
  if (In == nullptr || InLen == 0)
    return 0;
  const char *S = static_cast<const char *>(In);
  const void *Nul = std::memchr(S, '\0', InLen);
  if (Nul == nullptr)
    return EINVAL;
  const size_t Len = static_cast<size_t>(static_cast<const char *>(Nul) - S);
  if (Len >= Cap)
    return EINVAL;
  std::memcpy(Buf, S, Len + 1);
  return 0;
}

/// Runs one of the allocator's stdio writers against the dump path.
int dumpStdio(const void *In, size_t InLen,
              void (LFAllocator::*Writer)(std::FILE *) const) {
  char Path[4096];
  if (const int Rc = takePath(In, InLen, Path, sizeof(Path)))
    return Rc;
  LFAllocator &Alloc = lfm::defaultAllocator();
  if (Path[0] == '\0') {
    (Alloc.*Writer)(stderr);
    return 0;
  }
  std::FILE *Out = std::fopen(Path, "w");
  if (Out == nullptr)
    return EIO;
  (Alloc.*Writer)(Out);
  std::fclose(Out);
  return 0;
}

/// Runs one of the allocator's raw-fd writers against the dump path.
int dumpFd(const void *In, size_t InLen, int (*Writer)(LFAllocator &, int)) {
  char Path[4096];
  if (const int Rc = takePath(In, InLen, Path, sizeof(Path)))
    return Rc;
  LFAllocator &Alloc = lfm::defaultAllocator();
  if (Path[0] == '\0')
    return Writer(Alloc, STDERR_FILENO) == 0 ? 0 : EIO;
  const int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return EIO;
  const int Rc = Writer(Alloc, Fd);
  ::close(Fd);
  return Rc == 0 ? 0 : EIO;
}

/// Reads the registry scalar whose ctl key is \p Key (Metrics.def: the
/// `stats.*` space and gauge rows and the `contention.*` status rows) as
/// its 8-byte wire value, which for the i64 rows is the i64 itself.
int scalarGet(const char *Key, void *Out, size_t *OutLen) {
  for (unsigned I = 0; I < telemetry::NumScalars; ++I) {
    if (std::strcmp(Key, telemetry::ScalarTable[I].Ctl) != 0)
      continue;
    std::uint64_t Values[telemetry::NumScalars];
    telemetry::readScalars(lfm::defaultAllocator().metricsSnapshot(), Values);
    return readU64(Out, OutLen, Values[I]);
  }
  return ENOENT;
}

/// stats.<name>: every counter by its JSON name, plus the registry scalars
/// exported under stats.* (the space and gauge fields, by their JSON
/// names).
int statsGet(const char *Key, void *Out, size_t *OutLen) {
  const char *Name = Key + 6;
  for (unsigned C = 0; C < telemetry::NumCounters; ++C) {
    if (std::strcmp(Name, telemetry::counterName(
                              static_cast<telemetry::Counter>(C))) == 0)
      return readU64(Out, OutLen,
                     lfm::defaultAllocator().metricsSnapshot().Counters[C]);
  }
  return scalarGet(Key, Out, OutLen);
}

/// opt.<name>: read-only echo of the default allocator's resolved options
/// (the values LFM_* variables produced at first use).
int optGet(const char *Name, void *Out, size_t *OutLen) {
  const AllocatorOptions &O = lfm::defaultAllocator().options();
  if (std::strcmp(Name, "stats") == 0)
    return readU64(Out, OutLen, O.EnableStats ? 1 : 0);
  if (std::strcmp(Name, "trace") == 0)
    return readU64(Out, OutLen, O.EnableTrace ? 1 : 0);
  if (std::strcmp(Name, "trace_events") == 0)
    return readU64(Out, OutLen, O.TraceEventsPerThread);
  if (std::strcmp(Name, "profile") == 0)
    return readU64(Out, OutLen, O.EnableProfiler ? 1 : 0);
  if (std::strcmp(Name, "profile_rate") == 0)
    return readU64(Out, OutLen, O.ProfileRateBytes);
  if (std::strcmp(Name, "profile_seed") == 0)
    return readU64(Out, OutLen, O.ProfileSeed);
  if (std::strcmp(Name, "profile_sites") == 0)
    return readU64(Out, OutLen, O.ProfileSiteCapacity);
  if (std::strcmp(Name, "profile_live") == 0)
    return readU64(Out, OutLen, O.ProfileLiveCapacity);
  if (std::strcmp(Name, "profile_dump") == 0)
    return readStr(Out, OutLen, detail::ProfileDumpPrefix);
  if (std::strcmp(Name, "leak_report") == 0)
    return readU64(Out, OutLen,
                   detail::LeakReportRequested.load(std::memory_order_relaxed)
                       ? 1
                       : 0);
  if (std::strcmp(Name, "latency_sample") == 0)
    // Echo the effective period: latency recording rides on the telemetry
    // block, so without stats nothing is recorded regardless of the knob.
    return readU64(Out, OutLen,
                   O.EnableStats ? O.LatencySamplePeriod : std::uint64_t{0});
  if (std::strcmp(Name, "contention_sample") == 0)
    // Same effective-period discipline as latency_sample.
    return readU64(Out, OutLen,
                   O.EnableStats ? O.ContentionSamplePeriod
                                 : std::uint64_t{0});
  if (std::strcmp(Name, "contention_watchdog") == 0)
    return readU64(Out, OutLen,
                   lfm::defaultAllocator().contentionWatchdogArmed() ? 1 : 0);
  if (std::strcmp(Name, "stats_interval_ms") == 0)
    return readU64(Out, OutLen,
                   detail::StatsIntervalMs.load(std::memory_order_relaxed));
  if (std::strcmp(Name, "stats_prefix") == 0)
    return readStr(Out, OutLen, detail::StatsPrefix);
  if (std::strcmp(Name, "tcache") == 0)
    // Echo the effective state (registration can refuse), not just the
    // requested option.
    return readU64(Out, OutLen,
                   lfm::defaultAllocator().threadCacheEnabled() ? 1 : 0);
  if (std::strcmp(Name, "tcache_mag_size") == 0)
    return readU64(Out, OutLen, O.ThreadCacheMagSize);
  if (std::strcmp(Name, "large_backend") == 0)
    return readStr(Out, OutLen,
                   O.LargeBackend == LargeBackendKind::Buddy ? "buddy"
                                                             : "os");
  if (std::strcmp(Name, "buddy_span_bytes") == 0)
    return readU64(Out, OutLen, O.BuddySpanBytes);
  if (std::strcmp(Name, "shm_stats") == 0) {
    // Echo the effective backing: the active segment's path once open
    // (which resolves "1"/"auto"/"memfd" to "memfd:<fd>"), else the raw
    // LFM_SHM_STATS value, else empty.
    const char *Path = telemetry::ShmStats::path();
    if (Path[0] == '\0') {
      const char *Raw = config::varRaw(config::Var::ShmStats);
      Path = Raw != nullptr ? Raw : "";
    }
    return readStr(Out, OutLen, Path);
  }
  if (std::strcmp(Name, "usdt") == 0) {
#if LFM_USDT
    return readU64(Out, OutLen, usdt::enabled() ? 1 : 0);
#else
    return readU64(Out, OutLen, 0);
#endif
  }
  return ENOENT;
}

/// shmstats.<name>: the lfm-shmstats-v2 shared-memory segment — status
/// reads plus the explicit publish action (docs/OBSERVABILITY.md, "Live
/// out-of-process inspection"). All keys resolve in telemetry-OFF builds
/// too (the ShmStats stubs report an inactive segment).
int shmstatsCtl(const char *Name, void *Out, size_t *OutLen, const void *In,
                size_t InLen) {
  if (std::strcmp(Name, "open") == 0) {
    // Action key: In carries the NUL-terminated backing spec (a path, or
    // "1"/"auto"/"memfd"). EALREADY when a segment is already mapped.
    char Spec[4096];
    if (const int Rc = takePath(In, InLen, Spec, sizeof(Spec)))
      return Rc;
    if (Spec[0] == '\0')
      return EINVAL;
#if !LFM_TELEMETRY
    return ENOENT; // No publisher compiled in.
#else
    return telemetry::ShmStats::open(Spec);
#endif
  }
  if (std::strcmp(Name, "publish") == 0) {
    // Action key: seqlock-publish a fresh snapshot frame right now.
    if (In != nullptr)
      return EINVAL;
    if (!telemetry::ShmStats::active())
      return ENXIO;
    telemetry::ShmStats::publish(lfm::defaultAllocator().metricsSnapshot());
    if (Out != nullptr || OutLen != nullptr)
      return readU64(Out, OutLen, telemetry::ShmStats::epoch());
    return 0;
  }
  if (In != nullptr)
    return EPERM; // Everything below is a read-only status key.
  if (std::strcmp(Name, "active") == 0)
    return readU64(Out, OutLen, telemetry::ShmStats::active() ? 1 : 0);
  if (std::strcmp(Name, "path") == 0)
    return readStr(Out, OutLen, telemetry::ShmStats::path());
  if (std::strcmp(Name, "epoch") == 0)
    return readU64(Out, OutLen, telemetry::ShmStats::epoch());
  if (std::strcmp(Name, "publishes") == 0)
    return readU64(Out, OutLen, telemetry::ShmStats::publishes());
  if (std::strcmp(Name, "bytes") == 0)
    return readU64(Out, OutLen, telemetry::ShmStats::bytes());
  return ENOENT;
}

/// largebackend.<name>: the selected large-object backend — kind echo,
/// byte meters, operation counters, per-order free census, and the trim
/// action (docs/API.md "Large-object backend").
int largeBackendCtl(const char *Name, void *Out, size_t *OutLen,
                    const void *In, size_t InLen) {
  LFAllocator &Alloc = lfm::defaultAllocator();
  if (std::strcmp(Name, "trim") == 0) {
    // Action key: trims only this backend's free committed pages down to
    // an optional u64 keep-bytes budget (default 0; `trim` runs both
    // tiers). Out optionally receives the bytes decommitted.
    std::uint64_t Keep = 0;
    if (In != nullptr) {
      if (const int Rc = takeU64(In, InLen, Keep))
        return Rc;
    } else if (InLen != 0) {
      return EINVAL;
    }
    const std::uint64_t Freed =
        Alloc.trimLargeBackend(static_cast<size_t>(Keep));
    if (Out != nullptr || OutLen != nullptr)
      return readU64(Out, OutLen, Freed);
    return 0;
  }
  if (In != nullptr)
    return EPERM; // Everything below is a read-only status key.
  if (std::strcmp(Name, "kind") == 0)
    return readStr(Out, OutLen, Alloc.largeBackendIsBuddy() ? "buddy" : "os");
  LargeBackendSnapshot LB;
  Alloc.largeBackendSnapshot(LB);
  if (std::strcmp(Name, "free_bytes_by_order") == 0)
    return readBytes(Out, OutLen, LB.FreeBytesByOrder,
                     sizeof(std::uint64_t) * LB.NumOrders);
  const struct {
    const char *Name;
    std::uint64_t Value;
  } Rows[] = {
      {"spans_reserved", LB.SpansReserved},
      {"span_bytes", LB.SpanBytes},
      {"bytes_reserved", LB.BytesReserved},
      {"bytes_committed", LB.BytesCommitted},
      {"bytes_allocated", LB.BytesAllocated},
      {"free_committed_bytes", LB.FreeCommittedBytes},
      {"num_orders", LB.NumOrders},
      {"min_order_bytes", LB.MinOrderBytes},
      {"max_order_bytes", LB.MaxOrderBytes},
      {"allocs", LB.Allocs},
      {"frees", LB.Frees},
      {"splits", LB.Splits},
      {"coalesces", LB.Coalesces},
      {"os_fallbacks", LB.OsFallbacks},
      {"rollbacks", LB.Rollbacks},
      {"decommits", LB.Decommits},
      {"span_reserves", LB.SpanReserves},
  };
  for (const auto &Row : Rows)
    if (std::strcmp(Name, Row.Name) == 0)
      return readU64(Out, OutLen, Row.Value);
  return ENOENT;
}

int heapProfileFd(LFAllocator &Alloc, int Fd) {
  return Alloc.heapProfileText(Fd);
}

int leakReportFd(LFAllocator &Alloc, int Fd) {
  Alloc.leakReport(Fd);
  return 0;
}

int prometheusFd(LFAllocator &Alloc, int Fd) {
  return Alloc.prometheusText(Fd);
}

/// contention.<name>: the contention recorder's health indicators and the
/// explicit watchdog trigger (docs/OBSERVABILITY.md, "Contention &
/// progress").
int contentionCtl(const char *Key, void *Out, size_t *OutLen,
                  const void *In, size_t InLen) {
  const char *Name = Key + 11;
  LFAllocator &Alloc = lfm::defaultAllocator();
  if (std::strcmp(Name, "scan") == 0) {
    // Action key: one watchdog pass now, diagnosis to the optional dump
    // path (stderr default). Works whenever the recorder is enabled, even
    // with the background watchdog unarmed. Out optionally receives the
    // flagged-slot count.
    char Path[4096];
    if (const int Rc = takePath(In, InLen, Path, sizeof(Path)))
      return Rc;
    unsigned Flagged = 0;
    if (Path[0] == '\0') {
      Flagged = Alloc.contentionWatchdogScan(STDERR_FILENO);
    } else {
      const int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd < 0)
        return EIO;
      Flagged = Alloc.contentionWatchdogScan(Fd);
      ::close(Fd);
    }
    if (Out != nullptr || OutLen != nullptr)
      return readU64(Out, OutLen, Flagged);
    return 0;
  }
  if (In != nullptr)
    return EPERM; // Everything below is a read-only status key.
  const AllocatorOptions &O = Alloc.options();
  if (std::strcmp(Name, "stall_ms") == 0)
    return readU64(Out, OutLen, O.ContentionStallMs);
  if (std::strcmp(Name, "storm_retries") == 0)
    return readU64(Out, OutLen, O.ContentionStormRetries);
  return scalarGet(Key, Out, OutLen);
}

/// StatsExporter emit callback over the default allocator. Every branch is
/// allocation-free (snapshots and raw-fd writers only) — the latency
/// recorder's exporter watchdog counts any violation.
int exporterEmit(void * /*Ctx*/, int Artifact, int Fd) {
  LFAllocator &Alloc = lfm::defaultAllocator();
  switch (Artifact) {
  case telemetry::StatsExporter::MetricsJson: {
    // The armed progress watchdog rides the exporter cadence: one scan of
    // the per-thread progress slots per metrics cycle, diagnosing stalls
    // and retry storms to stderr (raw fd — the exporter never allocates).
    if (Alloc.contentionWatchdogArmed())
      Alloc.contentionWatchdogScan(STDERR_FILENO);
    const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
    // The shared-memory segment publishes on the same cadence from the
    // same snapshot, so lfm-top and the JSON artifact agree per epoch.
    telemetry::ShmStats::publish(Snap);
    telemetry::writeMetricsJsonFd(Snap, Fd);
    return 0;
  }
  case telemetry::StatsExporter::Prometheus:
    return Alloc.prometheusText(Fd) == 0 ? 0 : -1;
  case telemetry::StatsExporter::HeapProfile:
    // Skip the artifact entirely (negative return) when no profiler is
    // attached, instead of publishing an all-zero profile every cycle.
    if (!Alloc.options().EnableProfiler)
      return -1;
    return Alloc.heapProfileText(Fd) == 0 ? 0 : -1;
  }
  return -1;
}

/// Effective flight-recorder buffer budget in KiB: the last value written
/// through `trace.buffer_kb`, else LFM_TRACE_BUF_KB, else 0 — which the
/// recorder maps to its built-in default.
std::uint64_t traceBufferKb() {
  std::uint64_t Kb = detail::TraceBufferKb.load(std::memory_order_relaxed);
  if (Kb == 0)
    config::varU64(config::Var::TraceBufKb, Kb);
  return Kb;
}

/// trace.<name>: the allocation flight recorder (trace/AllocTrace.h).
/// Echo/status keys resolve in every build configuration; the action keys
/// return ENOENT under LFMALLOC_TRACE=OFF (the recorder stubs).
int traceCtl(const char *Name, void *Out, size_t *OutLen, const void *In,
             size_t InLen) {
  if (std::strcmp(Name, "start") == 0) {
    // In: NUL-terminated destination path (required).
    char Path[detail::TraceRecordPathCap];
    if (const int Rc = takePath(In, InLen, Path, sizeof(Path)))
      return Rc;
    if (Path[0] == '\0')
      return EINVAL;
    const int Rc = trace::startRecording(Path, traceBufferKb());
    if (Rc == 0)
      std::memcpy(detail::TraceRecordPath, Path, std::strlen(Path) + 1);
    return Rc;
  }
  if (std::strcmp(Name, "stop") == 0) {
    if (In != nullptr)
      return EINVAL;
    return trace::stopRecording();
  }
  if (std::strcmp(Name, "flush") == 0) {
    if (In != nullptr)
      return EINVAL;
    return trace::flushNow();
  }
  if (std::strcmp(Name, "buffer_kb") == 0) {
    // Read/write: the written value takes effect at the next trace.start.
    if (In != nullptr) {
      std::uint64_t Kb = 0;
      if (const int Rc = takeU64(In, InLen, Kb))
        return Rc;
      detail::TraceBufferKb.store(Kb, std::memory_order_relaxed);
      return 0;
    }
    return readU64(Out, OutLen, traceBufferKb());
  }
  if (In != nullptr)
    return EPERM; // Everything below is a read-only echo/status key.
  if (std::strcmp(Name, "status") == 0)
    return readU64(Out, OutLen, trace::recorderStats().Recording ? 1 : 0);
  if (std::strcmp(Name, "ops") == 0)
    return readU64(Out, OutLen, trace::recorderStats().Ops);
  if (std::strcmp(Name, "dropped") == 0)
    return readU64(Out, OutLen, trace::recorderStats().Dropped);
  if (std::strcmp(Name, "bytes_written") == 0)
    return readU64(Out, OutLen, trace::recorderStats().BytesWritten);
  if (std::strcmp(Name, "flushes") == 0)
    return readU64(Out, OutLen, trace::recorderStats().Flushes);
  if (std::strcmp(Name, "path") == 0)
    return readStr(Out, OutLen, detail::TraceRecordPath);
  return ENOENT;
}

/// Builds "<prefix>.<NNNN><suffix>" into \p Path using only
/// async-signal-safe operations. \p Path must hold at least
/// PrefixCap + 5 + strlen(Suffix) + 1 bytes. \returns the length written.
std::size_t buildSeqPath(const char *Prefix, std::size_t PrefixCap,
                         unsigned Seq, const char *Suffix, char *Path) {
  std::size_t Len = 0;
  while (Prefix[Len] != '\0' && Len < PrefixCap - 1) {
    Path[Len] = Prefix[Len];
    ++Len;
  }
  Path[Len++] = '.';
  unsigned V = Seq % 10000;
  for (int D = 3; D >= 0; --D) {
    Path[Len + static_cast<std::size_t>(D)] = static_cast<char>('0' + V % 10);
    V /= 10;
  }
  Len += 4;
  for (std::size_t S = 0; Suffix[S] != '\0'; ++S)
    Path[Len++] = Suffix[S];
  Path[Len] = '\0';
  return Len;
}

/// dump.heap_profile_seq: the heap profile to "<LFM_PROFILE_DUMP>.<seq>.heap".
/// Async-signal-safe: cached prefix, hand-rolled sequence formatting, and
/// the raw-fd dump.heap_profile path underneath. The sequence counter
/// makes concurrent or repeated signals write distinct files instead of
/// clobbering one another.
int heapProfileSeqDump() {
  static std::atomic<unsigned> Seq{0};
  const unsigned N = Seq.fetch_add(1, std::memory_order_relaxed);
  char Path[detail::ProfileDumpPrefixCap + 16];
  const std::size_t Len = buildSeqPath(detail::ProfileDumpPrefix,
                                       detail::ProfileDumpPrefixCap, N,
                                       ".heap", Path);
  return dumpFd(Path, Len + 1, heapProfileFd);
}

/// dump.prometheus_seq: same discipline for the Prometheus exposition —
/// distinct sequence counter, cached LFM_STATS_PREFIX, raw fds all the
/// way down.
int prometheusSeqDump() {
  static std::atomic<unsigned> Seq{0};
  const unsigned N = Seq.fetch_add(1, std::memory_order_relaxed);
  char Path[detail::StatsPrefixCap + 16];
  const std::size_t Len = buildSeqPath(detail::StatsPrefix,
                                       detail::StatsPrefixCap, N, ".prom",
                                       Path);
  return dumpFd(Path, Len + 1, prometheusFd);
}

} // namespace

int lf_malloc_ctl(const char *Key, void *Out, size_t *OutLen, const void *In,
                  size_t InLen) {
  if (Key == nullptr)
    return EINVAL;

  if (std::strcmp(Key, "version") == 0) {
    if (In != nullptr)
      return EPERM;
    return readStr(Out, OutLen, "lfm-ctl-v1");
  }

  if (std::strcmp(Key, "trim") == 0) {
    // Action key: trims the retained superblock cache down to an optional
    // u64 keep-bytes budget (default 0) and optionally reports the bytes
    // released.
    std::uint64_t Keep = 0;
    if (In != nullptr) {
      if (const int Rc = takeU64(In, InLen, Keep))
        return Rc;
    } else if (InLen != 0) {
      return EINVAL;
    }
    const std::uint64_t Released =
        lfm::defaultAllocator().releaseMemory(static_cast<size_t>(Keep));
    if (Out != nullptr || OutLen != nullptr)
      return readU64(Out, OutLen, Released);
    return 0;
  }

  if (std::strcmp(Key, "retain.max_bytes") == 0) {
    LFAllocator &Alloc = lfm::defaultAllocator();
    const std::uint64_t Old = Alloc.retainMaxBytes();
    if (In != nullptr) {
      std::uint64_t New = 0;
      if (const int Rc = takeU64(In, InLen, New))
        return Rc;
      Alloc.setRetainMaxBytes(static_cast<size_t>(New));
    }
    if (Out != nullptr || OutLen != nullptr)
      return readU64(Out, OutLen, Old);
    return In != nullptr ? 0 : EINVAL;
  }

  if (std::strcmp(Key, "retain.decay_ms") == 0) {
    LFAllocator &Alloc = lfm::defaultAllocator();
    const std::int64_t Old = Alloc.retainDecayMs();
    if (In != nullptr) {
      std::int64_t New = 0;
      if (const int Rc = takeI64(In, InLen, New))
        return Rc;
      Alloc.setRetainDecayMs(New);
    }
    if (Out != nullptr || OutLen != nullptr)
      return readI64(Out, OutLen, Old);
    return In != nullptr ? 0 : EINVAL;
  }

  if (std::strcmp(Key, "debug.fail_map") == 0) {
    // In: i64 After (fail maps once After more succeed), optionally
    // followed by i64 FailCount for a finite failure budget (default -1:
    // fail forever). Get returns the last armed After value.
    if (In != nullptr) {
      std::int64_t Arm[2] = {0, -1};
      if (InLen != sizeof(std::int64_t) && InLen != sizeof(Arm))
        return EINVAL;
      std::memcpy(Arm, In, InLen);
      lfm::defaultAllocator().debugInjectMapFailures(Arm[0], Arm[1]);
      detail::LastFailMapArm.store(Arm[0], std::memory_order_relaxed);
    }
    if (Out != nullptr || OutLen != nullptr)
      return readI64(Out, OutLen,
                     detail::LastFailMapArm.load(std::memory_order_relaxed));
    return In != nullptr ? 0 : EINVAL;
  }

  if (std::strncmp(Key, "stats.", 6) == 0) {
    if (In != nullptr)
      return EPERM;
    return statsGet(Key, Out, OutLen);
  }

  if (std::strncmp(Key, "opt.", 4) == 0) {
    if (In != nullptr)
      return EPERM;
    return optGet(Key + 4, Out, OutLen);
  }

  if (std::strcmp(Key, "exporter.start") == 0) {
    // In: u64 interval in milliseconds (> 0). The artifact prefix is the
    // cached LFM_STATS_PREFIX (opt.stats_prefix echoes it).
    std::uint64_t Ms = 0;
    if (const int Rc = takeU64(In, InLen, Ms))
      return Rc;
    const int Rc = telemetry::StatsExporter::start(Ms, detail::StatsPrefix,
                                                   exporterEmit, nullptr);
    if (Rc == 0)
      detail::StatsIntervalMs.store(Ms, std::memory_order_relaxed);
    return Rc;
  }
  if (std::strcmp(Key, "exporter.stop") == 0) {
    if (In != nullptr)
      return EINVAL;
    telemetry::StatsExporter::stop();
    detail::StatsIntervalMs.store(0, std::memory_order_relaxed);
    return 0;
  }
  if (std::strcmp(Key, "exporter.flush") == 0) {
    if (In != nullptr)
      return EINVAL;
    return telemetry::StatsExporter::runCycleNow(detail::StatsPrefix,
                                                 exporterEmit, nullptr);
  }
  if (std::strcmp(Key, "exporter.cycles") == 0) {
    if (In != nullptr)
      return EPERM;
    return readU64(Out, OutLen, telemetry::StatsExporter::cycles());
  }

  if (std::strcmp(Key, "dump.metrics") == 0)
    return dumpStdio(In, InLen, &LFAllocator::metricsJson);
  if (std::strcmp(Key, "dump.trace") == 0)
    return dumpStdio(In, InLen, &LFAllocator::traceJson);
  if (std::strcmp(Key, "dump.topology") == 0)
    return dumpStdio(In, InLen, &LFAllocator::heapTopologyJson);
  if (std::strcmp(Key, "dump.heap_profile_json") == 0)
    return dumpStdio(In, InLen, &LFAllocator::heapProfileJson);
  if (std::strcmp(Key, "dump.heap_profile") == 0)
    return dumpFd(In, InLen, heapProfileFd);
  if (std::strcmp(Key, "dump.leak_report") == 0)
    return dumpFd(In, InLen, leakReportFd);
  if (std::strcmp(Key, "dump.heap_profile_seq") == 0) {
    if (In != nullptr)
      return EINVAL;
    return heapProfileSeqDump();
  }
  if (std::strcmp(Key, "dump.prometheus") == 0)
    return dumpFd(In, InLen, prometheusFd);
  if (std::strcmp(Key, "dump.prometheus_seq") == 0) {
    if (In != nullptr)
      return EINVAL;
    return prometheusSeqDump();
  }

  if (std::strncmp(Key, "trace.", 6) == 0)
    return traceCtl(Key + 6, Out, OutLen, In, InLen);

  if (std::strncmp(Key, "contention.", 11) == 0)
    return contentionCtl(Key, Out, OutLen, In, InLen);

  if (std::strncmp(Key, "largebackend.", 13) == 0)
    return largeBackendCtl(Key + 13, Out, OutLen, In, InLen);

  if (std::strncmp(Key, "shmstats.", 9) == 0)
    return shmstatsCtl(Key + 9, Out, OutLen, In, InLen);

  return ENOENT;
}

int lf_malloc_trim(size_t KeepBytes) {
  // glibc malloc_trim semantics: returns 1 when memory was actually
  // released back to the system, 0 otherwise.
  return lfm::defaultAllocator().releaseMemory(KeepBytes) > 0 ? 1 : 0;
}
