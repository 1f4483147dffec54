//===- support/RuntimeConfig.h - LFM_* environment registry ------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single registry of every `LFM_*` environment variable the library
/// and its tools consume. Each variable has one row here — name, the
/// `lf_malloc_ctl` key it mirrors (when it configures the default
/// allocator), its default, and a help line — so the env surface is
/// documented in exactly one place (docs/API.md renders this table) and
/// scattered ad-hoc getenv calls cannot drift from it.
///
/// The readers are getenv-and-parse only: no allocation, no locks, usable
/// during allocator bootstrap and before main(). Parsing is strict — a
/// malformed value reads as "unset" rather than silently becoming zero.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_SUPPORT_RUNTIMECONFIG_H
#define LFMALLOC_SUPPORT_RUNTIMECONFIG_H

#include <cstdint>

namespace lfm {
namespace config {

/// Every recognized LFM_* environment variable.
enum class Var : unsigned {
  // Default-allocator telemetry/profiling options (read at first use).
  Stats,        ///< LFM_STATS: maintain operation counters.
  Trace,        ///< LFM_TRACE: record trace events (implies counters).
  TraceEvents,  ///< LFM_TRACE_EVENTS: per-thread trace-ring capacity.
  Profile,      ///< LFM_PROFILE: attach the sampling heap profiler.
  ProfileRate,  ///< LFM_PROFILE_RATE: mean bytes between samples.
  ProfileSeed,  ///< LFM_PROFILE_SEED: fixed sampler seed.
  ProfileSites, ///< LFM_PROFILE_SITES: site-table capacity.
  ProfileLive,  ///< LFM_PROFILE_LIVE: live-table capacity.
  ProfileDump,  ///< LFM_PROFILE_DUMP: signal-dump path prefix.
  LeakReport,   ///< LFM_LEAK_REPORT: shim registers atexit leak report.

  // Latency observability and background stats export.
  LatencySample,   ///< LFM_LATENCY_SAMPLE: mean ops between latency samples.
  StatsIntervalMs, ///< LFM_STATS_INTERVAL_MS: background exporter period.
  StatsPrefix,     ///< LFM_STATS_PREFIX: exporter artifact path prefix.

  // Out-of-process live inspection.
  ShmStats, ///< LFM_SHM_STATS: lfm-shmstats-v2 segment backing
            ///< (filesystem path, or "1"/"auto"/"memfd" for an anonymous
            ///< memfd); unset disables.
  Usdt,     ///< LFM_USDT: fire USDT tracepoints at runtime (default 1).

  // Contention-and-progress observability.
  ContentionSample,   ///< LFM_CONTENTION_SAMPLE: mean retry-loop executions
                      ///< between contention samples (implies stats).
  ContentionHeat,     ///< LFM_CONTENTION_HEAT: heat-table capacity.
  ContentionWatchdog, ///< LFM_CONTENTION_WATCHDOG: arm the progress
                      ///< watchdog (implies stats).
  ContentionStallMs,  ///< LFM_CONTENTION_STALL_MS: watchdog stall age.
  ContentionStorm,    ///< LFM_CONTENTION_STORM: watchdog storm attempts.

  // Allocation flight recorder (shim; trace/AllocTrace.h).
  TraceRecord, ///< LFM_TRACE_RECORD: record an lfm-alloctrace-v1 file here.
  TraceBufKb,  ///< LFM_TRACE_BUF_KB: recorder append-buffer budget in KiB.

  // Memory-return policy (read at first use, adjustable via ctl).
  RetainMaxBytes, ///< LFM_RETAIN_MAX_BYTES: superblock-cache watermark.
  RetainDecayMs,  ///< LFM_RETAIN_DECAY_MS: decay period; <0 disables.

  // Thread-local magazine cache (read at first use).
  Tcache,        ///< LFM_TCACHE: thread-cache layer on the default allocator.
  TcacheMagSize, ///< LFM_TCACHE_MAG_SIZE: magazine slot cap per size class.

  // Large-object backend (read at first use).
  LargeBackend,   ///< LFM_LARGE_BACKEND: "buddy" (default) or "os".
  BuddySpanBytes, ///< LFM_BUDDY_SPAN_BYTES: reserved bytes per buddy span.

  // Fault injection (test/debug only).
  FailMap, ///< LFM_FAIL_MAP: fail OS maps after N successes.

  // Benchmark harness.
  BenchScale,      ///< LFM_BENCH_SCALE: global duration multiplier.
  BenchSeconds,    ///< LFM_BENCH_SECONDS: per-cell seconds override.
  BenchMaxThreads, ///< LFM_BENCH_MAXTHREADS: thread-axis cap.
  MetricsJson,     ///< LFM_METRICS_JSON: metrics dump path after a run.
  TraceJson,       ///< LFM_TRACE_JSON: trace dump path after a run.

  // Deterministic schedule-exploration harness.
  TestSeed,    ///< LFM_TEST_SEED: base seed for seeded tests.
  SchedSeeds,  ///< LFM_SCHED_SEEDS: schedules explored per test.
  SchedReplay, ///< LFM_SCHED_REPLAY: "seed=S,preempt=P,casfail=F" replay.
};

inline constexpr unsigned NumVars = static_cast<unsigned>(Var::SchedReplay) + 1;

/// One registry row. Everything is a string literal: the table is static
/// const data with no initialization order concerns.
struct VarSpec {
  const char *EnvName; ///< "LFM_..." environment variable name.
  const char *CtlKey;  ///< Matching lf_malloc_ctl key; null when the
                       ///< variable configures a tool, not the allocator.
  const char *Default; ///< Printable default ("0", "unset", "lfm-heap").
  const char *Help;    ///< One-line description.
};

/// \returns the registry row for \p V.
const VarSpec &varSpec(Var V);

/// \returns the raw environment value, or null when unset or empty.
const char *varRaw(Var V);

/// Boolean read: set, non-empty, and not exactly "0".
bool varFlag(Var V);

/// Strict unsigned read (base auto-detected, 0x.. accepted). \returns
/// false — leaving \p Out untouched — when unset or malformed.
bool varU64(Var V, std::uint64_t &Out);

/// Strict signed read; accepts negative values (LFM_RETAIN_DECAY_MS=-1).
bool varI64(Var V, std::int64_t &Out);

/// Strict floating-point read (LFM_BENCH_SCALE=0.25).
bool varF64(Var V, double &Out);

} // namespace config
} // namespace lfm

#endif // LFMALLOC_SUPPORT_RUNTIMECONFIG_H
