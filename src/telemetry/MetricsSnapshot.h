//===- telemetry/MetricsSnapshot.h - Stable metrics export -------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable, versioned view of an allocator's metrics: every telemetry
/// counter plus space accounting and subsystem gauges, flattened into one
/// plain struct so harnesses and tests consume a fixed ABI rather than
/// poking at allocator internals. writeMetricsJson() renders it as the
/// machine-readable form the benchmark driver's --metrics-json flag emits.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_METRICSSNAPSHOT_H
#define LFMALLOC_TELEMETRY_METRICSSNAPSHOT_H

#include "lfmalloc/SizeClasses.h"
#include "os/PageAllocator.h"
#include "telemetry/ContentionSite.h"
#include "telemetry/Counters.h"
#include "telemetry/LatencyPath.h"
#include "telemetry/MetricRegistry.h"

#include <cstdint>
#include <cstdio>

namespace lfm {
namespace telemetry {

/// Point-in-time metrics for one allocator instance. Counter values are
/// racy snapshots while threads run and exact once they quiesce. Every
/// scalar member is exported through one row of the metric registry
/// (Metrics.def); the renderers never name members themselves.
struct MetricsSnapshot {
  /// All telemetry counters, indexed by Counter. Zero when the build or
  /// the instance has telemetry disabled.
  std::uint64_t Counters[NumCounters] = {};

  /// Space accounting from the allocator's PageAllocator.
  PageStats Space = {};

  // Subsystem gauges (current values, not monotonic).
  std::uint64_t CachedSuperblocks = 0;  ///< Superblocks idle in the cache.
  std::uint64_t DescriptorsMinted = 0;  ///< Descriptors ever created.
  std::uint64_t HazardRetired = 0;      ///< Nodes awaiting reclamation.
  std::uint64_t HazardScans = 0;        ///< Hazard-pointer scan() passes.
  std::uint64_t HazardReclaims = 0;     ///< Nodes freed by scans.

  // Memory-return gauges.
  std::uint64_t RetainedBytes = 0;        ///< Bytes idle in the sb cache.
  std::uint64_t DecommittedSuperblocks = 0; ///< Cached sbs with pages
                                            ///< returned to the OS.
  std::uint64_t ParkedHyperblocks = 0;    ///< Fully-free hyperblocks held
                                          ///< decommitted for reuse.
  std::uint64_t RetainMaxBytes = 0;       ///< Retention watermark in force.
  std::int64_t RetainDecayMs = -1;        ///< Decay period; -1 = off.

  // Large-backend gauges (lfm-metrics-v4). LargeBackendBuddy echoes the
  // selection; the byte gauges are all zero for the os-direct backend and
  // the buddy_* operation counters live in the Counters array (folded in
  // at snapshot time from the backend's own relaxed cells).
  bool LargeBackendBuddy = false;
  std::uint64_t BuddySpansReserved = 0;
  std::uint64_t BuddySpanBytes = 0;          ///< Configured span size echo.
  std::uint64_t BuddyBytesReserved = 0;      ///< Address space reserved.
  std::uint64_t BuddyBytesCommitted = 0;     ///< Physical pages promised.
  std::uint64_t BuddyBytesAllocated = 0;     ///< Live large-block bytes.
  std::uint64_t BuddyFreeCommittedBytes = 0; ///< Trimmable residue.

  // Trace-ring accounting (zero when tracing is off).
  std::uint64_t TraceEventsEmitted = 0;
  std::uint64_t TraceEventsOverwritten = 0;

  // Allocation flight recorder health (trace/AllocTrace.h; all zero when
  // LFM_ALLOC_TRACE=0 or no recording has run).
  bool AllocTraceRecording = false;
  std::uint64_t AllocTraceOps = 0;
  std::uint64_t AllocTraceDropped = 0;

  // Sampled-latency observability (lfm-metrics-v2; all zero when latency
  // recording is off or LFM_TELEMETRY=0).
  bool LatencyEnabled = false;
  std::uint64_t LatencySamplePeriod = 0;
  LatencyPathStats Latency[NumLatencyPaths] = {};
  LatencyClassStats LatencyClasses[NumSizeClasses + 1] = {};

  // Contention-and-progress observability (lfm-metrics-v3; all zero when
  // contention recording is off or LFM_TELEMETRY=0).
  bool ContentionEnabled = false;
  std::uint64_t ContentionSamplePeriod = 0;
  std::uint64_t ContentionSamples = 0;
  ContentionSiteStats Contention[NumContentionSites] = {};
  /// Sampled retry mass per size class; index NumSizeClasses is the
  /// no-class bucket (descriptor/list machinery).
  std::uint64_t ContentionClassRetries[NumSizeClasses + 1] = {};
  /// Hottest superblocks by sampled retry mass, descending;
  /// ContentionHeatCount entries are valid.
  ContentionHeatEntry ContentionHeat[ContentionTopK] = {};
  std::uint32_t ContentionHeatCount = 0;
  std::uint64_t ContentionHeatEntries = 0; ///< Distinct sbs in the table.
  std::uint64_t ContentionHeatCapacity = 0;
  std::uint64_t ContentionHeatDropped = 0; ///< Overflow, never silent.
  bool WatchdogArmed = false;
  std::uint64_t WatchdogScans = 0;
  std::uint64_t WatchdogStalls = 0;
  std::uint64_t WatchdogStorms = 0;

  // Shared-memory stats segment (lfm-metrics-v5; telemetry/ShmStats.h).
  // All zero when no segment is mapped or LFM_TELEMETRY=0.
  bool ShmStatsActive = false;
  std::uint64_t ShmStatsEpoch = 0;     ///< Epoch of the last frame.
  std::uint64_t ShmStatsPublishes = 0; ///< Frames published so far.
  std::uint64_t ShmStatsBytes = 0;     ///< Mapped segment size.

  // Configuration echo, so a JSON consumer can interpret the numbers.
  std::uint64_t Heaps = 0;
  std::uint64_t Classes = 0;
  std::uint64_t SuperblockBytes = 0;
  std::uint64_t HyperblockBytes = 0;
  bool PartialPolicyFifo = false;
  bool StatsEnabled = false;
  /// Thread-cache (magazine layer) gauges; all zero when the feature is
  /// off. Hit counters live in the Counters array (folded in at snapshot
  /// time from the RMW-free per-cache cells).
  bool TcacheEnabled = false;
  std::uint64_t TcacheMagSize = 0;        ///< Configured slot cap echo.
  std::uint64_t TcacheCachesMinted = 0;   ///< Cache slabs ever mapped.
  std::uint64_t TcacheCachesParked = 0;   ///< Caches awaiting adoption.
  std::uint64_t TcacheMagazineBlocks = 0; ///< Blocks in magazines now.
  std::uint64_t TcacheDepotBlocks = 0;    ///< Blocks in depots now.
  bool TraceEnabled = false;
  /// False when the library was built with LFM_TELEMETRY=0 (counters
  /// beyond the legacy eight are then structurally zero).
  bool TelemetryCompiled = false;

  std::uint64_t counter(Counter C) const {
    return Counters[static_cast<unsigned>(C)];
  }
};

/// Reads every registry scalar (Metrics.def) out of \p S into \p Out
/// (NumScalars values) as its u64 wire value, in ScalarTable order: bools
/// as 0/1, i64 as its bit pattern.
void readScalars(const MetricsSnapshot &S, std::uint64_t *Out);

/// Writes \p Snap as a single JSON object: {"schema":"lfm-metrics-v5",
/// "config":{...},"space":{...},"counters":{...},"gauges":{...},
/// "latency":{...},"contention":{...}}. Each version is a strict superset
/// of the previous: every v1/v2 field keeps its name and position, so
/// older consumers keep parsing.
void writeMetricsJson(const MetricsSnapshot &Snap, std::FILE *Out);

/// Same document, written to a raw fd with no stdio and no heap
/// allocation — the form the background stats exporter and signal-path
/// dumps use (the exporter must never allocate from the allocator it is
/// describing).
void writeMetricsJsonFd(const MetricsSnapshot &Snap, int Fd);

} // namespace telemetry
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_METRICSSNAPSHOT_H
