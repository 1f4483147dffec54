//===- telemetry/PromWriter.h - Prometheus text exposition -------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prometheus text exposition (format 0.0.4) for the allocator's metrics:
/// every counter as `lf_malloc_<name>_total`, space and subsystem gauges
/// as `lf_malloc_*`, and the sampled latency histograms as one classic
/// histogram family `lf_malloc_latency_ns` with a `path` label per outcome
/// path — sparse cumulative `_bucket{le=...}` series (only non-empty
/// buckets, always `+Inf`), `_sum` and `_count`.
///
/// `le` bounds are the *inclusive* integer upper bounds of the log-linear
/// buckets (support/LogBuckets.h upper bound minus one — Prometheus `le`
/// is <=, our buckets are half-open), so a server-side
/// histogram_quantile() lands within the same 12.5% bucket resolution the
/// in-process quantiles report.
///
/// Everything writes through the async-signal-safe FdWriter — no stdio, no
/// floating point, no allocation — so the same code serves
/// lf_malloc_ctl("dump.prometheus"), the SIGUSR2 dump, and the background
/// exporter.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_PROMWRITER_H
#define LFMALLOC_TELEMETRY_PROMWRITER_H

#include "profiling/FdWriter.h"
#include "telemetry/LatencyHistogram.h"
#include "telemetry/MetricsSnapshot.h"

namespace lfm {
namespace telemetry {

/// Writes the snapshot's counters and every registry scalar with a
/// Prometheus kind (Metrics.def) as single-series counter/gauge families.
void promWriteMetrics(profiling::FdWriter &W, const MetricsSnapshot &Snap);

/// Writes the `# HELP` / `# TYPE` header of the lf_malloc_latency_ns
/// histogram family. Call once, then promWriteLatencySeries() for each
/// path — exposition format requires a family's series to be contiguous.
void promWriteLatencyHelp(profiling::FdWriter &W);

/// Writes one path's histogram series (buckets, _sum, _count) labelled
/// {path="<PathName>"}. \p PathName must be a plain identifier (the
/// latencyPathName() table) — no label escaping is performed.
void promWriteLatencySeries(profiling::FdWriter &W, const char *PathName,
                            const LatencyHistogramSnapshot &H);

/// Header of the lf_malloc_cas_retries histogram family (sampled retries
/// per retry-loop execution, by CAS site). Same contiguity rule as the
/// latency family.
void promWriteCasRetriesHelp(profiling::FdWriter &W);

/// One site's retries-per-op series labelled {site="<SiteName>"}.
/// \p SiteName must come from the contentionSiteName() table. The "ns" in
/// the snapshot type is retries here; `le` bounds are retry counts (exact
/// for retries <= 7, the LogBuckets singleton range).
void promWriteCasRetriesSeries(profiling::FdWriter &W, const char *SiteName,
                               const LatencyHistogramSnapshot &H);

/// Header of the lf_malloc_cas_loop_ns histogram family (sampled wall time
/// inside a retry loop, by CAS site).
void promWriteCasLoopNsHelp(profiling::FdWriter &W);

/// One site's time-in-loop series labelled {site="<SiteName>"}.
void promWriteCasLoopNsSeries(profiling::FdWriter &W, const char *SiteName,
                              const LatencyHistogramSnapshot &H);

} // namespace telemetry
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_PROMWRITER_H
