//===- telemetry/MetricRegistry.h - Scalar metric registry -------*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metric vocabulary shared with out-of-process readers: the scalar
/// metric registry (Metrics.def) as a constexpr table (section, key, value
/// type, Prometheus kind, ctl key and help text for every scalar, in
/// document order) and the all-u64 per-path, per-class and per-site
/// records. Dependency-free (standard headers only), so the shared-memory
/// wire format and lfm-top use the same type codes, names and record
/// layouts as MetricsSnapshot. The allocator-side value reader lives with
/// MetricsSnapshot (readScalars()).
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_METRICREGISTRY_H
#define LFMALLOC_TELEMETRY_METRICREGISTRY_H

#include <cstdint>

namespace lfm {
namespace telemetry {

/// JSON sections that hold scalars, in document order.
enum class MetricSection : std::uint8_t {
  Config,
  Space,
  Gauges,
  Latency,
  Contention,
  ContentionHeat,
  ContentionWatchdog,
  ShmStats,
};

/// How a scalar's u64 wire value reads. The numeric codes are part of the
/// lfm-shmstats-v2 segment format.
enum class ScalarType : std::uint8_t {
  U64 = 0,
  Bool = 1,   ///< 0 or 1.
  I64 = 2,    ///< Two's-complement bit pattern.
  Policy = 3, ///< Partial-list policy: 1 = "fifo", else "lifo".
};

/// Prometheus exposition kind. Codes are part of the segment format too.
enum class PromKind : std::uint8_t {
  None = 0,
  Gauge = 1,
  Counter = 2, ///< Exposed as <name>_total.
};

struct ScalarInfo {
  MetricSection Section;
  const char *Key;
  ScalarType Type;
  PromKind Prom;
  const char *Ctl; ///< lf_malloc_ctl key, or "" when none.
  const char *Help;
};

inline constexpr ScalarInfo ScalarTable[] = {
#define LFM_METRIC(Section, Key, Type, Prom, Ctl, Help, Read)                  \
  {MetricSection::Section, Key, ScalarType::Type, PromKind::Prom, Ctl, Help},
#include "telemetry/Metrics.def"
#undef LFM_METRIC
};

inline constexpr unsigned NumScalars =
    sizeof(ScalarTable) / sizeof(ScalarTable[0]);

/// Dotted JSON path of a section ("contention.heat").
constexpr const char *metricSectionPath(MetricSection S) {
  switch (S) {
  case MetricSection::Config:
    return "config";
  case MetricSection::Space:
    return "space";
  case MetricSection::Gauges:
    return "gauges";
  case MetricSection::Latency:
    return "latency";
  case MetricSection::Contention:
    return "contention";
  case MetricSection::ContentionHeat:
    return "contention.heat";
  case MetricSection::ContentionWatchdog:
    return "contention.watchdog";
  case MetricSection::ShmStats:
    return "shmstats";
  }
  return "unknown";
}

/// Prefix that turns a key into its Prometheus name (after "lf_malloc_"):
/// the section path with '.' as '_', except the config echo and subsystem
/// gauges, which have always been exposed unprefixed.
constexpr const char *metricSectionPromPrefix(MetricSection S) {
  switch (S) {
  case MetricSection::Config:
  case MetricSection::Gauges:
    return "";
  case MetricSection::Space:
    return "space_";
  case MetricSection::Latency:
    return "latency_";
  case MetricSection::Contention:
    return "contention_";
  case MetricSection::ContentionHeat:
    return "contention_heat_";
  case MetricSection::ContentionWatchdog:
    return "contention_watchdog_";
  case MetricSection::ShmStats:
    return "shmstats_";
  }
  return "";
}

// The records below are trivial (no member initializers) so the segment
// frames that embed them stay plain old data; MetricsSnapshot
// value-initializes its arrays of them.

/// Compact latency summary for one outcome path. Quantiles are the
/// inclusive *upper bounds* of the log-linear bucket holding that rank —
/// never interpolated point values (support/LogBuckets.h, 12.5% relative
/// resolution). Zero when no sample hit the path.
struct LatencyPathStats {
  std::uint64_t Count;
  std::uint64_t SumNs;
  std::uint64_t MaxNs;
  std::uint64_t P50UpperNs;
  std::uint64_t P99UpperNs;
  std::uint64_t P999UpperNs;
};

/// Per-size-class latency moments (count/sum/max only; the histograms are
/// per path). Index NumSizeClasses is the shared large/OS slot.
struct LatencyClassStats {
  std::uint64_t Count;
  std::uint64_t SumNs;
  std::uint64_t MaxNs;
};

/// Compact contention summary for one CAS retry site (lfm-metrics-v3).
/// Quantiles follow the latency convention: inclusive bucket upper bounds,
/// never interpolated. Full bucket detail goes through the Prometheus
/// lf_malloc_cas_retries exposition instead of this document.
struct ContentionSiteStats {
  std::uint64_t Count;      ///< Sampled loop executions.
  std::uint64_t RetriesSum; ///< Total sampled retries at this site.
  std::uint64_t RetriesMax;
  std::uint64_t RetriesP50; ///< Exact for retries <= 7 (LogBuckets
                            ///< singletons), bucket upper above.
  std::uint64_t RetriesP99;
  std::uint64_t LoopSumNs;  ///< Total sampled time-in-loop.
  std::uint64_t LoopMaxNs;
  std::uint64_t LoopP50UpperNs;
  std::uint64_t LoopP99UpperNs;
};

} // namespace telemetry
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_METRICREGISTRY_H
