//===- telemetry/PromWriter.cpp - Prometheus text exposition --------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "telemetry/PromWriter.h"

#include "support/LogBuckets.h"

using namespace lfm;
using namespace lfm::telemetry;

namespace {

constexpr const char *Ns = "lf_malloc_";

void help(profiling::FdWriter &W, const char *Name, const char *Text,
          const char *Type) {
  W.str("# HELP ");
  W.str(Ns);
  W.str(Name);
  W.ch(' ');
  W.str(Text);
  W.ch('\n');
  W.str("# TYPE ");
  W.str(Ns);
  W.str(Name);
  W.ch(' ');
  W.str(Type);
  W.ch('\n');
}

/// Writes "lf_malloc_<Prefix><Key><Suffix>".
void name(profiling::FdWriter &W, const char *Prefix, const char *Key,
          const char *Suffix) {
  W.str(Ns);
  W.str(Prefix);
  W.str(Key);
  W.str(Suffix);
}

/// One single-series family: HELP and TYPE immediately followed by the
/// sample.
void scalarFamily(profiling::FdWriter &W, const char *Prefix,
                  const char *Key, const char *Help, bool IsCounter,
                  std::uint64_t V) {
  const char *Suffix = IsCounter ? "_total" : "";
  W.str("# HELP ");
  name(W, Prefix, Key, Suffix);
  W.ch(' ');
  W.str(Help);
  W.str("\n# TYPE ");
  name(W, Prefix, Key, Suffix);
  W.str(IsCounter ? " counter\n" : " gauge\n");
  name(W, Prefix, Key, Suffix);
  W.ch(' ');
  W.dec(V);
  W.ch('\n');
}

} // namespace

void lfm::telemetry::promWriteMetrics(profiling::FdWriter &W,
                                      const MetricsSnapshot &Snap) {
  // Operation counters. Prometheus names must be stable forever, so they
  // reuse the exact counterName() identifiers the JSON schema exports.
  for (unsigned C = 0; C < NumCounters; ++C)
    scalarFamily(W, "", counterName(static_cast<Counter>(C)),
                 "lfmalloc operation counter.", true, Snap.Counters[C]);

  // Every registry scalar with a Prometheus kind (bools read as 0/1).
  std::uint64_t Values[NumScalars];
  readScalars(Snap, Values);
  for (unsigned I = 0; I < NumScalars; ++I) {
    const ScalarInfo &R = ScalarTable[I];
    if (R.Prom != PromKind::None)
      scalarFamily(W, metricSectionPromPrefix(R.Section), R.Key, R.Help,
                   R.Prom == PromKind::Counter, Values[I]);
  }
}

void lfm::telemetry::promWriteLatencyHelp(profiling::FdWriter &W) {
  help(W, "latency_ns",
       "Sampled malloc/free operation latency by outcome path.",
       "histogram");
}

namespace {

/// Shared body of every labeled histogram family: sparse cumulative
/// buckets (only non-empty, always +Inf), _sum, _count.
void labeledHistogram(profiling::FdWriter &W, const char *Family,
                      const char *Label, const char *LabelValue,
                      const LatencyHistogramSnapshot &H) {
  std::uint64_t Cumulative = 0;
  for (unsigned I = 0; I < logbuckets::NumBuckets; ++I) {
    if (H.Buckets[I] == 0)
      continue; // Sparse exposition: empty buckets carry no information.
    Cumulative += H.Buckets[I];
    W.str(Ns);
    W.str(Family);
    W.str("_bucket{");
    W.str(Label);
    W.str("=\"");
    W.str(LabelValue);
    W.str("\",le=\"");
    // Inclusive integer bound: our buckets are [lower, upper), le is <=.
    W.dec(logbuckets::bucketUpper(I) - 1);
    W.str("\"} ");
    W.dec(Cumulative);
    W.ch('\n');
  }
  W.str(Ns);
  W.str(Family);
  W.str("_bucket{");
  W.str(Label);
  W.str("=\"");
  W.str(LabelValue);
  W.str("\",le=\"+Inf\"} ");
  W.dec(H.Count);
  W.ch('\n');
  W.str(Ns);
  W.str(Family);
  W.str("_sum{");
  W.str(Label);
  W.str("=\"");
  W.str(LabelValue);
  W.str("\"} ");
  W.dec(H.SumNs);
  W.ch('\n');
  W.str(Ns);
  W.str(Family);
  W.str("_count{");
  W.str(Label);
  W.str("=\"");
  W.str(LabelValue);
  W.str("\"} ");
  W.dec(H.Count);
  W.ch('\n');
}

} // namespace

void lfm::telemetry::promWriteLatencySeries(profiling::FdWriter &W,
                                            const char *PathName,
                                            const LatencyHistogramSnapshot &H) {
  labeledHistogram(W, "latency_ns", "path", PathName, H);
}

void lfm::telemetry::promWriteCasRetriesHelp(profiling::FdWriter &W) {
  help(W, "cas_retries",
       "Sampled CAS retries per retry-loop execution, by site.",
       "histogram");
}

void lfm::telemetry::promWriteCasRetriesSeries(
    profiling::FdWriter &W, const char *SiteName,
    const LatencyHistogramSnapshot &H) {
  labeledHistogram(W, "cas_retries", "site", SiteName, H);
}

void lfm::telemetry::promWriteCasLoopNsHelp(profiling::FdWriter &W) {
  help(W, "cas_loop_ns",
       "Sampled wall time inside a CAS retry loop, by site.", "histogram");
}

void lfm::telemetry::promWriteCasLoopNsSeries(
    profiling::FdWriter &W, const char *SiteName,
    const LatencyHistogramSnapshot &H) {
  labeledHistogram(W, "cas_loop_ns", "site", SiteName, H);
}
