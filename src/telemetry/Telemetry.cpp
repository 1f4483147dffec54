//===- telemetry/Telemetry.cpp - Allocator observability facade -----------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "support/Timing.h"
#include "telemetry/JsonWriter.h"
#include "telemetry/MetricsSnapshot.h"

#include <algorithm>
#include <new>

using namespace lfm;
using namespace lfm::telemetry;

const char *lfm::telemetry::counterName(Counter C) {
  switch (C) {
  case Counter::Mallocs:
    return "mallocs";
  case Counter::Frees:
    return "frees";
  case Counter::FromActive:
    return "from_active";
  case Counter::FromPartial:
    return "from_partial";
  case Counter::FromNewSb:
    return "from_new_sb";
  case Counter::LargeMallocs:
    return "large_mallocs";
  case Counter::LargeFrees:
    return "large_frees";
  case Counter::SbFreed:
    return "sb_freed";
  case Counter::ActiveReserveRetries:
    return "active_reserve_retries";
  case Counter::ActivePopRetries:
    return "active_pop_retries";
  case Counter::PartialReserveRetries:
    return "partial_reserve_retries";
  case Counter::PartialPopRetries:
    return "partial_pop_retries";
  case Counter::FreePushRetries:
    return "free_push_retries";
  case Counter::UpdateActiveRetries:
    return "update_active_retries";
  case Counter::ActiveNullMisses:
    return "active_null_misses";
  case Counter::UpdateActiveReturns:
    return "update_active_returns";
  case Counter::NewSbInstallRaces:
    return "new_sb_install_races";
  case Counter::PartialListPuts:
    return "partial_list_puts";
  case Counter::PartialListGets:
    return "partial_list_gets";
  case Counter::DescAllocs:
    return "desc_allocs";
  case Counter::DescRetires:
    return "desc_retires";
  case Counter::DescChunkMaps:
    return "desc_chunk_maps";
  case Counter::SbAcquires:
    return "sb_acquires";
  case Counter::SbReleases:
    return "sb_releases";
  case Counter::HyperblockMaps:
    return "hyperblock_maps";
  case Counter::HyperblockUnmaps:
    return "hyperblock_unmaps";
  case Counter::SbDecommits:
    return "sb_decommits";
  case Counter::SbRecommits:
    return "sb_recommits";
  case Counter::HyperblockParks:
    return "hyperblock_parks";
  case Counter::HyperblockUnparks:
    return "hyperblock_unparks";
  case Counter::TrimRuns:
    return "trim_runs";
  case Counter::OomRescues:
    return "oom_rescues";
  case Counter::TraceDrops:
    return "trace_drops";
  case Counter::LatencySamples:
    return "latency_samples";
  case Counter::ExporterAllocs:
    return "exporter_allocs";
  case Counter::TcacheHitMallocs:
    return "tcache_hit_mallocs";
  case Counter::TcacheHitFrees:
    return "tcache_hit_frees";
  case Counter::TcacheRefills:
    return "tcache_refills";
  case Counter::TcacheRefillBlocks:
    return "tcache_refill_blocks";
  case Counter::TcacheFlushes:
    return "tcache_flushes";
  case Counter::TcacheFlushBlocks:
    return "tcache_flush_blocks";
  case Counter::TcacheSteals:
    return "tcache_steals";
  case Counter::TcacheStealBlocks:
    return "tcache_steal_blocks";
  case Counter::TcacheAdopts:
    return "tcache_adopts";
  case Counter::TcacheExitDrains:
    return "tcache_exit_drains";
  case Counter::BuddyAllocs:
    return "buddy_allocs";
  case Counter::BuddyFrees:
    return "buddy_frees";
  case Counter::BuddySplits:
    return "buddy_splits";
  case Counter::BuddyCoalesces:
    return "buddy_coalesces";
  case Counter::BuddyOsFallbacks:
    return "buddy_os_fallbacks";
  case Counter::BuddyRollbacks:
    return "buddy_rollbacks";
  case Counter::BuddyDecommits:
    return "buddy_decommits";
  case Counter::BuddySpanReserves:
    return "buddy_span_reserves";
  case Counter::CounterCount:
    break;
  }
  return "unknown";
}

const char *lfm::telemetry::eventTypeName(EventType T) {
  switch (T) {
  case EventType::SbNew:
    return "sb_new";
  case EventType::SbActive:
    return "sb_active";
  case EventType::SbPartial:
    return "sb_partial";
  case EventType::SbFull:
    return "sb_full";
  case EventType::SbEmpty:
    return "sb_empty";
  case EventType::DescRetired:
    return "desc_retired";
  case EventType::OsMap:
    return "os_map";
  case EventType::OsUnmap:
    return "os_unmap";
  case EventType::OsDecommit:
    return "os_decommit";
  case EventType::Trim:
    return "trim";
  case EventType::None:
  case EventType::EventTypeCount:
    break;
  }
  return "unknown";
}

namespace {

std::uint32_t roundUpPow2(std::uint32_t V) {
  if (V < 2)
    return 2;
  std::uint32_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

} // namespace

Telemetry::Telemetry(const Options &Opts)
    : TraceOn(Opts.Trace),
      RingCapacity(roundUpPow2(Opts.TraceEventsPerThread))
#if LFM_TELEMETRY
      ,
      Lat(LatencyRecorder::Options{Opts.LatencySamplePeriod, Opts.LatencySeed}),
      Cont(ContentionRecorder::Options{
          Opts.ContentionSamplePeriod, Opts.ContentionSeed,
          static_cast<std::uint32_t>(
              std::min<std::uint64_t>(Opts.ContentionHeatCapacity, 1u << 20)),
          Opts.ContentionWatchdog, Opts.ContentionStallMs,
          Opts.ContentionStormRetries})
#endif
{
}

Telemetry::~Telemetry() {
  for (std::atomic<TraceRing *> &SlotRef : Rings) {
    TraceRing *Ring = SlotRef.load(std::memory_order_acquire);
    if (Ring != nullptr) {
      Ring->~TraceRing();
      RingPages.unmap(Ring, TraceRing::bytesFor(Ring->capacity()));
    }
  }
}

TraceRing *Telemetry::myRing() {
  const std::uint32_t Tid = threadIndex();
  if (LFM_UNLIKELY(Tid >= MaxTraceThreads))
    return nullptr;
  TraceRing *Ring = Rings[Tid].load(std::memory_order_acquire);
  if (LFM_LIKELY(Ring != nullptr))
    return Ring;
  // First event on this thread: map and publish its ring. The slot is
  // written only by this thread, so a plain release store suffices.
  void *Mem = RingPages.map(TraceRing::bytesFor(RingCapacity));
  if (Mem == nullptr)
    return nullptr;
  Ring = new (Mem) TraceRing(Tid, RingCapacity);
  Rings[Tid].store(Ring, std::memory_order_release);
  return Ring;
}

void Telemetry::trace(EventType Type, std::uint64_t Arg0,
                      std::uint64_t Arg1) {
  if (!TraceOn)
    return;
  TraceRing *Ring = myRing();
  if (LFM_UNLIKELY(Ring == nullptr)) {
    Counters.add(Counter::TraceDrops);
    return;
  }
  Ring->emit(Type, monotonicNanos(), Arg0, Arg1);
}

std::uint64_t Telemetry::traceEventsEmitted() const {
  std::uint64_t Sum = 0;
  for (const std::atomic<TraceRing *> &SlotRef : Rings)
    if (const TraceRing *Ring = SlotRef.load(std::memory_order_acquire))
      Sum += Ring->emitted();
  return Sum;
}

std::uint64_t Telemetry::traceEventsOverwritten() const {
  std::uint64_t Sum = 0;
  for (const std::atomic<TraceRing *> &SlotRef : Rings)
    if (const TraceRing *Ring = SlotRef.load(std::memory_order_acquire))
      Sum += Ring->overwritten();
  return Sum;
}

void Telemetry::writeTraceJson(std::FILE *Out) const {
  // Gather the stable events of every ring into one scratch buffer, mapped
  // from the telemetry's own page source so the export path never calls
  // the allocator it is describing.
  std::uint64_t MaxEvents = 0;
  for (const std::atomic<TraceRing *> &SlotRef : Rings)
    if (SlotRef.load(std::memory_order_acquire) != nullptr)
      MaxEvents += RingCapacity;

  TraceEvent *Events = nullptr;
  const std::size_t ScratchBytes = MaxEvents * sizeof(TraceEvent);
  std::uint64_t N = 0;
  if (MaxEvents > 0) {
    // const_cast: ring storage is mutable bookkeeping; the logical state
    // of the Telemetry is unchanged by exporting.
    auto &Pages = const_cast<PageAllocator &>(RingPages);
    Events = static_cast<TraceEvent *>(Pages.map(ScratchBytes));
    if (Events != nullptr) {
      for (const std::atomic<TraceRing *> &SlotRef : Rings)
        if (const TraceRing *Ring = SlotRef.load(std::memory_order_acquire))
          N += Ring->drain(Events + N,
                           static_cast<std::uint32_t>(MaxEvents - N));
      std::sort(Events, Events + N,
                [](const TraceEvent &A, const TraceEvent &B) {
                  return A.TimestampNs < B.TimestampNs;
                });
    }
  }

  JsonWriter W(Out);
  W.beginObject();
  W.field("displayTimeUnit", "ns");
  W.key("traceEvents");
  W.beginArray();
  for (std::uint64_t I = 0; I < N; ++I) {
    const TraceEvent &E = Events[I];
    W.beginObject();
    W.field("name", eventTypeName(E.Type));
    W.field("cat", "lfm");
    W.field("ph", "i"); // Instant event.
    W.field("s", "t");  // Thread-scoped.
    W.key("ts");        // Chrome expects microseconds.
    W.value(static_cast<double>(E.TimestampNs) / 1000.0);
    W.field("pid", std::uint64_t{1});
    W.field("tid", std::uint64_t{E.Tid});
    W.key("args");
    W.beginObject();
    W.field("arg0", E.Arg0);
    W.field("arg1", E.Arg1);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::fputc('\n', Out);

  if (Events != nullptr) {
    auto &Pages = const_cast<PageAllocator &>(RingPages);
    Pages.unmap(Events, ScratchBytes);
  }
}

void lfm::telemetry::readScalars(const MetricsSnapshot &S,
                                 std::uint64_t *Out) {
  unsigned I = 0;
#define LFM_METRIC(Section, Key, Type, Prom, Ctl, Help, Read)                  \
  Out[I++] = static_cast<std::uint64_t>(Read);
#include "telemetry/Metrics.def"
#undef LFM_METRIC
}

namespace {

/// Writes every registry scalar of \p Section as "key":value, in registry
/// order, into the object \p W currently has open.
template <class Writer>
void emitScalars(Writer &W, const std::uint64_t (&Values)[NumScalars],
                 MetricSection Section) {
  for (unsigned I = 0; I < NumScalars; ++I)
    if (ScalarTable[I].Section == Section)
      W.field(ScalarTable[I].Key, ScalarTable[I].Type, Values[I]);
}

/// The one definition of the metrics document, emitted through either
/// writer so the stdio and fd forms can never drift apart. Scalars come
/// from the registry; this function only lays out the sections and the
/// per-path, per-site and per-class arrays.
template <class Writer>
void emitMetricsDoc(Writer &W, const MetricsSnapshot &Snap) {
  std::uint64_t Values[NumScalars];
  readScalars(Snap, Values);
  auto Section = [&](const char *Key, MetricSection S) {
    W.key(Key);
    W.beginObject();
    emitScalars(W, Values, S);
  };

  W.beginObject();
  W.field("schema", "lfm-metrics-v5");

  Section("config", MetricSection::Config);
  W.endObject();
  Section("space", MetricSection::Space);
  W.endObject();

  W.key("counters");
  W.beginObject();
  for (unsigned C = 0; C < NumCounters; ++C)
    W.field(counterName(static_cast<Counter>(C)), Snap.Counters[C]);
  W.endObject();

  Section("gauges", MetricSection::Gauges);
  W.endObject();

  // The v2 addition. Per-path quantiles are exact bucket upper bounds
  // (see LatencyPathStats); full bucket detail goes through the
  // Prometheus exposition instead of bloating this document.
  Section("latency", MetricSection::Latency);
  W.key("paths");
  W.beginObject();
  for (unsigned P = 0; P < NumLatencyPaths; ++P) {
    const LatencyPathStats &S = Snap.Latency[P];
    W.key(latencyPathName(static_cast<LatencyPath>(P)));
    W.beginObject();
    W.field("count", S.Count);
    W.field("sum_ns", S.SumNs);
    W.field("max_ns", S.MaxNs);
    W.field("p50_upper_ns", S.P50UpperNs);
    W.field("p99_upper_ns", S.P99UpperNs);
    W.field("p999_upper_ns", S.P999UpperNs);
    W.endObject();
  }
  W.endObject();
  W.key("classes");
  W.beginArray();
  for (unsigned C = 0; C <= NumSizeClasses; ++C) {
    const LatencyClassStats &S = Snap.LatencyClasses[C];
    if (S.Count == 0)
      continue; // Sparse: silent classes carry no information.
    W.beginObject();
    W.field("class", static_cast<std::uint64_t>(C));
    W.field("count", S.Count);
    W.field("sum_ns", S.SumNs);
    W.field("max_ns", S.MaxNs);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  // The v3 addition: per-CAS-site retry/time-in-loop distributions,
  // superblock heat attribution, and watchdog verdicts. Quantiles are
  // bucket upper bounds like the latency section; retries <= 7 land in
  // the LogBuckets singleton buckets and are exact.
  Section("contention", MetricSection::Contention);
  W.key("sites");
  W.beginObject();
  for (unsigned S = 0; S < NumContentionSites; ++S) {
    const ContentionSiteStats &C = Snap.Contention[S];
    W.key(contentionSiteName(static_cast<ContentionSite>(S)));
    W.beginObject();
    W.field("count", C.Count);
    W.field("retries_sum", C.RetriesSum);
    W.field("retries_max", C.RetriesMax);
    W.field("retries_p50", C.RetriesP50);
    W.field("retries_p99", C.RetriesP99);
    W.field("loop_sum_ns", C.LoopSumNs);
    W.field("loop_max_ns", C.LoopMaxNs);
    W.field("loop_p50_upper_ns", C.LoopP50UpperNs);
    W.field("loop_p99_upper_ns", C.LoopP99UpperNs);
    W.endObject();
  }
  W.endObject();
  W.key("classes");
  W.beginArray();
  for (unsigned C = 0; C <= NumSizeClasses; ++C) {
    if (Snap.ContentionClassRetries[C] == 0)
      continue; // Sparse: silent classes carry no information.
    W.beginObject();
    W.field("class", static_cast<std::uint64_t>(C));
    W.field("retries", Snap.ContentionClassRetries[C]);
    W.endObject();
  }
  W.endArray();
  Section("heat", MetricSection::ContentionHeat);
  W.key("top");
  W.beginArray();
  for (std::uint32_t I = 0; I < Snap.ContentionHeatCount; ++I) {
    const ContentionHeatEntry &H = Snap.ContentionHeat[I];
    W.beginObject();
    W.field("sb", H.Sb);
    W.field("class", static_cast<std::uint64_t>(H.Class));
    W.field("retries", H.Retries);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  Section("watchdog", MetricSection::ContentionWatchdog);
  W.endObject();
  W.endObject();

  // The v5 addition: the shared-memory stats segment's own health, so a
  // JSON consumer can correlate this document with the segment frame an
  // out-of-process inspector read (equal epoch = same numbers).
  Section("shmstats", MetricSection::ShmStats);
  W.endObject();

  W.endObject();
}

} // namespace

void lfm::telemetry::writeMetricsJson(const MetricsSnapshot &Snap,
                                      std::FILE *Out) {
  JsonWriter W(Out);
  emitMetricsDoc(W, Snap);
  W.newline();
}

void lfm::telemetry::writeMetricsJsonFd(const MetricsSnapshot &Snap, int Fd) {
  if (Fd < 0)
    return;
  FdJsonWriter W(Fd);
  emitMetricsDoc(W, Snap);
  W.newline();
}
