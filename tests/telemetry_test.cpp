//===- tests/telemetry_test.cpp - Telemetry subsystem tests ---------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// Covers the observability layer: sharded counter exactness under
// concurrency, trace-ring wraparound and seqlock torn-read rejection while
// a writer is racing, metrics snapshots taken during live allocation, and
// well-formedness of the exported JSON (checked with a small recursive-
// descent parser — no JSON library dependency), and the scalar metric
// registry's uniqueness and its docs table.
//
// Everything here must pass in both build configurations; assertions that
// only hold when the extended counters exist are guarded by LFM_TELEMETRY.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/LFAllocator.h"
#include "telemetry/Counters.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/TraceRing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace lfm;
using namespace lfm::telemetry;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON well-formedness checker.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : S(Text) {}

  /// \returns true iff the whole input is exactly one valid JSON value.
  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Lit) {
    const std::size_t N = std::strlen(Lit);
    if (S.compare(Pos, N, Lit) != 0)
      return false;
    Pos += N;
    return true;
  }

  bool string() {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (static_cast<unsigned char>(S[Pos]) < 0x20)
        return false; // Raw control character.
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        const char E = S[Pos];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++Pos >= S.size() || !std::isxdigit(
                    static_cast<unsigned char>(S[Pos])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // Closing quote.
    return true;
  }

  bool number() {
    const std::size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    return Pos > Start;
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  const std::string &S;
  std::size_t Pos = 0;
};

/// Captures a member writer (metricsJson / traceJson / dumpState) into a
/// string via a memory stream.
std::string capture(const LFAllocator &Alloc,
                    void (LFAllocator::*Writer)(std::FILE *) const) {
  char *Buffer = nullptr;
  std::size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  EXPECT_NE(Stream, nullptr);
  (Alloc.*Writer)(Stream);
  std::fclose(Stream);
  std::string Out(Buffer, Size);
  ::free(Buffer);
  return Out;
}

//===----------------------------------------------------------------------===//
// CounterSet
//===----------------------------------------------------------------------===//

TEST(Counters, AggregationIsExactAcrossThreads) {
  auto Set = std::make_unique<CounterSet>();
  constexpr unsigned NumThreads = 8;
  constexpr std::uint64_t PerThread = 100'000;

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&Set] {
      for (std::uint64_t I = 0; I < PerThread; ++I) {
        Set->add(Counter::Mallocs);
        Set->add(Counter::FromActive);
        if (I % 10 == 0)
          Set->add(Counter::FreePushRetries, 3);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Set->total(Counter::Mallocs), NumThreads * PerThread);
  EXPECT_EQ(Set->total(Counter::FromActive), NumThreads * PerThread);
  EXPECT_EQ(Set->total(Counter::FreePushRetries),
            NumThreads * (PerThread / 10) * 3);
  EXPECT_EQ(Set->total(Counter::Frees), 0u);

  // snapshot() must agree with per-counter totals.
  std::uint64_t Snap[NumCounters];
  Set->snapshot(Snap);
  for (unsigned C = 0; C < NumCounters; ++C)
    EXPECT_EQ(Snap[C], Set->total(static_cast<Counter>(C))) << C;
}

TEST(Counters, NamesAreStableAndUnique) {
  std::set<std::string> Seen;
  for (unsigned C = 0; C < NumCounters; ++C) {
    const char *Name = counterName(static_cast<Counter>(C));
    ASSERT_NE(Name, nullptr);
    ASSERT_NE(Name[0], '\0');
    for (const char *P = Name; *P; ++P)
      EXPECT_TRUE((*P >= 'a' && *P <= 'z') || *P == '_')
          << "metrics keys are snake_case: " << Name;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
  }
}

//===----------------------------------------------------------------------===//
// Scalar metric registry
//===----------------------------------------------------------------------===//

/// "lf_malloc_<prefix><key>[_total]" for a row with a Prometheus kind.
std::string promName(const ScalarInfo &R) {
  return std::string("lf_malloc_") + metricSectionPromPrefix(R.Section) +
         R.Key + (R.Prom == PromKind::Counter ? "_total" : "");
}

TEST(MetricRegistry, NamesAreUniqueOnEverySurface) {
  std::set<std::string> Paths, Proms, Ctls;
  for (unsigned C = 0; C < NumCounters; ++C)
    Proms.insert(std::string("lf_malloc_") +
                 counterName(static_cast<Counter>(C)) + "_total");
  for (const ScalarInfo &R : ScalarTable) {
    ASSERT_NE(R.Key[0], '\0');
    ASSERT_NE(R.Help[0], '\0');
    for (const char *P = R.Key; *P; ++P)
      EXPECT_TRUE((*P >= 'a' && *P <= 'z') || *P == '_' ||
                  (*P >= '0' && *P <= '9'))
          << "metrics keys are snake_case: " << R.Key;
    EXPECT_TRUE(
        Paths.insert(std::string(metricSectionPath(R.Section)) + "." + R.Key)
            .second)
        << "duplicate JSON path " << R.Key;
    if (R.Prom != PromKind::None) {
      EXPECT_TRUE(Proms.insert(promName(R)).second)
          << "duplicate Prometheus name " << promName(R);
    }
    if (R.Ctl[0] != '\0') {
      EXPECT_TRUE(Ctls.insert(R.Ctl).second) << "duplicate ctl key " << R.Ctl;
    }
  }
}

TEST(MetricRegistry, EveryRowIsInTheDocsTable) {
  // docs/OBSERVABILITY.md "Scalar metrics" lists every registry row as
  // "| `<json path>` | <type> | <prometheus> | <ctl key> | <help> |".
  std::FILE *F = std::fopen(LFM_DOCS_DIR "/OBSERVABILITY.md", "r");
  ASSERT_NE(F, nullptr) << "cannot open " LFM_DOCS_DIR "/OBSERVABILITY.md";
  std::string Doc;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Doc.append(Buf, N);
  std::fclose(F);
  for (const ScalarInfo &R : ScalarTable) {
    const char *Type = R.Type == ScalarType::Bool     ? "bool"
                       : R.Type == ScalarType::I64    ? "i64"
                       : R.Type == ScalarType::Policy ? "string"
                                                      : "u64";
    const std::string Row =
        std::string("| `") + metricSectionPath(R.Section) + "." + R.Key +
        "` | " + Type + " | " +
        (R.Prom == PromKind::None ? "—" : "`" + promName(R) + "`") + " | " +
        (R.Ctl[0] == '\0' ? "—" : std::string("`") + R.Ctl + "`") + " | " +
        R.Help + " |\n";
    EXPECT_NE(Doc.find(Row), std::string::npos)
        << "docs/OBSERVABILITY.md scalar table lacks (or differs from) the "
           "registry row:\n"
        << Row;
  }
}

//===----------------------------------------------------------------------===//
// TraceRing
//===----------------------------------------------------------------------===//

struct RingDeleter {
  void operator()(TraceRing *R) const { ::operator delete(R); }
};

std::unique_ptr<TraceRing, RingDeleter> makeRing(std::uint32_t Tid,
                                                 std::uint32_t Capacity) {
  void *Mem = ::operator new(TraceRing::bytesFor(Capacity));
  return std::unique_ptr<TraceRing, RingDeleter>(
      new (Mem) TraceRing(Tid, Capacity));
}

TEST(TraceRing, WraparoundKeepsNewestEvents) {
  constexpr std::uint32_t Cap = 8;
  auto Ring = makeRing(/*Tid=*/7, Cap);
  EXPECT_EQ(Ring->capacity(), Cap);

  for (std::uint64_t I = 1; I <= 20; ++I)
    Ring->emit(EventType::SbNew, /*TimestampNs=*/I, /*Arg0=*/I * 10,
               /*Arg1=*/I * 100);

  EXPECT_EQ(Ring->emitted(), 20u);
  EXPECT_EQ(Ring->overwritten(), 20u - Cap);

  TraceEvent Out[Cap];
  const std::uint32_t N = Ring->drain(Out, Cap);
  ASSERT_EQ(N, Cap);
  // Oldest-first window over the newest Cap events: timestamps 13..20.
  for (std::uint32_t I = 0; I < N; ++I) {
    EXPECT_EQ(Out[I].TimestampNs, 20 - Cap + 1 + I);
    EXPECT_EQ(Out[I].Arg0, Out[I].TimestampNs * 10);
    EXPECT_EQ(Out[I].Arg1, Out[I].TimestampNs * 100);
    EXPECT_EQ(Out[I].Tid, 7u);
    EXPECT_EQ(Out[I].Type, EventType::SbNew);
  }
}

TEST(TraceRing, DrainBeforeFirstWrapSeesEverything) {
  auto Ring = makeRing(0, 16);
  Ring->emit(EventType::OsMap, 1, 4096, 0);
  Ring->emit(EventType::SbNew, 2, 0xABC, 64);
  TraceEvent Out[16];
  const std::uint32_t N = Ring->drain(Out, 16);
  ASSERT_EQ(N, 2u);
  EXPECT_EQ(Out[0].Type, EventType::OsMap);
  EXPECT_EQ(Out[1].Type, EventType::SbNew);
  EXPECT_EQ(Ring->overwritten(), 0u);
}

TEST(TraceRing, ConcurrentDrainNeverReturnsTornEvents) {
  // One writer wraps a tiny ring at full speed; a reader drains throughout.
  // Every event carries TimestampNs == Arg0 == Arg1, so any torn read
  // (payload halves from different writes) is detectable. The seqlock must
  // reject them all, and drained windows must be oldest-first.
  constexpr std::uint32_t Cap = 16;
  auto Ring = makeRing(3, Cap);
  constexpr std::uint64_t Total = 200'000;

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (std::uint64_t I = 1; I <= Total; ++I) {
      const EventType T = static_cast<EventType>(
          1 + I % (static_cast<std::uint64_t>(EventType::EventTypeCount) - 1));
      Ring->emit(T, I, I, I);
    }
    Done.store(true, std::memory_order_release);
  });

  std::uint64_t Drains = 0, Events = 0;
  TraceEvent Out[Cap];
  while (!Done.load(std::memory_order_acquire)) {
    const std::uint32_t N = Ring->drain(Out, Cap);
    ++Drains;
    Events += N;
    std::uint64_t Prev = 0;
    for (std::uint32_t I = 0; I < N; ++I) {
      ASSERT_EQ(Out[I].TimestampNs, Out[I].Arg0) << "torn event";
      ASSERT_EQ(Out[I].TimestampNs, Out[I].Arg1) << "torn event";
      ASSERT_GT(Out[I].TimestampNs, Prev) << "window not oldest-first";
      ASSERT_NE(Out[I].Type, EventType::None);
      ASSERT_LT(static_cast<std::uint32_t>(Out[I].Type),
                static_cast<std::uint32_t>(EventType::EventTypeCount));
      Prev = Out[I].TimestampNs;
    }
  }
  Writer.join();

  EXPECT_EQ(Ring->emitted(), Total);
  // Quiescent drain sees a full, exact window.
  const std::uint32_t N = Ring->drain(Out, Cap);
  ASSERT_EQ(N, Cap);
  EXPECT_EQ(Out[N - 1].TimestampNs, Total);
  EXPECT_EQ(Out[0].TimestampNs, Total - Cap + 1);
  std::printf("  (%llu drains saw %llu stable events)\n",
              static_cast<unsigned long long>(Drains),
              static_cast<unsigned long long>(Events));
}

//===----------------------------------------------------------------------===//
// Allocator-level counters
//===----------------------------------------------------------------------===//

TEST(Telemetry, CountersMatchKnownOperationSequence) {
  AllocatorOptions Opts;
  Opts.NumHeaps = 1;
  Opts.EnableStats = true;
  LFAllocator Alloc(Opts);

  constexpr unsigned Small = 300;
  std::vector<void *> Ptrs;
  for (unsigned I = 0; I < Small; ++I)
    Ptrs.push_back(Alloc.allocate(48));
  void *Large = Alloc.allocate(2u << 20); // Direct-mmap path.
  ASSERT_NE(Large, nullptr);
  for (void *P : Ptrs)
    Alloc.deallocate(P);
  Alloc.deallocate(Large);

  const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
  EXPECT_EQ(Snap.counter(Counter::Mallocs), Small + 1);
  EXPECT_EQ(Snap.counter(Counter::Frees), Small + 1);
  EXPECT_EQ(Snap.counter(Counter::LargeMallocs), 1u);
  EXPECT_EQ(Snap.counter(Counter::LargeFrees), 1u);
  // Every non-large malloc came from exactly one of the three paths.
  EXPECT_EQ(Snap.counter(Counter::FromActive) +
                Snap.counter(Counter::FromPartial) +
                Snap.counter(Counter::FromNewSb),
            Snap.counter(Counter::Mallocs) -
                Snap.counter(Counter::LargeMallocs));
  EXPECT_GT(Snap.counter(Counter::FromNewSb), 0u);

  // The legacy opStats() view and the snapshot must agree.
  const OpStats Ops = Alloc.opStats();
  EXPECT_EQ(Ops.Mallocs, Snap.counter(Counter::Mallocs));
  EXPECT_EQ(Ops.Frees, Snap.counter(Counter::Frees));
  EXPECT_EQ(Ops.FromActive, Snap.counter(Counter::FromActive));
  EXPECT_EQ(Ops.FromNewSb, Snap.counter(Counter::FromNewSb));

#if LFM_TELEMETRY
  // Extended counters exist in this configuration: the sequence above
  // demonstrably minted descriptors and acquired superblocks.
  EXPECT_GT(Snap.counter(Counter::DescAllocs), 0u);
  EXPECT_GT(Snap.counter(Counter::SbAcquires), 0u);
  EXPECT_GT(Snap.counter(Counter::DescChunkMaps), 0u);
  EXPECT_TRUE(Snap.TelemetryCompiled);
#else
  EXPECT_EQ(Snap.counter(Counter::DescAllocs), 0u);
  EXPECT_FALSE(Snap.TelemetryCompiled);
#endif
}

TEST(Telemetry, DisabledStatsStayZero) {
  LFAllocator Alloc; // EnableStats defaults to false.
  void *P = Alloc.allocate(64);
  Alloc.deallocate(P);
  const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
  EXPECT_EQ(Snap.counter(Counter::Mallocs), 0u);
  EXPECT_EQ(Snap.counter(Counter::Frees), 0u);
  EXPECT_FALSE(Snap.StatsEnabled);
  // The space meter is independent of the stats gate.
  EXPECT_GT(Snap.Space.PeakBytes, 0u);
}

//===----------------------------------------------------------------------===//
// JSON export
//===----------------------------------------------------------------------===//

TEST(Telemetry, MetricsJsonIsWellFormed) {
  AllocatorOptions Opts;
  Opts.EnableStats = true;
  LFAllocator Alloc(Opts);
  void *P = Alloc.allocate(128);
  Alloc.deallocate(P);

  const std::string Json = capture(Alloc, &LFAllocator::metricsJson);
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"schema\":\"lfm-metrics-v5\""), std::string::npos);
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"mallocs\""), std::string::npos);
  EXPECT_NE(Json.find("\"space\""), std::string::npos);
}

TEST(Telemetry, MetricsV3IsSupersetOfV2) {
  // Each schema bump only ever adds sections: v2 added "latency", v3 adds
  // "contention". Every earlier field keeps its exact name so existing
  // consumers only have to accept the new schema string.
  AllocatorOptions Opts;
  Opts.EnableStats = true;
  LFAllocator Alloc(Opts);
  void *P = Alloc.allocate(128);
  Alloc.deallocate(P);

  const std::string Json = capture(Alloc, &LFAllocator::metricsJson);
  for (const char *V1Field :
       {"\"config\"", "\"superblock_bytes\"", "\"counters\"", "\"space\"",
        "\"bytes_in_use\"", "\"peak_bytes\"", "\"gauges\"",
        "\"cached_superblocks\"", "\"descriptors_minted\"",
        "\"hazard_retired\"", "\"trace_events_emitted\"",
        "\"retained_bytes\""})
    EXPECT_NE(Json.find(V1Field), std::string::npos) << V1Field;
  EXPECT_NE(Json.find("\"latency\""), std::string::npos);
  // The v3 "contention" section is emitted in every build (all-zero when
  // sampling is off) so consumers see a stable document shape.
  EXPECT_NE(Json.find("\"contention\""), std::string::npos);
  EXPECT_NE(Json.find("\"watchdog\""), std::string::npos);
  EXPECT_NE(Json.find("\"heat\""), std::string::npos);
#if LFM_TELEMETRY
  // Stats imply the default sampling period, so the section reports
  // enabled with per-path stats under their snake_case path names.
  EXPECT_NE(Json.find("\"sample_period\""), std::string::npos);
  EXPECT_NE(Json.find("\"malloc_active\""), std::string::npos);
  EXPECT_NE(Json.find("\"free_small\""), std::string::npos);
  // Per-site contention distributions keep their snake_case site names
  // even when no sampling ran.
  EXPECT_NE(Json.find("\"active_reserve\""), std::string::npos);
  EXPECT_NE(Json.find("\"free_push\""), std::string::npos);
  EXPECT_NE(Json.find("\"tcache_depot_steal\""), std::string::npos);
#endif
}

TEST(Telemetry, TraceJsonIsWellFormedAndChromeShaped) {
  AllocatorOptions Opts;
  Opts.EnableStats = true;
  Opts.EnableTrace = true;
  Opts.TraceEventsPerThread = 256;
  LFAllocator Alloc(Opts);

  std::vector<void *> Ptrs;
  for (unsigned I = 0; I < 200; ++I)
    Ptrs.push_back(Alloc.allocate(48));
  for (void *P : Ptrs)
    Alloc.deallocate(P);

  const std::string Json = capture(Alloc, &LFAllocator::traceJson);
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);

#if LFM_TELEMETRY
  // With tracing compiled in, the workload must have recorded superblock
  // births and the snapshot must account for the emissions.
  EXPECT_NE(Json.find("\"sb_new\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
  EXPECT_GT(Snap.TraceEventsEmitted, 0u);
  EXPECT_TRUE(Snap.TraceEnabled);
#endif
}

TEST(Telemetry, SnapshotWhileAllocatingIsSafeAndParsable) {
  AllocatorOptions Opts;
  Opts.NumHeaps = 2;
  Opts.EnableStats = true;
  Opts.EnableTrace = true;
  Opts.TraceEventsPerThread = 128;
  LFAllocator Alloc(Opts);

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Churners;
  for (unsigned T = 0; T < 3; ++T)
    Churners.emplace_back([&] {
      void *Slots[64] = {};
      unsigned I = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        const unsigned S = I++ % 64;
        if (Slots[S]) {
          Alloc.deallocate(Slots[S]);
          Slots[S] = nullptr;
        } else {
          Slots[S] = Alloc.allocate(16 + I % 500);
        }
      }
      for (void *&P : Slots)
        if (P)
          Alloc.deallocate(P);
    });

  for (int I = 0; I < 25; ++I) {
    const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
    (void)Snap;
    EXPECT_TRUE(JsonChecker(capture(Alloc, &LFAllocator::metricsJson)).valid());
    EXPECT_TRUE(JsonChecker(capture(Alloc, &LFAllocator::traceJson)).valid());
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &C : Churners)
    C.join();

  // Quiescent now: the books must balance exactly.
  const telemetry::MetricsSnapshot Snap = Alloc.metricsSnapshot();
  EXPECT_EQ(Snap.counter(Counter::Mallocs), Snap.counter(Counter::Frees));
}

} // namespace
