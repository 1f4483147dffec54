//===- telemetry/ShmStatsFormat.h - lfm-shmstats-v2 wire format --*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lfm-shmstats-v2 shared-memory stats segment: a fixed, pre-computed
/// layout another process can parse with zero cooperation from the target
/// — no ctl call, no signal, no exporter thread. The writer (ShmStats.cpp)
/// publishes whole MetricsSnapshot frames with plain seqlock'd stores; the
/// reader (tools/lfm-top, tests) validates magic/version/layout-checksum
/// and copies out the most recent stable frame, retrying on torn reads.
///
/// This header is deliberately self-contained (standard headers plus the
/// dependency-free metric registry for its type codes and record layouts;
/// no allocator dependency) so the inspector tool and the GDB helper
/// consume the format without linking the allocator. Every field is a
/// fixed-width little-endian integer at a fixed offset; capacities carry
/// headroom over today's live counts so counters can grow without a
/// version bump, and the header records the *live* counts so readers never
/// iterate reserved slots.
///
/// Segment geometry:
///
///   SegmentHeader          magic, version, layout checksum, counts, pid
///   NameTables             counter/scalar/path/site names, written once
///                          at open (scalars also carry section and type)
///   Frame[2]               seqlock'd epoch frames, double-buffered
///
/// The writer alternates frames and flips Header.ActiveFrame after each
/// publish, so one frame is always stable even while the other is being
/// written — a reader can extract a consistent snapshot while the target
/// spins in a retry storm (or never runs again: the final frame survives
/// into a core dump).
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_SHMSTATSFORMAT_H
#define LFMALLOC_TELEMETRY_SHMSTATSFORMAT_H

#include "telemetry/MetricRegistry.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lfm {
namespace shmstats {

/// "LFMSHST1" read as a little-endian u64. A byte-flipped or truncated
/// mapping fails the magic before anything else is interpreted.
constexpr std::uint64_t magicValue() {
  const char Tag[9] = "LFMSHST1";
  std::uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<unsigned char>(Tag[I]);
  return V;
}

inline constexpr std::uint64_t Magic = magicValue();
inline constexpr std::uint32_t Version = 2;

// Slot capacities. Deliberately above the live counts (56 counters, 64
// scalars, 12 latency paths, 17 contention sites, 33 class slots, top-8
// heat) so adding a counter or scalar is not a layout change; the
// header's live counts tell readers how many slots carry data.
inline constexpr std::uint32_t MaxCounters = 72;
inline constexpr std::uint32_t MaxScalars = 96;
inline constexpr std::uint32_t MaxLatencyPaths = 16;
inline constexpr std::uint32_t MaxContentionSites = 24;
inline constexpr std::uint32_t MaxClasses = 40;
inline constexpr std::uint32_t MaxHeatTopK = 16;
inline constexpr std::uint32_t NameCap = 32; ///< Per-name bytes, NUL-padded.
inline constexpr std::uint32_t FrameCount = 2;

struct HeatEntry {
  std::uint64_t Sb;      ///< Superblock address.
  std::uint64_t Retries; ///< Sampled retry mass attributed to it.
  std::uint64_t Class;   ///< Size-class index.
};

/// The flattened metrics payload: every field a u64 so torn reads are the
/// only hazard the seqlock must defeat (no internal padding surprises).
struct Payload {
  // Operation counters, indexed like telemetry::Counter.
  std::uint64_t Counters[MaxCounters];

  // Registry scalars (telemetry/Metrics.def) as u64 wire values, labelled
  // and typed by NameTables::Scalar*.
  std::uint64_t Scalars[MaxScalars];

  // Sampled latency, laid out as in MetricsSnapshot.
  telemetry::LatencyPathStats Latency[MaxLatencyPaths];
  telemetry::LatencyClassStats LatencyClasses[MaxClasses];

  // Contention and progress.
  telemetry::ContentionSiteStats Contention[MaxContentionSites];
  std::uint64_t ContentionClassRetries[MaxClasses];
  HeatEntry ContentionHeat[MaxHeatTopK];
  std::uint64_t ContentionHeatCount;
};

/// One seqlock'd publication frame. Seq is odd while the writer is inside
/// the frame; a reader that sees equal, even Seq around its copy holds a
/// consistent snapshot (Boehm's single-writer seqlock recipe, the same
/// idiom the in-process trace rings use).
struct Frame {
  std::uint64_t Seq;
  std::uint64_t Epoch;  ///< Publish ordinal, 1-based; 0 = never published.
  std::uint64_t WallNs; ///< CLOCK_REALTIME at publish.
  std::uint64_t MonoNs; ///< CLOCK_MONOTONIC at publish.
  Payload P;
};

/// Fixed-size name tables, written once when the segment is created, so a
/// reader labels and types every slot without compiled-in knowledge of
/// the allocator's enum order or metric registry.
struct NameTables {
  char CounterNames[MaxCounters][NameCap];
  /// Per scalar: the JSON section path ("contention.heat") and key, the
  /// telemetry::ScalarType code, and the telemetry::PromKind code.
  char ScalarSections[MaxScalars][NameCap];
  char ScalarKeys[MaxScalars][NameCap];
  std::uint8_t ScalarTypes[MaxScalars];
  std::uint8_t ScalarProm[MaxScalars];
  char LatencyPathNames[MaxLatencyPaths][NameCap];
  char ContentionSiteNames[MaxContentionSites][NameCap];
};

struct SegmentHeader {
  std::uint64_t MagicV;
  std::uint32_t VersionV;
  std::uint32_t LayoutChecksum; ///< layoutChecksum(); mismatch = stale ABI.
  std::uint32_t HeaderBytes;    ///< sizeof(SegmentHeader)
  std::uint32_t NamesBytes;     ///< sizeof(NameTables)
  std::uint32_t FrameBytes;     ///< sizeof(Frame)
  std::uint32_t FrameCountV;    ///< FrameCount
  std::uint32_t NameCapV;       ///< NameCap
  std::uint32_t ActiveFrame;    ///< Index of the last fully-published frame.
  // Live counts: how many leading slots of each capacity carry data.
  std::uint32_t NumCounters;
  std::uint32_t NumLatencyPaths;
  std::uint32_t NumContentionSites;
  std::uint32_t NumClasses;
  std::uint32_t HeatTopK;
  std::uint32_t Pid;        ///< Writer pid at open (0 if unknown).
  std::uint32_t NumScalars;
  std::uint32_t Reserved;   ///< Zero; keeps the u64s below aligned.
  std::uint64_t StartWallNs; ///< CLOCK_REALTIME when the segment was opened.
  std::uint64_t Publishes;   ///< Total publish() calls, monotone.
};

struct Segment {
  SegmentHeader H;
  NameTables N;
  Frame Frames[FrameCount];
};

inline constexpr std::size_t SegmentBytes = sizeof(Segment);

namespace detail {

constexpr std::uint32_t fnv1aWord(std::uint32_t H, std::uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= static_cast<std::uint32_t>((V >> (I * 8)) & 0xFF);
    H *= 16777619u;
  }
  return H;
}

} // namespace detail

/// A checksum over everything that defines the byte layout: a reader built
/// against a drifted struct refuses the segment instead of misparsing it.
constexpr std::uint32_t layoutChecksum() {
  std::uint32_t H = 2166136261u;
  H = detail::fnv1aWord(H, Version);
  H = detail::fnv1aWord(H, sizeof(SegmentHeader));
  H = detail::fnv1aWord(H, sizeof(NameTables));
  H = detail::fnv1aWord(H, sizeof(Frame));
  H = detail::fnv1aWord(H, sizeof(Payload));
  H = detail::fnv1aWord(H, MaxCounters);
  H = detail::fnv1aWord(H, MaxScalars);
  H = detail::fnv1aWord(H, MaxLatencyPaths);
  H = detail::fnv1aWord(H, MaxContentionSites);
  H = detail::fnv1aWord(H, MaxClasses);
  H = detail::fnv1aWord(H, MaxHeatTopK);
  H = detail::fnv1aWord(H, NameCap);
  H = detail::fnv1aWord(H, FrameCount);
  H = detail::fnv1aWord(H, offsetof(Segment, N));
  H = detail::fnv1aWord(H, offsetof(Segment, Frames));
  H = detail::fnv1aWord(H, offsetof(Frame, P));
  H = detail::fnv1aWord(H, offsetof(Payload, Latency));
  H = detail::fnv1aWord(H, offsetof(Payload, Contention));
  H = detail::fnv1aWord(H, offsetof(Payload, Scalars));
  H = detail::fnv1aWord(H, offsetof(NameTables, ScalarTypes));
  return H;
}

/// Reader verdicts. TooSmall/Truncated are distinct on purpose: TooSmall
/// means not even a header is present (wrong file entirely), Truncated
/// means a valid header promises frames the buffer does not hold (partial
/// copy, clipped core).
enum class ReadStatus {
  Ok,
  TooSmall,    ///< Buffer shorter than the segment header.
  BadMagic,    ///< Header present but the magic does not match.
  BadVersion,  ///< Magic ok, version unsupported.
  BadChecksum, ///< Version ok, layout checksum mismatch (ABI drift).
  BadGeometry, ///< Header's sizes/counts disagree with the struct.
  Truncated,   ///< Header valid but the frames run past the buffer.
  Torn,        ///< No stable frame could be copied (both frames mid-write).
};

constexpr const char *readStatusName(ReadStatus S) {
  switch (S) {
  case ReadStatus::Ok:
    return "ok";
  case ReadStatus::TooSmall:
    return "too-small";
  case ReadStatus::BadMagic:
    return "bad-magic";
  case ReadStatus::BadVersion:
    return "bad-version";
  case ReadStatus::BadChecksum:
    return "bad-checksum";
  case ReadStatus::BadGeometry:
    return "bad-geometry";
  case ReadStatus::Truncated:
    return "truncated";
  case ReadStatus::Torn:
    return "torn";
  }
  return "unknown";
}

/// Validates the header in \p Buf. On Ok the caller may cast to Segment
/// (after checking \p Len covers SegmentBytes — Truncated otherwise).
inline ReadStatus validate(const void *Buf, std::size_t Len) {
  if (Buf == nullptr || Len < sizeof(SegmentHeader))
    return ReadStatus::TooSmall;
  SegmentHeader H;
  std::memcpy(&H, Buf, sizeof(H));
  if (H.MagicV != Magic)
    return ReadStatus::BadMagic;
  if (H.VersionV != Version)
    return ReadStatus::BadVersion;
  if (H.LayoutChecksum != layoutChecksum())
    return ReadStatus::BadChecksum;
  if (H.HeaderBytes != sizeof(SegmentHeader) ||
      H.NamesBytes != sizeof(NameTables) || H.FrameBytes != sizeof(Frame) ||
      H.FrameCountV != FrameCount || H.NameCapV != NameCap ||
      H.NumCounters > MaxCounters || H.NumScalars > MaxScalars ||
      H.NumLatencyPaths > MaxLatencyPaths ||
      H.NumContentionSites > MaxContentionSites ||
      H.NumClasses > MaxClasses || H.HeatTopK > MaxHeatTopK)
    return ReadStatus::BadGeometry;
  if (Len < SegmentBytes)
    return ReadStatus::Truncated;
  return ReadStatus::Ok;
}

namespace detail {

/// Word-wise acquire-fenced copy of one frame with seqlock validation.
/// \returns true when the copy is stable (Seq even and unchanged).
inline bool copyFrameOnce(const Frame *Src, Frame &Out) {
  // __atomic builtins rather than std::atomic_ref: the frame lives in a
  // shared mapping as plain POD, and the loads must work through exactly
  // the object representation another process stored.
  const std::uint64_t Seq0 = __atomic_load_n(&Src->Seq, __ATOMIC_ACQUIRE);
  if (Seq0 & 1)
    return false;
  std::memcpy(&Out, Src, sizeof(Frame));
  std::atomic_thread_fence(std::memory_order_acquire);
  return __atomic_load_n(&Src->Seq, __ATOMIC_RELAXED) == Seq0;
}

} // namespace detail

/// Copies the most recent stable frame out of a validated segment.
/// \p Live selects the bounded retry loop for a concurrently-written
/// mapping; with Live false (a static buffer: core dump, file copy) each
/// frame is tried exactly once. \p RetriesOut (optional) reports how many
/// torn copies were observed before success — the torn-read hammer test
/// asserts this goes positive under a concurrent publisher.
inline ReadStatus readLatestFrame(const void *Buf, std::size_t Len, Frame &Out,
                                  bool Live,
                                  std::uint64_t *RetriesOut = nullptr) {
  const ReadStatus V = validate(Buf, Len);
  if (V != ReadStatus::Ok)
    return V;
  const auto *Seg = static_cast<const Segment *>(Buf);
  std::uint64_t Retries = 0;
  const int MaxAttempts = Live ? 4096 : 1;
  ReadStatus Result = ReadStatus::Torn;
  for (int Attempt = 0; Attempt < MaxAttempts && Result != ReadStatus::Ok;
       ++Attempt) {
    // Prefer the frame the header advertises as last-published, but fall
    // back to the other: between the frame's even-Seq store and the
    // ActiveFrame flip there is a window where the advertised index is
    // one behind.
    const std::uint32_t First =
        __atomic_load_n(&Seg->H.ActiveFrame, __ATOMIC_ACQUIRE) % FrameCount;
    Frame Candidate;
    bool Have = false;
    for (std::uint32_t I = 0; I < FrameCount; ++I) {
      const std::uint32_t Idx = (First + I) % FrameCount;
      Frame F;
      if (!detail::copyFrameOnce(&Seg->Frames[Idx], F)) {
        ++Retries;
        continue;
      }
      if (!Have || F.Epoch > Candidate.Epoch) {
        Candidate = F;
        Have = true;
      }
    }
    if (Have) {
      Out = Candidate;
      Result = ReadStatus::Ok;
    }
  }
  if (RetriesOut != nullptr)
    *RetriesOut = Retries;
  return Result;
}

} // namespace shmstats
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_SHMSTATSFORMAT_H
