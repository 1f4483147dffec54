//===- tests/shmstats_test.cpp - lfm-shmstats-v2 segment tests ------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// Covers both sides of the shared-memory stats segment: the in-process
// writer (telemetry/ShmStats.h, driven through the shmstats.* ctl keys)
// and the out-of-process reader contract (telemetry/ShmStatsFormat.h):
// layout round-trip, checksum and geometry rejection, the TooSmall vs
// Truncated distinction, torn-read rejection, and a live preload smoke
// where the lfm-top binary attaches to a running shimmed process.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/LFAllocator.h"
#include "lfmalloc/LFMalloc.h"
#include "telemetry/Counters.h"
#include "telemetry/LatencyPath.h"
#include "telemetry/MetricsSnapshot.h"
#include "telemetry/ShmStats.h"
#include "telemetry/ShmStatsFormat.h"
#include "telemetry/TelemetryConfig.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace lfm;

namespace {

#if LFM_TELEMETRY

std::string slurp(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return {};
  std::string S;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    S.append(Buf, N);
  std::fclose(F);
  return S;
}

/// Opens the process-wide segment on a temp file, closes it again on
/// scope exit so tests cannot leak state into one another.
struct SegmentScope {
  std::string Path;
  explicit SegmentScope(const char *Name) {
    Path = std::string("/tmp/lfm-shmstats-test-") + Name + "-" +
           std::to_string(::getpid()) + ".shm";
    Rc = telemetry::ShmStats::open(Path.c_str());
  }
  ~SegmentScope() {
    telemetry::ShmStats::close();
    ::unlink(Path.c_str());
  }
  int Rc = -1;
};

/// Reads the whole backing file into a private buffer (a "static"
/// attachment, like a core dump or an scp'd file).
std::vector<unsigned char> snapshotFile(const std::string &Path) {
  std::vector<unsigned char> Buf;
  const int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Buf;
  struct stat St {};
  if (::fstat(Fd, &St) == 0) {
    Buf.resize(static_cast<std::size_t>(St.st_size));
    std::size_t Got = 0;
    while (Got < Buf.size()) {
      const ssize_t N = ::read(Fd, Buf.data() + Got, Buf.size() - Got);
      if (N <= 0)
        break;
      Got += static_cast<std::size_t>(N);
    }
    Buf.resize(Got);
  }
  ::close(Fd);
  return Buf;
}

#endif // LFM_TELEMETRY

} // namespace

//===----------------------------------------------------------------------===//
// Reader contract: pure ShmStatsFormat.h, no allocator involvement. These
// run in every build configuration (the header is self-contained).
//===----------------------------------------------------------------------===//

namespace {

/// A minimal valid segment built by hand, the way a reader would find it.
shmstats::Segment makeValidSegment() {
  shmstats::Segment S;
  std::memset(&S, 0, sizeof(S));
  S.H.MagicV = shmstats::Magic;
  S.H.VersionV = shmstats::Version;
  S.H.LayoutChecksum = shmstats::layoutChecksum();
  S.H.HeaderBytes = sizeof(shmstats::SegmentHeader);
  S.H.NamesBytes = sizeof(shmstats::NameTables);
  S.H.FrameBytes = sizeof(shmstats::Frame);
  S.H.FrameCountV = shmstats::FrameCount;
  S.H.NameCapV = shmstats::NameCap;
  S.H.ActiveFrame = 0;
  S.H.NumCounters = 1;
  return S;
}

} // namespace

TEST(ShmStatsFormat, ValidatesDistinguishesTooSmallFromTruncated) {
  const shmstats::Segment S = makeValidSegment();
  // TooSmall: not even a header — the wrong file entirely.
  EXPECT_EQ(shmstats::validate(&S, 8), shmstats::ReadStatus::TooSmall);
  EXPECT_EQ(shmstats::validate(nullptr, shmstats::SegmentBytes),
            shmstats::ReadStatus::TooSmall);
  // Truncated: a valid header promising frames the buffer does not hold —
  // a clipped core or partial copy, worth a different diagnostic.
  EXPECT_EQ(shmstats::validate(&S, shmstats::SegmentBytes - 1),
            shmstats::ReadStatus::Truncated);
  EXPECT_EQ(shmstats::validate(&S, sizeof(shmstats::SegmentHeader)),
            shmstats::ReadStatus::Truncated);
  EXPECT_EQ(shmstats::validate(&S, shmstats::SegmentBytes),
            shmstats::ReadStatus::Ok);
}

TEST(ShmStatsFormat, RejectsMagicVersionChecksumAndGeometryDrift) {
  shmstats::Segment S = makeValidSegment();
  S.H.MagicV ^= 0xFF;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadMagic);
  S = makeValidSegment();
  S.H.VersionV = shmstats::Version + 1;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadVersion);
  // The checksum rejection is the ABI-drift guard: a reader built against
  // a different struct layout must get a clean error, not garbage fields.
  S = makeValidSegment();
  S.H.LayoutChecksum += 1;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadChecksum);
  S = makeValidSegment();
  S.H.FrameBytes -= 8;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadGeometry);
  S = makeValidSegment();
  S.H.NumCounters = shmstats::MaxCounters + 1;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadGeometry);
  S = makeValidSegment();
  S.H.NumScalars = shmstats::MaxScalars + 1;
  EXPECT_EQ(shmstats::validate(&S, sizeof(S)),
            shmstats::ReadStatus::BadGeometry);
}

TEST(ShmStatsFormat, TornFramesAreRejectedNotReturned) {
  shmstats::Segment S = makeValidSegment();
  // Both frames mid-write (odd Seq): a static reader must refuse rather
  // than hand back half a frame.
  S.Frames[0].Seq = 1;
  S.Frames[1].Seq = 3;
  shmstats::Frame Out;
  std::uint64_t Retries = 0;
  EXPECT_EQ(shmstats::readLatestFrame(&S, sizeof(S), Out, /*Live=*/false,
                                      &Retries),
            shmstats::ReadStatus::Torn);
  EXPECT_EQ(Retries, 2u) << "both torn frames must count as retries";

  // One frame torn, the other stable: the stable one wins and the torn
  // copy is observable through RetriesOut.
  S.Frames[0].Seq = 1; // Active frame: mid-write.
  S.Frames[1].Seq = 4; // Stable.
  S.Frames[1].Epoch = 7;
  Retries = 0;
  ASSERT_EQ(shmstats::readLatestFrame(&S, sizeof(S), Out, /*Live=*/false,
                                      &Retries),
            shmstats::ReadStatus::Ok);
  EXPECT_EQ(Out.Epoch, 7u);
  EXPECT_EQ(Retries, 1u);
}

TEST(ShmStatsFormat, PrefersHighestEpochAcrossBothFrames) {
  shmstats::Segment S = makeValidSegment();
  S.Frames[0].Seq = 2;
  S.Frames[0].Epoch = 41;
  S.Frames[1].Seq = 2;
  S.Frames[1].Epoch = 42;
  // ActiveFrame deliberately points at the older frame — the window
  // between the frame store and the index flip.
  S.H.ActiveFrame = 0;
  shmstats::Frame Out;
  ASSERT_EQ(shmstats::readLatestFrame(&S, sizeof(S), Out, /*Live=*/false),
            shmstats::ReadStatus::Ok);
  EXPECT_EQ(Out.Epoch, 42u);
}

TEST(ShmStatsFormat, HammerReaderNeverObservesTornPayload) {
  // A dedicated writer republishes with the exact store sequence the
  // allocator's publisher uses, stamping every payload word with the
  // epoch. Any torn read the seqlock failed to reject would surface as a
  // mixed-epoch payload. Runs on a private buffer so the hammer controls
  // the payload contents completely.
  shmstats::Segment S = makeValidSegment();
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Published{0};
  std::thread Writer([&S, &Stop, &Published] {
    std::uint64_t Epoch = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      ++Epoch;
      const std::uint32_t Next = (S.H.ActiveFrame + 1) % shmstats::FrameCount;
      shmstats::Frame &F = S.Frames[Next];
      const std::uint64_t Seq0 = F.Seq;
      __atomic_store_n(&F.Seq, Seq0 + 1, __ATOMIC_RELAXED);
      std::atomic_thread_fence(std::memory_order_release);
      F.Epoch = Epoch;
      F.WallNs = Epoch;
      F.MonoNs = Epoch;
      std::uint64_t *Words = reinterpret_cast<std::uint64_t *>(&F.P);
      for (std::size_t W = 0; W < sizeof(F.P) / sizeof(std::uint64_t); ++W)
        Words[W] = Epoch;
      std::atomic_thread_fence(std::memory_order_release);
      __atomic_store_n(&F.Seq, Seq0 + 2, __ATOMIC_RELEASE);
      __atomic_store_n(&S.H.ActiveFrame, Next, __ATOMIC_RELEASE);
      Published.store(Epoch, std::memory_order_release);
    }
  });

  std::uint64_t TotalRetries = 0;
  std::uint64_t LastEpoch = 0;
  unsigned Reads = 0;
  while (Reads < 4000) {
    shmstats::Frame Out;
    std::uint64_t Retries = 0;
    const shmstats::ReadStatus St =
        shmstats::readLatestFrame(&S, sizeof(S), Out, /*Live=*/true,
                                  &Retries);
    TotalRetries += Retries;
    if (Published.load(std::memory_order_acquire) == 0)
      continue; // Writer has not produced a stable frame yet.
    ASSERT_EQ(St, shmstats::ReadStatus::Ok);
    ++Reads;
    // Consistency: every payload word carries the frame's epoch, and
    // epochs never run backwards across reads.
    const std::uint64_t *Words =
        reinterpret_cast<const std::uint64_t *>(&Out.P);
    for (std::size_t W = 0; W < sizeof(Out.P) / sizeof(std::uint64_t); ++W)
      ASSERT_EQ(Words[W], Out.Epoch)
          << "torn payload leaked through the seqlock at word " << W;
    ASSERT_GE(Out.Epoch, LastEpoch) << "epoch ran backwards";
    LastEpoch = Out.Epoch;
  }
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
  // With a continuously-republishing writer the reader must have hit (and
  // survived) mid-write frames; this is the observable seqlock retry.
  EXPECT_GT(TotalRetries, 0u)
      << "hammer never observed a torn copy; seqlock path untested";
  EXPECT_GT(LastEpoch, 0u);
}

//===----------------------------------------------------------------------===//
// Writer side: the real segment, driven through ShmStats and the
// shmstats.* ctl namespace. Telemetry builds only (the stubs publish
// nothing).
//===----------------------------------------------------------------------===//

#if LFM_TELEMETRY

TEST(ShmStats, LayoutRoundTripMatchesLiveSnapshot) {
  SegmentScope Scope("roundtrip");
  ASSERT_EQ(Scope.Rc, 0);
  // Traffic, then one explicit publish through the ctl action.
  void *P = lf_malloc(1024);
  lf_free(P);
  std::uint64_t Epoch = 0;
  size_t Len = sizeof(Epoch);
  ASSERT_EQ(lf_malloc_ctl("shmstats.publish", &Epoch, &Len, nullptr, 0), 0);
  EXPECT_GE(Epoch, 1u);

  const std::vector<unsigned char> Buf = snapshotFile(Scope.Path);
  ASSERT_EQ(Buf.size(), shmstats::SegmentBytes);
  shmstats::Frame F;
  ASSERT_EQ(shmstats::readLatestFrame(Buf.data(), Buf.size(), F,
                                      /*Live=*/false),
            shmstats::ReadStatus::Ok);
  EXPECT_EQ(F.Epoch, Epoch);

  const auto *Seg =
      reinterpret_cast<const shmstats::Segment *>(Buf.data());
  EXPECT_EQ(Seg->H.Pid, static_cast<std::uint32_t>(::getpid()));
  ASSERT_EQ(Seg->H.NumCounters, telemetry::NumCounters);
  ASSERT_EQ(Seg->H.NumLatencyPaths, telemetry::NumLatencyPaths);
  ASSERT_EQ(Seg->H.NumContentionSites, telemetry::NumContentionSites);
  // Name tables label every live slot exactly as the JSON document does.
  for (unsigned C = 0; C < telemetry::NumCounters; ++C)
    EXPECT_STREQ(Seg->N.CounterNames[C],
                 telemetry::counterName(static_cast<telemetry::Counter>(C)));
  for (unsigned P2 = 0; P2 < telemetry::NumLatencyPaths; ++P2)
    EXPECT_STREQ(
        Seg->N.LatencyPathNames[P2],
        telemetry::latencyPathName(static_cast<telemetry::LatencyPath>(P2)));

  // The scalar table labels and types every slot exactly as the registry.
  ASSERT_EQ(Seg->H.NumScalars, telemetry::NumScalars);
  for (unsigned I = 0; I < telemetry::NumScalars; ++I) {
    const telemetry::ScalarInfo &R = telemetry::ScalarTable[I];
    EXPECT_STREQ(Seg->N.ScalarSections[I],
                 telemetry::metricSectionPath(R.Section));
    EXPECT_STREQ(Seg->N.ScalarKeys[I], R.Key);
    EXPECT_EQ(Seg->N.ScalarTypes[I], static_cast<std::uint8_t>(R.Type));
    EXPECT_EQ(Seg->N.ScalarProm[I], static_cast<std::uint8_t>(R.Prom));
  }
  auto Scalar = [&](const char *Section, const char *Key) {
    for (unsigned I = 0; I < Seg->H.NumScalars; ++I)
      if (std::strcmp(Seg->N.ScalarSections[I], Section) == 0 &&
          std::strcmp(Seg->N.ScalarKeys[I], Key) == 0)
        return F.P.Scalars[I];
    ADD_FAILURE() << Section << "." << Key << " missing from the segment";
    return ~std::uint64_t{0};
  };

  // The frame agrees with a fresh snapshot on quiesced, monotone fields.
  const telemetry::MetricsSnapshot Snap =
      lfm::defaultAllocator().metricsSnapshot();
  EXPECT_EQ(Scalar("config", "heaps"), Snap.Heaps);
  EXPECT_EQ(Scalar("config", "size_classes"), Snap.Classes);
  EXPECT_EQ(Scalar("config", "superblock_bytes"), Snap.SuperblockBytes);
  EXPECT_LE(Scalar("space", "peak_bytes"), Snap.Space.PeakBytes);
  EXPECT_EQ(Scalar("gauges", "retain_decay_ms"),
            static_cast<std::uint64_t>(Snap.RetainDecayMs));
  EXPECT_LE(F.P.Counters[static_cast<unsigned>(telemetry::Counter::Mallocs)],
            Snap.counter(telemetry::Counter::Mallocs));
  // And the snapshot's own v5 shmstats section sees the segment.
  EXPECT_TRUE(Snap.ShmStatsActive);
  EXPECT_GE(Snap.ShmStatsEpoch, Epoch);
  EXPECT_EQ(Snap.ShmStatsBytes, shmstats::SegmentBytes);
}

TEST(ShmStats, CtlNamespaceReadsAndGuards) {
  // Inactive: reads report zero/empty, publish refuses cleanly.
  ASSERT_FALSE(telemetry::ShmStats::active());
  std::uint64_t V = 99;
  size_t Len = sizeof(V);
  ASSERT_EQ(lf_malloc_ctl("shmstats.active", &V, &Len, nullptr, 0), 0);
  EXPECT_EQ(V, 0u);
  EXPECT_EQ(lf_malloc_ctl("shmstats.publish", nullptr, nullptr, nullptr, 0),
            ENXIO);
  EXPECT_EQ(lf_malloc_ctl("shmstats.nonsense", &V, &Len, nullptr, 0),
            ENOENT);
  // Status keys are read-only.
  EXPECT_EQ(lf_malloc_ctl("shmstats.epoch", nullptr, nullptr, &V, sizeof(V)),
            EPERM);

  SegmentScope Scope("ctl");
  ASSERT_EQ(Scope.Rc, 0);
  // Double-open refuses; the first segment stays mapped.
  EXPECT_EQ(lf_malloc_ctl("shmstats.open", nullptr, nullptr, "1", 2),
            EALREADY);
  char Path[4096];
  Len = sizeof(Path);
  ASSERT_EQ(lf_malloc_ctl("shmstats.path", Path, &Len, nullptr, 0), 0);
  EXPECT_STREQ(Path, Scope.Path.c_str());
  Len = sizeof(Path);
  ASSERT_EQ(lf_malloc_ctl("opt.shm_stats", Path, &Len, nullptr, 0), 0);
  EXPECT_STREQ(Path, Scope.Path.c_str())
      << "opt.shm_stats echoes the active backing";
  Len = sizeof(V);
  ASSERT_EQ(lf_malloc_ctl("shmstats.bytes", &V, &Len, nullptr, 0), 0);
  EXPECT_EQ(V, shmstats::SegmentBytes);
  ASSERT_EQ(lf_malloc_ctl("shmstats.publish", nullptr, nullptr, nullptr, 0),
            0);
  Len = sizeof(V);
  ASSERT_EQ(lf_malloc_ctl("shmstats.publishes", &V, &Len, nullptr, 0), 0);
  EXPECT_GE(V, 1u);
}

TEST(ShmStats, PublishedEpochsAdvanceAndAlternateFrames) {
  SegmentScope Scope("epochs");
  ASSERT_EQ(Scope.Rc, 0);
  for (int I = 0; I < 5; ++I)
    ASSERT_EQ(lf_malloc_ctl("shmstats.publish", nullptr, nullptr, nullptr, 0),
              0);
  EXPECT_EQ(telemetry::ShmStats::epoch(), 5u);
  const std::vector<unsigned char> Buf = snapshotFile(Scope.Path);
  ASSERT_EQ(Buf.size(), shmstats::SegmentBytes);
  const auto *Seg =
      reinterpret_cast<const shmstats::Segment *>(Buf.data());
  // Double buffering: both frames have been written, epochs differ by 1,
  // and the advertised frame holds the newest.
  EXPECT_EQ(Seg->Frames[0].Epoch + Seg->Frames[1].Epoch, 4u + 5u);
  EXPECT_EQ(Seg->Frames[Seg->H.ActiveFrame].Epoch, 5u);
  shmstats::Frame F;
  ASSERT_EQ(shmstats::readLatestFrame(Buf.data(), Buf.size(), F,
                                      /*Live=*/false),
            shmstats::ReadStatus::Ok);
  EXPECT_EQ(F.Epoch, 5u);
}

TEST(ShmStats, OpenRejectsBadSpecs) {
  EXPECT_EQ(telemetry::ShmStats::open(nullptr), EINVAL);
  EXPECT_EQ(telemetry::ShmStats::open(""), EINVAL);
  EXPECT_EQ(telemetry::ShmStats::open("/nonexistent-dir-zzz/seg"), ENOENT);
  EXPECT_FALSE(telemetry::ShmStats::active());
}

//===----------------------------------------------------------------------===//
// Live preload smoke: a real shimmed process, attached by pid through the
// memfd discovery path, while it is still running.
//===----------------------------------------------------------------------===//

TEST(ShmStats, LfmTopAttachesToLivePreloadedProcess) {
  const char *Lib = std::getenv("LFM_PRELOAD_LIB");
  const char *Top = std::getenv("LFM_TOP_BIN");
  const char *Probe = std::getenv("LFM_PRELOAD_PROBE");
  if (!Lib || !Top || !Probe)
    GTEST_SKIP() << "LFM_PRELOAD_LIB/LFM_TOP_BIN/LFM_PRELOAD_PROBE not set";
  const std::string Dir =
      "/tmp/lfm-shmstats-smoke-" + std::to_string(::getpid());
  const std::string Go = Dir + "/go";
  const std::string Json = Dir + "/top.json";
  // The probe churns, prints ready, then polls for the go-file: a live,
  // malloc-active target for the whole attach window. lfm-top resolves
  // the anonymous memfd via /proc/<pid>/fd, exactly like production.
  const std::string Script =
      "mkdir -p " + Dir + " && " +
      "LD_PRELOAD=" + Lib + " LFM_STATS=1 LFM_SHM_STATS=1 " + Probe +
      " wait-usr2 " + Go + " > /dev/null & " +
      "pid=$!; sleep 1; " +
      Top + " --pid $pid --once --json > " + Json + "; rc=$?; " +
      ": > " + Go + "; wait $pid; exit $rc";
  ASSERT_EQ(std::system(("/bin/sh -c '" + Script + "'").c_str()), 0);
  const std::string Doc = slurp(Json);
  ASSERT_FALSE(Doc.empty());
  // Parseable: balanced braces, expected schema, live counters present.
  long Depth = 0;
  bool Balanced = true;
  for (char C : Doc) {
    if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth < 0)
      Balanced = false;
  }
  EXPECT_TRUE(Balanced && Depth == 0) << "unbalanced JSON: " << Doc;
  EXPECT_NE(Doc.find("\"schema\":\"lfm-top-v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"source\":\"live\""), std::string::npos);
  EXPECT_NE(Doc.find("\"mallocs\":"), std::string::npos);
  std::system(("rm -rf " + Dir).c_str());
}

/// The text view prints the "retain everything" watermark (~0 bytes) as
/// unbounded, not as a 16-exbibyte size.
TEST(ShmStats, LfmTopTextShowsUnboundedWatermark) {
  const char *Top = std::getenv("LFM_TOP_BIN");
  if (!Top)
    GTEST_SKIP() << "LFM_TOP_BIN not set";
  SegmentScope Scope("unbounded");
  ASSERT_EQ(Scope.Rc, 0);
  std::uint64_t Retain = 0;
  size_t Len = sizeof(Retain);
  ASSERT_EQ(lf_malloc_ctl("stats.retain_max_bytes", &Retain, &Len, nullptr,
                          0),
            0);
  ASSERT_EQ(Retain, ~std::uint64_t{0}) << "default watermark is not ~0";
  ASSERT_EQ(lf_malloc_ctl("shmstats.publish", nullptr, nullptr, nullptr, 0),
            0);
  const std::string Out = Scope.Path + ".txt";
  ASSERT_EQ(std::system((std::string(Top) + " --segment " + Scope.Path +
                         " --once > " + Out)
                            .c_str()),
            0);
  const std::string Text = slurp(Out);
  ::unlink(Out.c_str());
  EXPECT_NE(Text.find("retain_max_bytes unbounded"), std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("16777216.0T"), std::string::npos) << Text;
}

#endif // LFM_TELEMETRY
