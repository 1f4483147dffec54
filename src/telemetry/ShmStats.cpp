//===- telemetry/ShmStats.cpp - Shared-memory stats publication -----------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "telemetry/ShmStats.h"

#if LFM_TELEMETRY

#include "telemetry/ContentionSite.h"
#include "telemetry/Counters.h"
#include "telemetry/LatencyPath.h"
#include "telemetry/MetricsSnapshot.h"
#include "telemetry/ShmStatsFormat.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <unistd.h>

using namespace lfm;
using namespace lfm::telemetry;

// The live counts must fit the format's reserved capacities; growing past
// them is a format version bump, caught here at compile time rather than
// by a corrupted segment.
static_assert(NumCounters <= shmstats::MaxCounters);
static_assert(NumScalars <= shmstats::MaxScalars);
static_assert(NumLatencyPaths <= shmstats::MaxLatencyPaths);
static_assert(NumContentionSites <= shmstats::MaxContentionSites);
static_assert(NumSizeClasses + 1 <= shmstats::MaxClasses);
static_assert(ContentionTopK <= shmstats::MaxHeatTopK);

namespace {

constexpr std::size_t PathCap = 4096;

// Process-wide singleton state. Seg is written once by open() and read by
// publish()/close(); the acquire/release pair makes a segment opened by
// one thread publishable from another (shim constructor vs exporter).
std::atomic<shmstats::Segment *> Seg{nullptr};
int SegFd = -1;
char SegPath[PathCap] = "";
std::atomic<std::uint64_t> LastEpoch{0};
std::atomic<std::uint64_t> PublishCount{0};
// publish() callers can race (exporter tick vs SIGUSR2 vs ctl action);
// the seqlock is single-writer, so overlapping publishers must be
// excluded. A failed trylock skips the publish — the next tick carries
// fresher data anyway. Cold path only; never malloc/free.
std::atomic<bool> Publishing{false};

std::uint64_t wallNs() {
  timespec Ts{};
  clock_gettime(CLOCK_REALTIME, &Ts);
  return static_cast<std::uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(Ts.tv_nsec);
}

std::uint64_t monoNs() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<std::uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(Ts.tv_nsec);
}

void putName(char (&Slot)[shmstats::NameCap], const char *Name) {
  std::strncpy(Slot, Name, shmstats::NameCap - 1);
  Slot[shmstats::NameCap - 1] = '\0';
}

/// Writes the header and name tables. Runs once, before any reader can
/// know the segment exists, so plain stores suffice.
void initSegment(shmstats::Segment &S) {
  shmstats::SegmentHeader &H = S.H;
  H.MagicV = shmstats::Magic;
  H.VersionV = shmstats::Version;
  H.LayoutChecksum = shmstats::layoutChecksum();
  H.HeaderBytes = sizeof(shmstats::SegmentHeader);
  H.NamesBytes = sizeof(shmstats::NameTables);
  H.FrameBytes = sizeof(shmstats::Frame);
  H.FrameCountV = shmstats::FrameCount;
  H.NameCapV = shmstats::NameCap;
  H.ActiveFrame = 0;
  H.NumCounters = NumCounters;
  H.NumLatencyPaths = NumLatencyPaths;
  H.NumContentionSites = NumContentionSites;
  H.NumClasses = NumSizeClasses + 1;
  H.HeatTopK = ContentionTopK;
  H.Pid = static_cast<std::uint32_t>(::getpid());
  H.NumScalars = NumScalars;
  H.Reserved = 0;
  H.StartWallNs = wallNs();
  H.Publishes = 0;
  for (unsigned C = 0; C < NumCounters; ++C)
    putName(S.N.CounterNames[C], counterName(static_cast<Counter>(C)));
  for (unsigned I = 0; I < NumScalars; ++I) {
    const ScalarInfo &R = ScalarTable[I];
    putName(S.N.ScalarSections[I], metricSectionPath(R.Section));
    putName(S.N.ScalarKeys[I], R.Key);
    S.N.ScalarTypes[I] = static_cast<std::uint8_t>(R.Type);
    S.N.ScalarProm[I] = static_cast<std::uint8_t>(R.Prom);
  }
  for (unsigned P = 0; P < NumLatencyPaths; ++P)
    putName(S.N.LatencyPathNames[P],
            latencyPathName(static_cast<LatencyPath>(P)));
  for (unsigned C = 0; C < NumContentionSites; ++C)
    putName(S.N.ContentionSiteNames[C],
            contentionSiteName(static_cast<ContentionSite>(C)));
}

/// Flattens a MetricsSnapshot into the wire payload. Plain stores into
/// the (seqlock-protected) frame.
void fillPayload(shmstats::Payload &P, const MetricsSnapshot &Snap) {
  for (unsigned C = 0; C < NumCounters; ++C)
    P.Counters[C] = Snap.Counters[C];
  readScalars(Snap, P.Scalars);
  std::copy(Snap.Latency, Snap.Latency + NumLatencyPaths, P.Latency);
  std::copy(Snap.LatencyClasses, Snap.LatencyClasses + NumSizeClasses + 1,
            P.LatencyClasses);
  std::copy(Snap.Contention, Snap.Contention + NumContentionSites,
            P.Contention);
  for (unsigned C = 0; C <= NumSizeClasses; ++C)
    P.ContentionClassRetries[C] = Snap.ContentionClassRetries[C];
  for (unsigned I = 0; I < ContentionTopK; ++I) {
    const ContentionHeatEntry &S = Snap.ContentionHeat[I];
    shmstats::HeatEntry &D = P.ContentionHeat[I];
    D.Sb = S.Sb;
    D.Retries = S.Retries;
    D.Class = S.Class;
  }
  P.ContentionHeatCount = Snap.ContentionHeatCount;
}

} // namespace

int ShmStats::open(const char *Spec) {
  if (Spec == nullptr || *Spec == '\0')
    return EINVAL;
  if (Seg.load(std::memory_order_acquire) != nullptr)
    return EALREADY;

  const bool Anon = std::strcmp(Spec, "1") == 0 ||
                    std::strcmp(Spec, "auto") == 0 ||
                    std::strcmp(Spec, "memfd") == 0;
  int Fd;
  if (Anon) {
    Fd = ::memfd_create("lfm-shmstats", MFD_CLOEXEC);
  } else {
    if (std::strlen(Spec) >= PathCap)
      return EINVAL;
    Fd = ::open(Spec, O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }
  if (Fd < 0)
    return errno != 0 ? errno : EIO;
  if (::ftruncate(Fd, static_cast<off_t>(shmstats::SegmentBytes)) != 0) {
    const int Rc = errno != 0 ? errno : EIO;
    ::close(Fd);
    return Rc;
  }
  void *Map = ::mmap(nullptr, shmstats::SegmentBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, Fd, 0);
  if (Map == MAP_FAILED) {
    const int Rc = errno != 0 ? errno : EIO;
    ::close(Fd);
    return Rc;
  }

#if defined(PR_SET_VMA) && defined(PR_SET_VMA_ANON_NAME)
  // Name the mapping for /proc/<pid>/maps readers. The kernel only names
  // private anonymous mappings, so this fails (EINVAL/EBADF) for our
  // shared file/memfd mapping on most kernels — harmless: memfd mappings
  // already show as "/memfd:lfm-shmstats" and file mappings by path.
  (void)::prctl(PR_SET_VMA, PR_SET_VMA_ANON_NAME,
                reinterpret_cast<unsigned long>(Map), shmstats::SegmentBytes,
                reinterpret_cast<unsigned long>("lfm-shmstats"));
#endif
#ifdef MADV_DODUMP
  // Shared mappings are included in core dumps under the default
  // coredump_filter; make the intent explicit anyway so a tightened
  // filter still carries the final frame into the post-mortem.
  (void)::madvise(Map, shmstats::SegmentBytes, MADV_DODUMP);
#endif

  auto *S = static_cast<shmstats::Segment *>(Map);
  initSegment(*S);
  if (Anon) {
    // Record the discovery handle: lfm-top --pid resolves the memfd by
    // scanning /proc/<pid>/fd for the "memfd:lfm-shmstats" link.
    std::snprintf(SegPath, sizeof(SegPath), "memfd:%d", Fd);
  } else {
    std::memcpy(SegPath, Spec, std::strlen(Spec) + 1);
  }
  SegFd = Fd;
  LastEpoch.store(0, std::memory_order_relaxed);
  PublishCount.store(0, std::memory_order_relaxed);
  Seg.store(S, std::memory_order_release);
  return 0;
}

bool ShmStats::active() {
  return Seg.load(std::memory_order_acquire) != nullptr;
}

void ShmStats::publish(const MetricsSnapshot &Snap) {
  shmstats::Segment *S = Seg.load(std::memory_order_acquire);
  if (S == nullptr)
    return;
  if (Publishing.exchange(true, std::memory_order_acquire))
    return; // Another publisher is mid-frame; its data is fresh enough.
  const std::uint32_t Next = (S->H.ActiveFrame + 1) % shmstats::FrameCount;
  shmstats::Frame &F = S->Frames[Next];
  const std::uint64_t Seq0 = F.Seq;
  // Single-writer seqlock, same recipe as the trace rings: odd while the
  // frame is inconsistent, plain payload stores between release fences,
  // even when stable. No lock-prefixed RMW anywhere on this path.
  __atomic_store_n(&F.Seq, Seq0 + 1, __ATOMIC_RELAXED);
  std::atomic_thread_fence(std::memory_order_release);
  const std::uint64_t Epoch =
      LastEpoch.load(std::memory_order_relaxed) + 1;
  F.Epoch = Epoch;
  F.WallNs = wallNs();
  F.MonoNs = monoNs();
  fillPayload(F.P, Snap);
  std::atomic_thread_fence(std::memory_order_release);
  __atomic_store_n(&F.Seq, Seq0 + 2, __ATOMIC_RELEASE);
  __atomic_store_n(&S->H.ActiveFrame, Next, __ATOMIC_RELEASE);
  __atomic_store_n(&S->H.Publishes, Epoch, __ATOMIC_RELEASE);
  LastEpoch.store(Epoch, std::memory_order_relaxed);
  PublishCount.store(Epoch, std::memory_order_relaxed);
  Publishing.store(false, std::memory_order_release);
}

std::uint64_t ShmStats::epoch() {
  return LastEpoch.load(std::memory_order_relaxed);
}

std::uint64_t ShmStats::publishes() {
  return PublishCount.load(std::memory_order_relaxed);
}

std::uint64_t ShmStats::bytes() {
  return active() ? shmstats::SegmentBytes : 0;
}

const char *ShmStats::path() {
  return active() ? SegPath : "";
}

void ShmStats::close() {
  shmstats::Segment *S = Seg.exchange(nullptr, std::memory_order_acq_rel);
  if (S == nullptr)
    return;
  ::munmap(S, shmstats::SegmentBytes);
  if (SegFd >= 0)
    ::close(SegFd);
  SegFd = -1;
  SegPath[0] = '\0';
  LastEpoch.store(0, std::memory_order_relaxed);
  PublishCount.store(0, std::memory_order_relaxed);
}

#endif // LFM_TELEMETRY
