//===- telemetry/ShmStats.h - Shared-memory stats publication ---*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The writer side of the lfm-shmstats-v2 segment (ShmStatsFormat.h): a
/// process-wide singleton, like the stats exporter and the SIGUSR2
/// handler, that maps one segment and publishes MetricsSnapshot frames
/// into it with plain seqlock'd stores — no locks, no lock-prefixed RMW,
/// no allocation after open(). Publication rides the existing cold paths
/// (exporter tick, ctl action, SIGUSR2, exit), never malloc/free.
///
/// LFM_SHM_STATS selects the backing: a filesystem path maps a file other
/// processes open by name; "1"/"auto"/"memfd" maps an anonymous memfd the
/// inspector discovers through /proc/<pid>/fd. Either way the mapping is
/// named for /proc/<pid>/maps, madvise'd into core dumps, and parseable
/// post-mortem.
///
/// Under LFM_TELEMETRY=0 everything here compiles to inline no-ops and
/// the translation unit is empty — telemetry-OFF builds keep their
/// zero-symbol guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_SHMSTATS_H
#define LFMALLOC_TELEMETRY_SHMSTATS_H

#include "telemetry/TelemetryConfig.h"

#include <cstdint>

namespace lfm {
namespace telemetry {

struct MetricsSnapshot;

#if LFM_TELEMETRY

class ShmStats {
public:
  /// Maps and initializes the segment. \p Spec is the LFM_SHM_STATS
  /// value: "1" / "auto" / "memfd" select an anonymous memfd; anything
  /// else is a filesystem path created (0644) and truncated to the
  /// segment size. \returns 0, EALREADY when a segment is already open,
  /// EINVAL for a null/empty spec, or the open/map errno.
  static int open(const char *Spec);

  /// True between a successful open() and close().
  static bool active();

  /// Seqlock-publishes \p Snap into the inactive frame and flips the
  /// active index. Plain stores only; async-signal-safe; a no-op when
  /// inactive. Safe to call concurrently with readers but not with
  /// itself — callers serialize (exporter tick, ctl, signal all funnel
  /// through publishLocked()'s flag).
  static void publish(const MetricsSnapshot &Snap);

  /// Epoch of the most recently published frame (0 = never).
  static std::uint64_t epoch();

  /// Total publish() calls that actually wrote a frame.
  static std::uint64_t publishes();

  /// Mapped segment size in bytes (0 when inactive).
  static std::uint64_t bytes();

  /// The backing spec: the file path, or "memfd:<fd>" for anonymous
  /// segments (the fd number another process resolves via /proc). Empty
  /// when inactive.
  static const char *path();

  /// Unmaps and closes. Tests use this to cycle configurations; the
  /// segment is otherwise intentionally immortal so the final frame
  /// survives into core dumps.
  static void close();
};

#else // !LFM_TELEMETRY

class ShmStats {
public:
  static int open(const char *) { return 0; }
  static bool active() { return false; }
  static void publish(const MetricsSnapshot &) {}
  static std::uint64_t epoch() { return 0; }
  static std::uint64_t publishes() { return 0; }
  static std::uint64_t bytes() { return 0; }
  static const char *path() { return ""; }
  static void close() {}
};

#endif // LFM_TELEMETRY

} // namespace telemetry
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_SHMSTATS_H
