//===- support/RuntimeConfig.cpp - LFM_* environment registry -------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/RuntimeConfig.h"

#include <cstdlib>

using namespace lfm;
using namespace lfm::config;

namespace {

// Indexed by Var. Keep rows in enum order; varSpec() asserts nothing and
// relies on this table covering every enumerator.
const VarSpec Table[NumVars] = {
    {"LFM_STATS", "opt.stats", "0",
     "maintain operation counters in the default allocator"},
    {"LFM_TRACE", "opt.trace", "0",
     "record allocator trace events (implies counters)"},
    {"LFM_TRACE_EVENTS", "opt.trace_events", "4096",
     "per-thread trace-ring capacity in events"},
    {"LFM_PROFILE", "opt.profile", "0",
     "attach the sampling heap profiler (telemetry builds)"},
    {"LFM_PROFILE_RATE", "opt.profile_rate", "524288",
     "mean bytes between heap-profile samples"},
    {"LFM_PROFILE_SEED", "opt.profile_seed", "0",
     "fixed sampler seed for reproducible profiles"},
    {"LFM_PROFILE_SITES", "opt.profile_sites", "1024",
     "distinct allocation sites tracked"},
    {"LFM_PROFILE_LIVE", "opt.profile_live", "8192",
     "concurrently-live sampled objects tracked"},
    {"LFM_PROFILE_DUMP", "opt.profile_dump", "lfm-heap",
     "path prefix for signal-triggered heap-profile dumps"},
    {"LFM_LEAK_REPORT", "opt.leak_report", "0",
     "LD_PRELOAD shim prints a leak report at exit"},
    {"LFM_LATENCY_SAMPLE", "opt.latency_sample", "64",
     "mean ops between latency samples (0 off, 1 every op; implies stats)"},
    {"LFM_STATS_INTERVAL_MS", "opt.stats_interval_ms", "0",
     "background stats-exporter period in ms; 0 disables"},
    {"LFM_STATS_PREFIX", "opt.stats_prefix", "lfm-stats",
     "path prefix for background exporter / signal-dump artifacts"},
    {"LFM_SHM_STATS", "opt.shm_stats", "unset",
     "lfm-shmstats-v2 segment backing: a path, or 1/auto/memfd for an "
     "anonymous memfd (telemetry builds)"},
    {"LFM_USDT", "opt.usdt", "1",
     "fire the compiled-in USDT tracepoints at runtime (0 disables)"},
    {"LFM_CONTENTION_SAMPLE", "opt.contention_sample", "0",
     "mean retry-loop runs between contention samples (0 off; implies "
     "stats)"},
    {"LFM_CONTENTION_HEAT", "contention.heat_capacity", "512",
     "contention heat-table capacity in superblock entries"},
    {"LFM_CONTENTION_WATCHDOG", "opt.contention_watchdog", "0",
     "arm the progress watchdog on the stats exporter (implies stats)"},
    {"LFM_CONTENTION_STALL_MS", "contention.stall_ms", "100",
     "watchdog: flag a retry loop busy longer than this many ms"},
    {"LFM_CONTENTION_STORM", "contention.storm_retries", "1048576",
     "watchdog: attempts in one loop at/beyond this are a retry storm"},
    {"LFM_TRACE_RECORD", "trace.path", "unset",
     "record an lfm-alloctrace-v1 allocation trace to this path (shim)"},
    {"LFM_TRACE_BUF_KB", "trace.buffer_kb", "8192",
     "flight-recorder append-buffer budget in KiB"},
    {"LFM_RETAIN_MAX_BYTES", "retain.max_bytes", "unset",
     "superblock-cache retention watermark in bytes (~0: keep all)"},
    {"LFM_RETAIN_DECAY_MS", "retain.decay_ms", "-1",
     "decay period for background cache trimming; <0 disables"},
    {"LFM_TCACHE", "opt.tcache", "1",
     "thread-local magazine cache on the default allocator (0 disables)"},
    {"LFM_TCACHE_MAG_SIZE", "opt.tcache_mag_size", "64",
     "magazine slot cap per size class (clamped to [2, 1024])"},
    {"LFM_LARGE_BACKEND", "opt.large_backend", "buddy",
     "large-object backend: \"buddy\" (lock-free buddy spans) or \"os\" "
     "(per-operation mmap)"},
    {"LFM_BUDDY_SPAN_BYTES", "opt.buddy_span_bytes", "1073741824",
     "reserved address space per buddy span (power of two)"},
    {"LFM_FAIL_MAP", "debug.fail_map", "unset",
     "fault injection: fail OS map calls after N successes"},
    {"LFM_BENCH_SCALE", nullptr, "1.0",
     "bench harness: duration multiplier for every cell"},
    {"LFM_BENCH_SECONDS", nullptr, "unset",
     "bench harness: per-cell seconds override"},
    {"LFM_BENCH_MAXTHREADS", nullptr, "unset",
     "bench harness: cap on the thread axis"},
    {"LFM_METRICS_JSON", nullptr, "unset",
     "bench harness: write metrics JSON here after the run"},
    {"LFM_TRACE_JSON", nullptr, "unset",
     "bench harness: write Chrome trace JSON here after the run"},
    {"LFM_TEST_SEED", nullptr, "20260806",
     "base seed for seeded schedule-exploration tests"},
    {"LFM_SCHED_SEEDS", nullptr, "per-test",
     "schedules explored per schedule-exploration test"},
    {"LFM_SCHED_REPLAY", nullptr, "unset",
     "replay one schedule: \"seed=S,preempt=P,casfail=F\""},
};

} // namespace

const VarSpec &lfm::config::varSpec(Var V) {
  return Table[static_cast<unsigned>(V)];
}

const char *lfm::config::varRaw(Var V) {
  const char *Raw = std::getenv(varSpec(V).EnvName);
  return (Raw && *Raw) ? Raw : nullptr;
}

bool lfm::config::varFlag(Var V) {
  const char *Raw = varRaw(V);
  return Raw && !(Raw[0] == '0' && Raw[1] == '\0');
}

bool lfm::config::varU64(Var V, std::uint64_t &Out) {
  const char *Raw = varRaw(V);
  if (!Raw)
    return false;
  char *End = nullptr;
  const unsigned long long Val = std::strtoull(Raw, &End, 0);
  if (End == Raw || *End != '\0')
    return false;
  Out = static_cast<std::uint64_t>(Val);
  return true;
}

bool lfm::config::varI64(Var V, std::int64_t &Out) {
  const char *Raw = varRaw(V);
  if (!Raw)
    return false;
  char *End = nullptr;
  const long long Val = std::strtoll(Raw, &End, 0);
  if (End == Raw || *End != '\0')
    return false;
  Out = static_cast<std::int64_t>(Val);
  return true;
}

bool lfm::config::varF64(Var V, double &Out) {
  const char *Raw = varRaw(V);
  if (!Raw)
    return false;
  char *End = nullptr;
  const double Val = std::strtod(Raw, &End);
  if (End == Raw || *End != '\0')
    return false;
  Out = Val;
  return true;
}
