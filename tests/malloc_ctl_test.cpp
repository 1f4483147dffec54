//===- tests/malloc_ctl_test.cpp - Keyed control surface ------------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// lf_malloc_ctl(): the Out/OutLen read protocol (probe, short buffer,
// exact), the In write protocol, error codes (ENOENT/EINVAL/EPERM/EIO),
// the stats/opt/retain/trim/dump key namespaces, non-empty output from
// every dump.* key, and the 1:1 mapping between the LFM_* environment
// registry and ctl keys.
//
// Everything here drives the process-wide default allocator, so each test
// restores any knob it changes.
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/LFMalloc.h"
#include "support/RuntimeConfig.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

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

std::uint64_t getU64(const char *Key) {
  std::uint64_t V = 0;
  size_t Len = sizeof(V);
  EXPECT_EQ(lf_malloc_ctl(Key, &V, &Len, nullptr, 0), 0) << Key;
  EXPECT_EQ(Len, sizeof(V));
  return V;
}

std::int64_t getI64(const char *Key) {
  std::int64_t V = 0;
  size_t Len = sizeof(V);
  EXPECT_EQ(lf_malloc_ctl(Key, &V, &Len, nullptr, 0), 0) << Key;
  return V;
}

void setU64(const char *Key, std::uint64_t V) {
  EXPECT_EQ(lf_malloc_ctl(Key, nullptr, nullptr, &V, sizeof(V)), 0) << Key;
}

void setI64(const char *Key, std::int64_t V) {
  EXPECT_EQ(lf_malloc_ctl(Key, nullptr, nullptr, &V, sizeof(V)), 0) << Key;
}

} // namespace

TEST(MallocCtl, VersionProbeShortAndExactReads) {
  // Probe: null Out stores the required size.
  size_t Need = 0;
  ASSERT_EQ(lf_malloc_ctl("version", nullptr, &Need, nullptr, 0), 0);
  ASSERT_GT(Need, 1u);

  // Short buffer: EINVAL, required size stored.
  char Tiny[2];
  size_t Len = sizeof(Tiny);
  EXPECT_EQ(lf_malloc_ctl("version", Tiny, &Len, nullptr, 0), EINVAL);
  EXPECT_EQ(Len, Need);

  // Exact read.
  std::vector<char> Buf(Need);
  Len = Need;
  ASSERT_EQ(lf_malloc_ctl("version", Buf.data(), &Len, nullptr, 0), 0);
  EXPECT_STREQ(Buf.data(), "lfm-ctl-v1");

  // Missing OutLen is an error; writing a read-only key is EPERM.
  EXPECT_EQ(lf_malloc_ctl("version", Buf.data(), nullptr, nullptr, 0),
            EINVAL);
  EXPECT_EQ(lf_malloc_ctl("version", nullptr, nullptr, "x", 2), EPERM);
}

TEST(MallocCtl, UnknownKeysReturnEnoent) {
  size_t Len = 8;
  std::uint64_t V;
  EXPECT_EQ(lf_malloc_ctl("no.such.key", &V, &Len, nullptr, 0), ENOENT);
  EXPECT_EQ(lf_malloc_ctl("stats.no_such_counter", &V, &Len, nullptr, 0),
            ENOENT);
  EXPECT_EQ(lf_malloc_ctl("opt.no_such_option", &V, &Len, nullptr, 0),
            ENOENT);
  EXPECT_EQ(lf_malloc_ctl(nullptr, &V, &Len, nullptr, 0), EINVAL);
}

TEST(MallocCtl, StatsKeysTrackAllocatorActivity) {
  void *P = lf_malloc(512);
  ASSERT_NE(P, nullptr);
  // Gauges and space stats work in every build; the default allocator has
  // memory mapped the moment it exists.
  EXPECT_GT(getU64("stats.bytes_in_use"), 0u);
  EXPECT_GE(getU64("stats.peak_bytes"), getU64("stats.bytes_in_use"));
  (void)getU64("stats.mallocs"); // Counter key resolves (0 without stats).
  (void)getU64("stats.cached_superblocks");
  (void)getU64("stats.retained_bytes");
  (void)getU64("stats.decommitted_superblocks");
  (void)getU64("stats.parked_hyperblocks");
  (void)getI64("stats.retain_decay_ms");
  // Writing any stats key is EPERM.
  std::uint64_t V = 1;
  EXPECT_EQ(lf_malloc_ctl("stats.mallocs", nullptr, nullptr, &V, sizeof(V)),
            EPERM);
  lf_free(P);
}

TEST(MallocCtl, RetainKnobsRoundTripAndRestore) {
  const std::uint64_t OldMax = getU64("retain.max_bytes");
  const std::int64_t OldDecay = getI64("retain.decay_ms");

  setU64("retain.max_bytes", 8 << 20);
  EXPECT_EQ(getU64("retain.max_bytes"), 8u << 20);
  setI64("retain.decay_ms", 500);
  EXPECT_EQ(getI64("retain.decay_ms"), 500);

  // Wrong-size writes are EINVAL and leave the value alone.
  std::uint32_t Narrow = 7;
  EXPECT_EQ(lf_malloc_ctl("retain.max_bytes", nullptr, nullptr, &Narrow,
                          sizeof(Narrow)),
            EINVAL);
  EXPECT_EQ(getU64("retain.max_bytes"), 8u << 20);
  // A get with nowhere to put the value is EINVAL.
  EXPECT_EQ(lf_malloc_ctl("retain.max_bytes", nullptr, nullptr, nullptr, 0),
            EINVAL);

  setU64("retain.max_bytes", OldMax);
  setI64("retain.decay_ms", OldDecay);
}

TEST(MallocCtl, TrimActionReleasesRetainedSpike) {
  // Spike and free enough small blocks that empty superblocks pile up in
  // the retained cache, then trim through the ctl surface.
  std::vector<void *> Blocks;
  for (int I = 0; I < 8192; ++I) {
    void *P = lf_malloc(1024);
    ASSERT_NE(P, nullptr);
    Blocks.push_back(P);
  }
  for (void *P : Blocks)
    lf_free(P);

  std::uint64_t Released = 0;
  size_t Len = sizeof(Released);
  ASSERT_EQ(lf_malloc_ctl("trim", &Released, &Len, nullptr, 0), 0);
  EXPECT_GT(Released, 0u) << "a retained spike must release something";

  // Drained cache: the glibc-shaped wrapper reports nothing to release.
  EXPECT_EQ(lf_malloc_trim(0), 0);

  // A keep-bytes input of the wrong size is EINVAL.
  std::uint32_t Bad = 0;
  EXPECT_EQ(lf_malloc_ctl("trim", nullptr, nullptr, &Bad, sizeof(Bad)),
            EINVAL);

  // The allocator still serves after trimming.
  void *P = lf_malloc(1024);
  ASSERT_NE(P, nullptr);
  lf_free(P);
}

TEST(MallocCtl, OptKeysEchoResolvedOptions) {
  // The test environment does not set LFM_STATS/LFM_TRACE, so the echoes
  // read their defaults; what matters is that every key resolves and is
  // read-only.
  EXPECT_EQ(getU64("opt.stats"), 0u);
  EXPECT_EQ(getU64("opt.trace"), 0u);
  EXPECT_GT(getU64("opt.trace_events"), 0u);
  (void)getU64("opt.profile");
  EXPECT_GT(getU64("opt.profile_rate"), 0u);
  (void)getU64("opt.profile_seed");
  EXPECT_GT(getU64("opt.profile_sites"), 0u);
  EXPECT_GT(getU64("opt.profile_live"), 0u);
  char Prefix[256];
  size_t Len = sizeof(Prefix);
  ASSERT_EQ(lf_malloc_ctl("opt.profile_dump", Prefix, &Len, nullptr, 0), 0);
  EXPECT_STREQ(Prefix, "lfm-heap");
  (void)getU64("opt.leak_report");
  std::uint64_t V = 1;
  EXPECT_EQ(lf_malloc_ctl("opt.stats", nullptr, nullptr, &V, sizeof(V)),
            EPERM);
}

TEST(MallocCtl, DebugFailMapArmsAndDisarms) {
  // Arm far in the future (harmless), read the echo back, then disarm.
  std::int64_t Arm[2] = {std::int64_t{1} << 40, -1};
  ASSERT_EQ(lf_malloc_ctl("debug.fail_map", nullptr, nullptr, Arm,
                          sizeof(Arm)),
            0);
  EXPECT_EQ(getI64("debug.fail_map"), std::int64_t{1} << 40);
  std::int64_t Disarm = -1;
  ASSERT_EQ(lf_malloc_ctl("debug.fail_map", nullptr, nullptr, &Disarm,
                          sizeof(Disarm)),
            0);
  EXPECT_EQ(getI64("debug.fail_map"), -1);
  void *P = lf_malloc(64);
  EXPECT_NE(P, nullptr);
  lf_free(P);
}

TEST(MallocCtl, DumpKeysRejectBadPaths) {
  EXPECT_EQ(lf_malloc_ctl("dump.metrics", nullptr, nullptr,
                          "/nonexistent-dir-lfm/x.json",
                          sizeof("/nonexistent-dir-lfm/x.json")),
            EIO);
  // A path that is not NUL-terminated within InLen is malformed.
  const char Raw[4] = {'a', 'b', 'c', 'd'};
  EXPECT_EQ(lf_malloc_ctl("dump.metrics", nullptr, nullptr, Raw, 4), EINVAL);
}

TEST(MallocCtl, EveryDumpKeyWritesNonEmptyOutput) {
  // Every dump.* key is the only route to its report, so each must
  // produce bytes in every build. Path keys write where In points; the
  // _seq keys write "<prefix>.<seq><suffix>" with the cached default
  // prefixes and sequences starting at 0000 in this process.
  void *Live = lf_malloc(4096); // Something for the reports to describe.
  for (const char *Key :
       {"dump.metrics", "dump.trace", "dump.topology", "dump.heap_profile",
        "dump.heap_profile_json", "dump.leak_report", "dump.prometheus"}) {
    const std::string Path = "./ctl_dump_key.out";
    ASSERT_EQ(lf_malloc_ctl(Key, nullptr, nullptr, Path.c_str(),
                            Path.size() + 1),
              0)
        << Key;
    EXPECT_FALSE(slurp(Path).empty()) << Key << " wrote nothing";
    std::remove(Path.c_str());
  }
  const struct {
    const char *Key;
    const char *Path;
  } Seq[] = {{"dump.heap_profile_seq", "./lfm-heap.0000.heap"},
             {"dump.prometheus_seq", "./lfm-stats.0000.prom"}};
  for (const auto &S : Seq) {
    std::remove(S.Path);
    ASSERT_EQ(lf_malloc_ctl(S.Key, nullptr, nullptr, nullptr, 0), 0) << S.Key;
    EXPECT_FALSE(slurp(S.Path).empty()) << S.Key << " wrote nothing";
    std::remove(S.Path);
  }
  lf_free(Live);
}

TEST(MallocCtl, EnvRegistryMapsOneToOneOntoCtlKeys) {
  // Every LFM_* variable that configures the default allocator declares
  // its ctl key in the RuntimeConfig registry; each such key must resolve
  // (a size probe succeeds). This is the contract that keeps the env
  // table, the ctl namespace, and docs/API.md from drifting apart.
  using namespace lfm::config;
  unsigned Mapped = 0;
  for (unsigned I = 0; I < NumVars; ++I) {
    const VarSpec &Spec = varSpec(static_cast<Var>(I));
    ASSERT_NE(Spec.EnvName, nullptr);
    EXPECT_EQ(std::strncmp(Spec.EnvName, "LFM_", 4), 0) << Spec.EnvName;
    ASSERT_NE(Spec.Help, nullptr);
    if (!Spec.CtlKey)
      continue; // Tool-only variable (bench harness, sched tests).
    size_t Need = 0;
    EXPECT_EQ(lf_malloc_ctl(Spec.CtlKey, nullptr, &Need, nullptr, 0), 0)
        << Spec.EnvName << " -> " << Spec.CtlKey << " does not resolve";
    EXPECT_GT(Need, 0u) << Spec.CtlKey;
    ++Mapped;
  }
  EXPECT_EQ(Mapped, 29u) << "allocator-facing variable count changed; "
                            "update docs/API.md and this test";
}

TEST(MallocCtl, LargeBackendNamespace) {
  // Kind echoes the selected backend and agrees with opt.large_backend.
  char Kind[16] = {};
  size_t Len = sizeof(Kind);
  ASSERT_EQ(lf_malloc_ctl("largebackend.kind", Kind, &Len, nullptr, 0), 0);
  const bool Buddy = std::strcmp(Kind, "buddy") == 0;
  EXPECT_TRUE(Buddy || std::strcmp(Kind, "os") == 0) << Kind;
  char OptKind[16] = {};
  Len = sizeof(OptKind);
  ASSERT_EQ(lf_malloc_ctl("opt.large_backend", OptKind, &Len, nullptr, 0), 0);
  EXPECT_STREQ(Kind, OptKind);
  EXPECT_GT(getU64("opt.buddy_span_bytes"), 0u);

  // Geometry and meter keys all resolve; exercise the backend so the
  // operation counters are live, then check basic accounting. Under the
  // os backend every gauge (geometry included) reads 0 by contract.
  void *P = lf_malloc(256 << 10);
  ASSERT_NE(P, nullptr);
  if (Buddy) {
    EXPECT_GE(getU64("largebackend.num_orders"), 1u);
    EXPECT_GT(getU64("largebackend.min_order_bytes"), 0u);
    EXPECT_GE(getU64("largebackend.max_order_bytes"),
              getU64("largebackend.min_order_bytes"));
    EXPECT_GT(getU64("largebackend.allocs"), 0u);
    EXPECT_GT(getU64("largebackend.spans_reserved"), 0u);
    EXPECT_GE(getU64("largebackend.bytes_reserved"),
              getU64("largebackend.bytes_committed"));
    EXPECT_GT(getU64("largebackend.bytes_allocated"), 0u);
  }
  (void)getU64("largebackend.frees");
  (void)getU64("largebackend.splits");
  (void)getU64("largebackend.coalesces");
  (void)getU64("largebackend.os_fallbacks");
  (void)getU64("largebackend.rollbacks");
  (void)getU64("largebackend.decommits");
  (void)getU64("largebackend.span_reserves");
  (void)getU64("largebackend.span_bytes");
  (void)getU64("largebackend.free_committed_bytes");
  lf_free(P);

  // Per-order free census: NumOrders u64 entries.
  const std::uint64_t Orders = getU64("largebackend.num_orders");
  size_t Need = 0;
  ASSERT_EQ(lf_malloc_ctl("largebackend.free_bytes_by_order", nullptr, &Need,
                          nullptr, 0),
            0);
  EXPECT_EQ(Need, Orders * sizeof(std::uint64_t));
  std::vector<std::uint64_t> ByOrder(Orders);
  Len = Need;
  ASSERT_EQ(lf_malloc_ctl("largebackend.free_bytes_by_order", ByOrder.data(),
                          &Len, nullptr, 0),
            0);

  // Status keys are read-only; trim is the one action key. Trimming to
  // keep 0 bytes decommits every free resident buddy it can claim.
  std::uint64_t V = 1;
  EXPECT_EQ(lf_malloc_ctl("largebackend.allocs", nullptr, nullptr, &V,
                          sizeof(V)),
            EPERM);
  std::uint64_t Keep = 0, Freed = ~0ull;
  Len = sizeof(Freed);
  EXPECT_EQ(lf_malloc_ctl("largebackend.trim", &Freed, &Len, &Keep,
                          sizeof(Keep)),
            0);
  EXPECT_NE(Freed, ~0ull);
  EXPECT_EQ(lf_malloc_ctl("largebackend.no_such_key", &V, &Len, nullptr, 0),
            ENOENT);
}
