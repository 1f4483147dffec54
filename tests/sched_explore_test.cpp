//===- tests/sched_explore_test.cpp - Allocator schedule exploration ------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
// The tentpole suite of the schedule harness: replays the paper's
// known-dangerous windows across many seeded schedules with PCT bounded
// preemption and forced CAS failures, checking allocator invariants after
// every schedule (docs/TESTING.md). Built only with -DLFMALLOC_SCHED_TEST=ON
// so the LFM_SCHED_POINT hooks in the lock-free core are live.
//
// Replay a reported failure with:
//   LFM_SCHED_REPLAY="seed=S,preempt=P,casfail=F" ./sched_explore_test
//
//===----------------------------------------------------------------------===//

#include "lfmalloc/BuddyBackend.h"
#include "lfmalloc/DescriptorAllocator.h"
#include "lfmalloc/LFAllocator.h"
#include "lfmalloc/SizeClasses.h"
#include "schedtest/Explorer.h"
#include "schedtest/ScheduleController.h"

#include "TestSeed.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace lfm;
using namespace lfm::sched;

#if !LFM_SCHED_TEST
#error "sched_explore_test requires -DLFMALLOC_SCHED_TEST=ON"
#endif

namespace {

/// Payload size used by every scenario: with 4 KB superblocks this yields
/// small superblocks (few dozen blocks), so full/partial/empty transitions
/// happen within a handful of operations.
constexpr std::size_t PayloadBytes = 120;

AllocatorOptions tinyOptions(HazardDomain &Domain, unsigned CreditsLimit) {
  AllocatorOptions Opts;
  Opts.NumHeaps = 1;
  Opts.SuperblockSize = 4096;
  Opts.HyperblockSize = 64 * 1024;
  // CreditsLimit=1 maximizes anchor traffic (every malloc takes the last
  // credit, every path goes through UpdateActive / MallocFromPartial);
  // CreditsLimit>1 lets several threads pop the SAME anchor concurrently,
  // which is the only regime where the anchor tag carries the ABA load.
  Opts.CreditsLimit = CreditsLimit;
  Opts.Domain = &Domain;
  return Opts;
}

/// Cross-thread bookkeeping shared by scenario bodies. The controller
/// serializes controlled threads, but a runaway escape free-runs them, so
/// all access is mutex-guarded.
class BlockOracle {
public:
  /// Records a fresh allocation; flags a pointer handed out twice.
  void onAlloc(void *Ptr, std::uint64_t Stamp) {
    if (!Ptr)
      return;
    std::lock_guard<std::mutex> Lock(M);
    if (!Live.insert(Ptr).second && FirstError.empty())
      FirstError = "block handed out twice";
    std::memset(Ptr, pattern(Stamp), PayloadBytes);
    Stamps[Ptr] = Stamp;
  }

  /// Verifies the byte pattern, then frees through \p Free.
  void checkAndFree(void *Ptr, const std::function<void(void *)> &Free) {
    if (!Ptr)
      return;
    {
      std::lock_guard<std::mutex> Lock(M);
      const unsigned char Want = pattern(Stamps[Ptr]);
      const auto *Bytes = static_cast<const unsigned char *>(Ptr);
      for (std::size_t I = 0; I < PayloadBytes; ++I)
        if (Bytes[I] != Want) {
          if (FirstError.empty())
            FirstError = "block contents clobbered while allocated";
          break;
        }
      Live.erase(Ptr);
      Stamps.erase(Ptr);
    }
    Free(Ptr);
  }

  std::size_t liveCount() {
    std::lock_guard<std::mutex> Lock(M);
    return Live.size();
  }

  std::string firstError() {
    std::lock_guard<std::mutex> Lock(M);
    return FirstError;
  }

private:
  static unsigned char pattern(std::uint64_t Stamp) {
    return static_cast<unsigned char>(0x40 + Stamp % 0xBF);
  }

  std::mutex M;
  std::set<void *> Live;
  std::map<void *, std::uint64_t> Stamps;
  std::string FirstError;
};

/// Runs one schedule of a scenario: builds a fresh allocator, executes the
/// bodies under the controller, then applies the oracle: per-schedule
/// bookkeeping errors, leaked blocks, and the quiescent debugValidate.
ScheduleOutcome
runAllocatorSchedule(const SchedOptions &O,
                     const std::function<std::vector<std::function<void()>>(
                         LFAllocator &, BlockOracle &)> &MakeBodies,
                     bool ExpectAllFreed = true, unsigned CreditsLimit = 1) {
  ScheduleOutcome Out;
  HazardDomain Domain;
  LFAllocator Alloc(tinyOptions(Domain, CreditsLimit));
  BlockOracle Oracle;
  ScheduleController Ctl(O);
  Ctl.run(MakeBodies(Alloc, Oracle));

  std::string Err = Oracle.firstError();
  if (Err.empty() && ExpectAllFreed && Oracle.liveCount() != 0)
    Err = "blocks leaked by the schedule";
  std::string Msg;
  if (Err.empty() && !Alloc.debugValidate(&Msg))
    Err = Msg;
  if (Err.empty() && Ctl.runawayDetected())
    Err = "schedule exceeded MaxSteps (livelock-shaped)";
  if (!Err.empty()) {
    Out.Ok = false;
    Out.Message = Err;
  }
  return Out;
}

void reportExplore(const ExploreResult &Res) {
  EXPECT_FALSE(Res.FoundFailure) << Res.Message;
  if (!Res.FoundFailure)
    std::fprintf(stderr, "[lfm-sched] %llu schedules clean\n",
                 static_cast<unsigned long long>(Res.SchedulesRun));
}

ExploreOptions exploreOptions(std::uint64_t SeedOffset,
                              std::uint64_t NumSeeds) {
  ExploreOptions Opts;
  Opts.BaseSeed = test::baseSeed() + SeedOffset;
  Opts.NumSeeds = NumSeeds;
  Opts.Proto.HorizonEstimate = 128; // Scenarios run ~100-200 points.
  Opts.Proto.MaxSteps = 1 << 16;
  return Opts;
}

/// Scenario 1 — the partial-to-full race (§3.2.2/3.2.4): several threads
/// hammer one size class of a one-heap allocator with CreditsLimit=1, so
/// every operation crosses the Active/Partial/Full anchor transitions;
/// cross-thread frees drive FULL->PARTIAL republication against
/// MallocFromPartial.
TEST(SchedExplore, PartialToFullRace) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    std::vector<std::function<void()>> Bodies;
    for (unsigned T = 0; T < 3; ++T)
      Bodies.push_back([&Alloc, &Oracle, T] {
        void *Mine[4] = {};
        for (unsigned Round = 0; Round < 4; ++Round) {
          Mine[Round] = Alloc.allocate(PayloadBytes);
          Oracle.onAlloc(Mine[Round], T * 100 + Round);
          if (Round % 2 == 1) { // Free the OLDER block: cross-superblock
                                // lifetimes, partial transitions.
            Oracle.checkAndFree(Mine[Round - 1],
                                [&Alloc](void *P) { Alloc.deallocate(P); });
            Mine[Round - 1] = nullptr;
          }
        }
        for (void *&P : Mine)
          if (P) {
            Oracle.checkAndFree(P,
                                [&Alloc](void *Q) { Alloc.deallocate(Q); });
            P = nullptr;
          }
      });
    return Bodies;
  };
  reportExplore(explore(exploreOptions(0, 400),
                        [&](const SchedOptions &O) {
                          return runAllocatorSchedule(O, MakeBodies);
                        }));
}

/// Scenario 2 — free()'s RetireAll window vs a concurrent
/// MallocFromPartial (Fig. 6 lines 12-21 vs Fig. 4 lines 4-10): one
/// thread frees the last outstanding blocks of a PARTIAL superblock,
/// driving the EMPTY transition, superblock release and RemoveEmptyDesc,
/// while another allocates from the same class — which may pull the very
/// descriptor being emptied and must then observe EMPTY and retire it
/// (Fig. 4 line 6).
TEST(SchedExplore, RetireAllVsMallocFromPartial) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Uncontrolled prefill (main thread, deterministic): drive the
    // superblock close to the all-free boundary, so the workers' frees
    // and allocations race right where the EMPTY transition, superblock
    // release and RemoveEmptyDesc fire.
    void *Hold[6] = {};
    for (void *&P : Hold)
      P = Alloc.allocate(PayloadBytes);
    for (unsigned I = 2; I < 6; ++I)
      Alloc.deallocate(Hold[I]);
    void *Last[2] = {Hold[0], Hold[1]};
    Oracle.onAlloc(Last[0], 900);
    Oracle.onAlloc(Last[1], 901);

    std::vector<std::function<void()>> Bodies;
    Bodies.push_back([&Alloc, &Oracle, Last] {
      // The retiring thread: frees the final outstanding blocks. In
      // schedules where thread B has displaced the superblock from
      // Active, the second free is the EMPTY transition racing B's
      // MallocFromPartial on the same descriptor (Fig. 4 line 6).
      for (void *P : Last)
        Oracle.checkAndFree(P, [&Alloc](void *Q) { Alloc.deallocate(Q); });
    });
    Bodies.push_back([&Alloc, &Oracle] {
      for (unsigned I = 0; I < 6; ++I) {
        void *P = Alloc.allocate(PayloadBytes);
        Oracle.onAlloc(P, 910 + I);
        Oracle.checkAndFree(P, [&Alloc](void *Q) { Alloc.deallocate(Q); });
      }
    });
    return Bodies;
  };
  reportExplore(explore(exploreOptions(1 << 20, 400),
                        [&](const SchedOptions &O) {
                          return runAllocatorSchedule(O, MakeBodies);
                        }));
}

/// Scenario 3 — DescAlloc pop vs retire (Fig. 7, §3.2.5): the
/// hazard-protected freelist pop racing concurrent retirements, the exact
/// reclamation/ABA regime of Arbel-Raviv & Brown. Drives the descriptor
/// allocator directly so the freelist stays short and contended.
TEST(SchedExplore, DescAllocPopVsRetire) {
  const auto RunOne = [](const SchedOptions &O) {
    ScheduleOutcome Out;
    HazardDomain Domain;
    PageAllocator Pages;
    DescriptorAllocator Descs(Domain, Pages);

    // Seed the freelist so pops contend on recycled descriptors rather
    // than minting fresh chunks.
    std::vector<Descriptor *> Seeded;
    for (unsigned I = 0; I < 4; ++I)
      Seeded.push_back(Descs.alloc());
    for (Descriptor *D : Seeded)
      Descs.retire(D);

    std::mutex M;
    std::set<Descriptor *> Held;
    std::string Err;
    ScheduleController Ctl(O);
    std::vector<std::function<void()>> Bodies;
    for (unsigned T = 0; T < 3; ++T)
      Bodies.push_back([&] {
        for (unsigned I = 0; I < 4; ++I) {
          Descriptor *D = Descs.alloc();
          if (!D)
            continue;
          {
            std::lock_guard<std::mutex> Lock(M);
            if (!Held.insert(D).second && Err.empty())
              Err = "descriptor handed out twice concurrently";
            // Scribble while owned: a recycled-while-held descriptor
            // shows up as a torn Sb/BlockSize pair or an ASan hit.
            D->Sb = D;
            D->BlockSize = 0xDEAD;
          }
          {
            std::lock_guard<std::mutex> Lock(M);
            if (D->Sb != D && Err.empty())
              Err = "descriptor mutated while exclusively held";
            Held.erase(D);
          }
          Descs.retire(D);
        }
      });
    Ctl.run(std::move(Bodies));
    if (Err.empty() && Ctl.runawayDetected())
      Err = "schedule exceeded MaxSteps (livelock-shaped)";
    if (!Err.empty()) {
      Out.Ok = false;
      Out.Message = Err;
    }
    return Out;
  };
  ExploreOptions Opts = exploreOptions(2 << 20, 400);
  // Focus forced failures on the descriptor freelist CAS sites.
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::DescPop)) |
      (1ull << static_cast<unsigned>(Site::DescPush)) |
      (1ull << static_cast<unsigned>(Site::HazardProtect));
  reportExplore(explore(Opts, RunOne));
}

/// Scenario 4 — the anchor-tag ABA recipe (§3.2.3): a victim thread is
/// preempted inside MallocFromActive's stale-Next window (between reading
/// the head block's link and the anchor CAS) while an attacker pops that
/// head and its successor, then frees a previously held block plus the
/// popped head — restoring Avail/Count/State exactly while KEEPING the
/// successor block allocated. Only the tag distinguishes the restored
/// anchor from the victim's snapshot; without the increment the victim's
/// CAS lands and publishes the held successor as the freelist head, and a
/// later malloc hands it out twice. This is the scenario that pins the
/// `NewAnchor.Tag = OldAnchor.Tag + 1` line (mutation-tested: removing it
/// must fail here).
///
/// Needs CreditsLimit >= 2: with a single credit the victim's reservation
/// drains Active, so no second thread can pop the same anchor inside the
/// window and the count arithmetic alone rejects every stale CAS.
TEST(SchedExplore, AnchorTagAbaRecipe) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Prior-held block the attacker frees mid-recipe to restore Count.
    void *Prior = Alloc.allocate(PayloadBytes);
    Oracle.onAlloc(Prior, 800);

    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Victim: one malloc whose pop CAS may act on a stale link.
      void *Q = Alloc.allocate(PayloadBytes);
      Oracle.onAlloc(Q, 810);
      Oracle.checkAndFree(Q, Free);
    });
    Bodies.push_back([&Alloc, &Oracle, Free, Prior] {
      // Attacker: pop head, pop successor, free Prior, free the head —
      // anchor word restored except for the tag; the successor stays
      // allocated past the end of the schedule (leak-check disabled).
      void *Head = Alloc.allocate(PayloadBytes);
      Oracle.onAlloc(Head, 820);
      void *Succ = Alloc.allocate(PayloadBytes);
      Oracle.onAlloc(Succ, 821);
      Oracle.checkAndFree(Prior, Free);
      Oracle.checkAndFree(Head, Free);
      (void)Succ; // Held forever: any later handout of it is the bug.
    });
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Late allocator: picks up whatever the victim's CAS published.
      void *R = Alloc.allocate(PayloadBytes);
      Oracle.onAlloc(R, 830);
      Oracle.checkAndFree(R, Free);
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(3 << 20, 800);
  Opts.Proto.HorizonEstimate = 48; // ~35 points/schedule: keep the PCT
                                   // change points inside the run.
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runAllocatorSchedule(O, MakeBodies, /*ExpectAllFreed=*/false,
                                /*CreditsLimit=*/2);
  }));
}

//===----------------------------------------------------------------------===//
// Thread-local magazine cache scenarios. Same harness, but the allocator
// runs with the magazine layer on and deliberately tiny magazines (4
// slots), so refill, overflow flush, and depot traffic all fire within a
// handful of operations. The quiescent oracle (debugValidate) counts
// magazine- and depot-resident blocks against superblock freelists, so a
// block simultaneously cached and on a freelist — the double-pop shape —
// fails the schedule even when no payload is clobbered.
//===----------------------------------------------------------------------===//

namespace {

/// runAllocatorSchedule with the magazine layer enabled.
ScheduleOutcome
runTcacheSchedule(const SchedOptions &O,
                  const std::function<std::vector<std::function<void()>>(
                      LFAllocator &, BlockOracle &)> &MakeBodies,
                  bool ExpectAllFreed = true, unsigned CreditsLimit = 2) {
  ScheduleOutcome Out;
  HazardDomain Domain;
  AllocatorOptions Opts = tinyOptions(Domain, CreditsLimit);
  Opts.EnableThreadCache = true;
  Opts.ThreadCacheMagSize = 4;
  LFAllocator Alloc(Opts);
  BlockOracle Oracle;
  ScheduleController Ctl(O);
  Ctl.run(MakeBodies(Alloc, Oracle));

  std::string Err = Oracle.firstError();
  if (Err.empty() && ExpectAllFreed && Oracle.liveCount() != 0)
    Err = "blocks leaked by the schedule";
  std::string Msg;
  if (Err.empty() && !Alloc.debugValidate(&Msg))
    Err = Msg;
  if (Err.empty() && Ctl.runawayDetected())
    Err = "schedule exceeded MaxSteps (livelock-shaped)";
  if (!Err.empty()) {
    Out.Ok = false;
    Out.Message = Err;
  }
  return Out;
}

} // namespace

/// Scenario 5 — magazine flush vs depot steal: free-heavy threads
/// overflow their 4-slot magazines, pushing chains into the shared depot
/// (TcacheFlush), while alloc-heavy threads refill by exchanging the
/// whole depot head (TcacheSteal) and re-pushing the leftover chain. The
/// forced-failure mask keeps the depot head CAS and the batch anchor
/// pushes failing mid-recipe, so chains are repeatedly re-linked against
/// moved heads.
TEST(SchedExplore, TcacheFlushVsSteal) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    for (unsigned T = 0; T < 2; ++T)
      Bodies.push_back([&Alloc, &Oracle, Free, T] {
        // Free-heavy: burst-allocate, then free everything at once so the
        // magazine overflows and flushes half its slots per burst.
        void *Mine[6] = {};
        for (unsigned I = 0; I < 6; ++I) {
          Mine[I] = Alloc.allocate(PayloadBytes);
          Oracle.onAlloc(Mine[I], 500 + T * 50 + I);
        }
        for (void *P : Mine)
          Oracle.checkAndFree(P, Free);
      });
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Alloc-heavy: misses steal from the depot the others are filling.
      for (unsigned I = 0; I < 8; ++I) {
        void *P = Alloc.allocate(PayloadBytes);
        Oracle.onAlloc(P, 560 + I);
        Oracle.checkAndFree(P, Free);
      }
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(4ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::TcacheFlush)) |
      (1ull << static_cast<unsigned>(Site::TcacheSteal)) |
      (1ull << static_cast<unsigned>(Site::FreePush));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runTcacheSchedule(O, MakeBodies);
  }));
}

/// Scenario 6 — batch refill vs the EMPTY transition: one thread frees
/// the final outstanding blocks of a PARTIAL superblock (driving EMPTY,
/// superblock release, RemoveEmptyDesc) while another's magazine refill
/// pulls that same descriptor from the partial list and must observe
/// EMPTY and retire it instead of popping from a reclaimed superblock.
/// The tcache analogue of RetireAllVsMallocFromPartial, with the added
/// twist that the refill wants several blocks in one tagged anchor CAS.
TEST(SchedExplore, TcacheRefillVsEmptyTransition) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Deterministic prefill on the main thread: a superblock near the
    // all-free boundary, displaced from Active. Main's own magazine is
    // bypassed by going through enough blocks to force anchor traffic.
    void *Hold[6] = {};
    for (void *&P : Hold)
      P = Alloc.allocate(PayloadBytes);
    for (unsigned I = 2; I < 6; ++I)
      Alloc.deallocate(Hold[I]);
    Alloc.flushThreadCache(); // Main's cached blocks back to anchors.
    void *Last[2] = {Hold[0], Hold[1]};
    Oracle.onAlloc(Last[0], 600);
    Oracle.onAlloc(Last[1], 601);

    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    Bodies.push_back([&Alloc, &Oracle, Free, Last] {
      // Retiring thread: frees the last outstanding blocks; in schedules
      // where the superblock left Active these frees drive the EMPTY
      // transition against the other thread's batch refill.
      for (void *P : Last)
        Oracle.checkAndFree(P, Free);
    });
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Refilling thread: every first allocation of a class misses and
      // batch-refills through heapGetPartial — possibly pulling the very
      // descriptor being emptied.
      void *Mine[4] = {};
      for (unsigned I = 0; I < 4; ++I) {
        Mine[I] = Alloc.allocate(PayloadBytes);
        Oracle.onAlloc(Mine[I], 610 + I);
      }
      for (void *P : Mine)
        Oracle.checkAndFree(P, Free);
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(5ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::TcacheRefill)) |
      (1ull << static_cast<unsigned>(Site::PartialReserve)) |
      (1ull << static_cast<unsigned>(Site::FreePush)) |
      (1ull << static_cast<unsigned>(Site::HeapPartialSlot));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runTcacheSchedule(O, MakeBodies);
  }));
}

/// Scenario 7 — exit drain vs concurrent free: one thread fills its
/// magazine and then drains it to the anchors through the same
/// batch-chain path the pthread-key exit hook uses (flushThreadCache with
/// depot bypass), while another thread concurrently frees blocks of the
/// same class into the same superblocks. The N-block chain push
/// (tcacheFreeChain) and the single-block Fig. 6 push race on one anchor
/// word; a lost update either leaks blocks (caught by the leak oracle) or
/// corrupts the freelist (caught by debugValidate's chain walk).
TEST(SchedExplore, TcacheExitDrainVsConcurrentFree) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Blocks main hands to the freeing thread, same class as the drain.
    void *Remote[4] = {};
    for (unsigned I = 0; I < 4; ++I) {
      Remote[I] = Alloc.allocate(PayloadBytes);
      Oracle.onAlloc(Remote[I], 700 + I);
    }
    Alloc.flushThreadCache();

    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Draining thread: fill the magazine with frees, then drain it in
      // descriptor-grouped chains exactly as the exit hook would.
      void *Mine[4] = {};
      for (unsigned I = 0; I < 4; ++I) {
        Mine[I] = Alloc.allocate(PayloadBytes);
        Oracle.onAlloc(Mine[I], 710 + I);
      }
      for (void *P : Mine)
        Oracle.checkAndFree(P, Free);
      Alloc.flushThreadCache();
    });
    Bodies.push_back([&Alloc, &Oracle, Free, Remote] {
      // Concurrent freer: pushes single blocks into the same anchors the
      // drain is chain-pushing into.
      for (void *P : Remote)
        Oracle.checkAndFree(P, Free);
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(6ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::TcacheFlush)) |
      (1ull << static_cast<unsigned>(Site::FreePush)) |
      (1ull << static_cast<unsigned>(Site::UpdateActive));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runTcacheSchedule(O, MakeBodies);
  }));
}

/// Scenario 8 — the cache-adoption ABA recipe: parked ThreadCache shells
/// live on a tagged Treiber stack (TcFree); every controlled thread's
/// first allocation pops it. Three fresh threads adopt concurrently out
/// of a two-deep parked stack (prefilled by real short-lived threads)
/// with forced failures on the stack CASes, so a preempted adopter's pop
/// can straddle park/adopt cycles that restore the head pointer — only
/// the tag tells the restored head from the stale snapshot. Two threads
/// adopting the SAME shell would interleave plain stores into one
/// magazine and surface as double-handouts or freelist corruption.
TEST(SchedExplore, TcacheAdoptAbaRecipe) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Park two cache shells deterministically: two short-lived threads
    // touch the allocator and exit before the controlled region starts.
    for (int I = 0; I < 2; ++I)
      std::thread([&Alloc] { Alloc.deallocate(Alloc.allocate(16)); }).join();

    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    for (unsigned T = 0; T < 3; ++T)
      Bodies.push_back([&Alloc, &Oracle, Free, T] {
        // First allocation adopts (pops TcFree); the rest hammer the
        // adopted magazine so shared-shell corruption becomes visible.
        void *Mine[3] = {};
        for (unsigned I = 0; I < 3; ++I) {
          Mine[I] = Alloc.allocate(PayloadBytes);
          Oracle.onAlloc(Mine[I], 750 + T * 10 + I);
        }
        for (void *P : Mine)
          Oracle.checkAndFree(P, Free);
      });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(7ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::TreiberPop)) |
      (1ull << static_cast<unsigned>(Site::TreiberPush)) |
      (1ull << static_cast<unsigned>(Site::TcacheRefill));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runTcacheSchedule(O, MakeBodies);
  }));
}

//===----------------------------------------------------------------------===//
// Buddy large-backend scenarios. The allocator runs with the buddy
// backend on its smallest legal span (8 MiB = one status tree), so every
// large operation contends on one counting tree. The quiescent oracle
// (debugValidate, which includes BuddyBackend::debugValidate) recomputes
// every node's count from its children, so a lost up-mark, a leaked
// claim, or a meter drift fails the schedule even when no payload is
// clobbered.
//===----------------------------------------------------------------------===//

namespace {

/// Payload that rounds to the smallest large-path buddy order (16 KiB):
/// its total exceeds the last 8 KiB size class.
constexpr std::size_t BuddyPayloadBytes = 12 * 1024;

/// runAllocatorSchedule with the buddy large backend enabled.
ScheduleOutcome
runBuddySchedule(const SchedOptions &O,
                 const std::function<std::vector<std::function<void()>>(
                     LFAllocator &, BlockOracle &)> &MakeBodies) {
  ScheduleOutcome Out;
  HazardDomain Domain;
  AllocatorOptions Opts = tinyOptions(Domain, 1);
  Opts.LargeBackend = LargeBackendKind::Buddy;
  Opts.BuddySpanBytes = BuddyBackend::MaxOrderBytes;
  LFAllocator Alloc(Opts);
  BlockOracle Oracle;
  ScheduleController Ctl(O);
  Ctl.run(MakeBodies(Alloc, Oracle));

  std::string Err = Oracle.firstError();
  if (Err.empty() && Oracle.liveCount() != 0)
    Err = "blocks leaked by the schedule";
  std::string Msg;
  if (Err.empty() && !Alloc.debugValidate(&Msg))
    Err = Msg;
  if (Err.empty() && Ctl.runawayDetected())
    Err = "schedule exceeded MaxSteps (livelock-shaped)";
  if (!Err.empty()) {
    Out.Ok = false;
    Out.Message = Err;
  }
  return Out;
}

} // namespace

/// Scenario 9 — concurrent sibling frees vs the parent-order claim: two
/// threads free the two halves of a carved buddy pair (wait-free down-
/// marks draining the shared ancestors toward 0) while a third repeatedly
/// claims at the PARENT order — its CAS(0 -> BUSY|1) may only fire once
/// BOTH siblings have fully drained, and a success while either sibling's
/// count is still in flight hands out overlapping memory (the oracle's
/// clobber check) or strands a count (debugValidate). Forced failures on
/// the claim CAS keep the scanner re-reading mid-drain words.
TEST(SchedExplore, BuddySiblingFreesVsParentClaim) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    // Deterministic prefill: two 16 KiB siblings carved from one 32 KiB
    // parent (first two same-order claims in a fresh span are adjacent).
    void *Left = Alloc.allocate(BuddyPayloadBytes);
    void *Right = Alloc.allocate(BuddyPayloadBytes);
    Oracle.onAlloc(Left, 950);
    Oracle.onAlloc(Right, 951);

    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    Bodies.push_back([&Oracle, Free, Left] {
      Oracle.checkAndFree(Left, Free);
    });
    Bodies.push_back([&Oracle, Free, Right] {
      Oracle.checkAndFree(Right, Free);
    });
    Bodies.push_back([&Alloc, &Oracle, Free] {
      // Parent-order claimer: wants the 32 KiB whole the frees reform.
      for (unsigned I = 0; I < 3; ++I) {
        void *P = Alloc.allocate(2 * BuddyPayloadBytes);
        Oracle.onAlloc(P, 960 + I);
        Oracle.checkAndFree(P, Free);
      }
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(8ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::BuddyAlloc)) |
      (1ull << static_cast<unsigned>(Site::BuddyCoalesce));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runBuddySchedule(O, MakeBodies);
  }));
}

/// Scenario 10 — the claim-CAS ABA shape plus trim interference: a victim
/// scanner reads a node word as 0 and is preempted before its CAS while
/// an attacker allocates that very block, touches it, and frees it back —
/// restoring the word to exactly 0. The victim's stale CAS then fires,
/// which the counting protocol must treat as BENIGN (0 always means
/// genuinely free; the attacker's claim is long gone). Meanwhile a
/// trimmer claims free wholes through the BuddyCoalesce site and
/// decommits them, so the victim's claim also races obstruction-free trim
/// claims. A protocol that peeked at stale sibling state instead would
/// hand the same block to victim and attacker — the double-handout /
/// clobber oracles.
TEST(SchedExplore, BuddyClaimAbaVsTrim) {
  const auto MakeBodies = [](LFAllocator &Alloc, BlockOracle &Oracle) {
    std::vector<std::function<void()>> Bodies;
    const auto Free = [&Alloc](void *Q) { Alloc.deallocate(Q); };
    for (unsigned T = 0; T < 2; ++T)
      Bodies.push_back([&Alloc, &Oracle, Free, T] {
        // Victim/attacker pair: both scan the same level of the same
        // tree; each allocate-touch-free cycles node words 0 -> BUSY -> 0
        // under the other's nose.
        for (unsigned I = 0; I < 3; ++I) {
          void *P = Alloc.allocate(BuddyPayloadBytes);
          Oracle.onAlloc(P, 970 + T * 10 + I);
          Oracle.checkAndFree(P, Free);
        }
      });
    Bodies.push_back([&Alloc] {
      // Trimmer: claims maximal free blocks via the BuddyCoalesce CAS and
      // decommits them; must yield to (not corrupt) concurrent claims.
      for (unsigned I = 0; I < 2; ++I)
        Alloc.trimLargeBackend(0);
    });
    return Bodies;
  };
  ExploreOptions Opts = exploreOptions(9ull << 20, 400);
  Opts.Proto.CasFailSiteMask =
      (1ull << static_cast<unsigned>(Site::BuddyAlloc)) |
      (1ull << static_cast<unsigned>(Site::BuddyCoalesce));
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    return runBuddySchedule(O, MakeBodies);
  }));
}

/// Scenario 11 — the ancestor pre-check vs an enclosing claim, scripted:
/// a claimer reads a zero 16 KiB word whose ancestors are all zero, so
/// the pre-check passes; it is parked between the pre-check and its claim
/// CAS while the (uncontrolled) main thread claims the whole 8 MiB root
/// around it. The parked CAS still succeeds — the word is 0 — and the
/// up-mark must then meet the BUSY root and undo the claim: exactly one
/// rollback, the only path on which one still happens now that the scan
/// skips ranges under BUSY ancestors.
TEST(SchedExplore, BuddyPreCheckVsEnclosingClaim) {
  PageAllocator Pages;
  BuddyBackend Buddy(Pages);
  Buddy.configure(BuddyBackend::MaxOrderBytes, ~std::size_t{0}); // One tree.
  LargeBackend::Allocation Small, Whole;
  bool SmallOk = false;
  SchedOptions O;
  O.Seed = test::baseSeed();
  ScheduleController Ctl(O);
  Ctl.start({[&] {
    SmallOk = Buddy.allocate(2 * BuddyBackend::MinOrderBytes, OsPageSize,
                             Small);
  }});
  // The claimer's first schedule point is the BuddyAlloc one, right after
  // the pre-check found no BUSY ancestor.
  ASSERT_TRUE(Ctl.step(0, 1));
  ASSERT_TRUE(Buddy.allocate(BuddyBackend::MaxOrderBytes, OsPageSize, Whole));
  ASSERT_FALSE(Whole.OsMapped);
  while (Ctl.step(0, 1)) {
  }
  Ctl.finish();

  LargeBackendSnapshot S;
  Buddy.snapshot(S);
  EXPECT_EQ(S.Rollbacks, 1u);
  ASSERT_TRUE(SmallOk);
  // The root is taken, so the claimer went on to a second span.
  const char *Root = static_cast<const char *>(Whole.Block);
  const char *P = static_cast<const char *>(Small.Block);
  EXPECT_TRUE(P + Small.Total <= Root || P >= Root + Whole.Total)
      << "a rolled-back claim was handed out inside the enclosing block";
  Buddy.deallocate(Small.Block, Small.Total);
  Buddy.deallocate(Whole.Block, Whole.Total);
  const char *What = nullptr;
  EXPECT_TRUE(Buddy.debugValidate(&What)) << (What ? What : "?");
}

//===----------------------------------------------------------------------===//
// Hazard-record cold start. A thread's first touch of a HazardDomain
// either adopts a released record (CAS on its Active flag) or mints one by
// bumping the watermark. The bump makes the record visible to adopters
// before the minter owns it, so the mint must claim with the same CAS —
// otherwise an adopter in that window takes the record too, and two
// threads share hazard slots: one's publish overwrites the other's, and
// an object still protected by the first is reclaimed.
//===----------------------------------------------------------------------===//

namespace {

struct ColdStartObj : HazardErasable {
  bool Reclaimed = false;
};

void markReclaimed(HazardErasable *Obj, void *) {
  static_cast<ColdStartObj *>(Obj)->Reclaimed = true;
}

} // namespace

/// Scenario 12 — scripted: a minter parked between its watermark bump and
/// its claim, the (uncontrolled) main thread touching the domain in that
/// window. The main thread's protected object must survive the minter's
/// publish, clear and thread exit.
TEST(SchedExplore, HazardMintWindowVsAdopter) {
  ColdStartObj Other, Mine; // Outlive the domain, which drains on exit.
  HazardDomain Domain;
  SchedOptions O;
  O.Seed = test::baseSeed();
  ScheduleController Ctl(O);
  Ctl.start({[&] {
    Domain.publish(0, &Other);
    Domain.clear(0);
  }});
  // The minter's first schedule point is HazardClaim: the watermark says
  // one record exists, and nobody owns it yet.
  ASSERT_TRUE(Ctl.step(0, 1));
  Domain.publish(0, &Mine);
  while (Ctl.step(0, 1)) {
  }
  Ctl.finish(); // Joins the minter: its exit releases its record.

  Domain.retire(&Mine, markReclaimed, nullptr);
  Domain.drainAll();
  EXPECT_FALSE(Mine.Reclaimed)
      << "an object protected by this thread was reclaimed: the minter "
         "claimed this thread's hazard record";
  EXPECT_EQ(Domain.recordWatermark(), 2u);
  Domain.clear(0);
  Domain.drainAll();
  EXPECT_TRUE(Mine.Reclaimed);
}

/// Scenario 13 — cold start, explored: N threads touch a fresh domain at
/// once. Each publishes a hazard on its own object, retires it while
/// holding the hazard, drains, and checks the object survived; only then
/// does it clear. Any two threads sharing a record fail this (whichever
/// published first loses its protection).
TEST(SchedExplore, HazardColdStart) {
  constexpr unsigned NumThreads = 4;
  ExploreOptions Opts = exploreOptions(10ull << 20, 300);
  Opts.Proto.HorizonEstimate = 32;
  reportExplore(explore(Opts, [&](const SchedOptions &O) {
    ScheduleOutcome Out;
    ColdStartObj Objs[NumThreads]; // Outlive the domain.
    HazardDomain Domain;
    std::mutex M;
    std::string Err;
    std::vector<std::function<void()>> Bodies;
    for (unsigned T = 0; T < NumThreads; ++T)
      Bodies.push_back([&, T] {
        Domain.publish(0, &Objs[T]);
        ScheduleController::current()->yield(Site::HazardClaim);
        Domain.retire(&Objs[T], markReclaimed, nullptr);
        Domain.drainAll();
        {
          std::lock_guard<std::mutex> Lock(M);
          if (Objs[T].Reclaimed && Err.empty())
            Err = "object reclaimed while its thread still protected it "
                  "(two threads share a hazard record)";
        }
        Domain.clear(0);
      });
    ScheduleController Ctl(O);
    Ctl.run(std::move(Bodies));
    Domain.drainAll();
    if (Err.empty())
      for (const ColdStartObj &Obj : Objs)
        if (!Obj.Reclaimed)
          Err = "retired object never reclaimed after every hazard cleared";
    if (Err.empty() && Ctl.runawayDetected())
      Err = "schedule exceeded MaxSteps (livelock-shaped)";
    if (!Err.empty()) {
      Out.Ok = false;
      Out.Message = Err;
    }
    return Out;
  }));
}

/// Sanity: one fixed schedule end-to-end with every oracle engaged, so a
/// broken harness (rather than a broken allocator) fails fast and clearly.
TEST(SchedExplore, SingleScheduleSmoke) {
  SchedOptions O;
  O.Seed = test::baseSeed();
  O.MaxPreemptions = 2;
  O.CasFailPercent = 30;
  O.HorizonEstimate = 512;
  const ScheduleOutcome Out = runAllocatorSchedule(
      O, [](LFAllocator &Alloc, BlockOracle &Oracle) {
        std::vector<std::function<void()>> Bodies;
        for (unsigned T = 0; T < 2; ++T)
          Bodies.push_back([&Alloc, &Oracle, T] {
            for (unsigned I = 0; I < 3; ++I) {
              void *P = Alloc.allocate(PayloadBytes);
              Oracle.onAlloc(P, T * 10 + I);
              Oracle.checkAndFree(
                  P, [&Alloc](void *Q) { Alloc.deallocate(Q); });
            }
          });
        return Bodies;
      });
  EXPECT_TRUE(Out.Ok) << Out.Message;
}

} // namespace
