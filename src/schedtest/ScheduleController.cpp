//===- schedtest/ScheduleController.cpp - Deterministic scheduler ---------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "schedtest/ScheduleController.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>

using namespace lfm;
using namespace lfm::sched;

namespace lfm {
namespace sched {

thread_local ScheduleController *TlsController = nullptr;

#if LFM_SCHED_TEST
thread_local std::uint64_t TlsSiteVisits = 0;
#endif

const char *siteName(Site S) {
  switch (S) {
  case Site::ActiveReserve:
    return "ActiveReserve";
  case Site::ActivePop:
    return "ActivePop";
  case Site::UpdateActive:
    return "UpdateActive";
  case Site::PartialReserve:
    return "PartialReserve";
  case Site::PartialPop:
    return "PartialPop";
  case Site::NewSbInstall:
    return "NewSbInstall";
  case Site::FreePush:
    return "FreePush";
  case Site::HeapPartialSlot:
    return "HeapPartialSlot";
  case Site::DescPop:
    return "DescPop";
  case Site::DescPush:
    return "DescPush";
  case Site::TreiberPush:
    return "TreiberPush";
  case Site::TreiberPop:
    return "TreiberPop";
  case Site::MsqEnqueue:
    return "MsqEnqueue";
  case Site::MsqDequeue:
    return "MsqDequeue";
  case Site::HazardProtect:
    return "HazardProtect";
  case Site::HazardClaim:
    return "HazardClaim";
  case Site::SbAcquire:
    return "SbAcquire";
  case Site::SbRelease:
    return "SbRelease";
  case Site::SbTrim:
    return "SbTrim";
  case Site::TcacheRefill:
    return "TcacheRefill";
  case Site::TcacheFlush:
    return "TcacheFlush";
  case Site::TcacheSteal:
    return "TcacheSteal";
  case Site::BuddyAlloc:
    return "BuddyAlloc";
  case Site::BuddyCoalesce:
    return "BuddyCoalesce";
  case Site::BuddyFull:
    return "BuddyFull";
  case Site::BuddySpanMint:
    return "BuddySpanMint";
  case Site::NumSites:
    break;
  }
  return "?";
}

void schedYield(Site S) {
  if (ScheduleController *Ctl = TlsController)
    Ctl->yield(S);
}

bool schedShouldFailCas(Site S) {
  ScheduleController *Ctl = TlsController;
  return Ctl && Ctl->shouldFailCas(S);
}

} // namespace sched
} // namespace lfm

thread_local unsigned ScheduleController::TlsSelf = 0;

ScheduleController::ScheduleController(const SchedOptions &O)
    : Opts(O), RngState(O.Seed ^ 0x9e3779b97f4a7c15ULL),
      CasBudgetLeft(O.CasFailBudget) {
  const std::uint64_t Horizon =
      Opts.HorizonEstimate ? Opts.HorizonEstimate : 1;
  for (unsigned I = 0; I < Opts.MaxPreemptions; ++I)
    ChangePoints.push_back(1 + nextRand() % Horizon);
  std::sort(ChangePoints.begin(), ChangePoints.end());
}

ScheduleController::~ScheduleController() {
  if (!Joined && !Workers.empty())
    finish();
}

std::uint64_t ScheduleController::nextRand() { return splitMix64(RngState); }

void ScheduleController::spawn(std::vector<std::function<void()>> Bodies) {
  assert(Workers.empty() && "ScheduleController is one-shot");
  const unsigned N = static_cast<unsigned>(Bodies.size());
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.push_back(std::make_unique<Worker>());

  // Seeded priority permutation (Fisher-Yates): higher runs first.
  std::vector<int> Prio(N);
  for (unsigned I = 0; I < N; ++I)
    Prio[I] = static_cast<int>(I);
  for (unsigned I = N; I > 1; --I)
    std::swap(Prio[I - 1], Prio[nextRand() % I]);
  for (unsigned I = 0; I < N; ++I)
    Workers[I]->Priority = Prio[I];

  for (unsigned I = 0; I < N; ++I) {
    // The body is moved into the thread; workerMain parks at the entry
    // gate before invoking it.
    Workers[I]->Thread =
        std::thread([this, I, Body = std::move(Bodies[I])] {
          workerMain(I, Body);
        });
  }

  // Wait until every worker stands at its gate, so the first grant (and
  // manual stepping) sees a fully-formed roster.
  std::unique_lock<std::mutex> Lock(M);
  MainCv.wait(Lock, [&] { return ReadyCount == N; });
}

void ScheduleController::workerMain(unsigned Self,
                                    const std::function<void()> &Body) {
  TlsController = this;
  TlsSelf = Self;
  Worker &W = *Workers[Self];
  {
    std::unique_lock<std::mutex> Lock(M);
    W.Reached = true;
    ++ReadyCount;
    MainCv.notify_all();
    W.Cv.wait(Lock, [&] {
      return W.Go || FreeRun.load(std::memory_order_relaxed);
    });
    W.Go = false;
    W.Phase = ThreadPhase::Running;
  }
  Body();
  {
    std::unique_lock<std::mutex> Lock(M);
    onDoneLocked(Lock, Self);
  }
  TlsController = nullptr;
}

void ScheduleController::grantLocked(unsigned Target) {
  Worker &W = *Workers[Target];
  W.Go = true;
  W.Cv.notify_one();
}

void ScheduleController::parkSelfLocked(std::unique_lock<std::mutex> &Lock,
                                        unsigned Self) {
  Worker &W = *Workers[Self];
  W.Phase = ThreadPhase::Parked;
  MainCv.notify_all();
  W.Cv.wait(Lock, [&] {
    return W.Go || FreeRun.load(std::memory_order_relaxed);
  });
  W.Go = false;
  W.Phase = ThreadPhase::Running;
}

int ScheduleController::pickNextLocked(unsigned Exclude) const {
  int Best = -1;
  for (unsigned I = 0; I < Workers.size(); ++I) {
    if (I == Exclude || !Workers[I]->Reached ||
        Workers[I]->Phase != ThreadPhase::Parked)
      continue;
    if (Best < 0 || Workers[I]->Priority > Workers[Best]->Priority)
      Best = static_cast<int>(I);
  }
  return Best;
}

void ScheduleController::onDoneLocked(std::unique_lock<std::mutex> &,
                                      unsigned Self) {
  Workers[Self]->Phase = ThreadPhase::Done;
  ++DoneCount;
  MainCv.notify_all();
  if (!Manual && !FreeRun.load(std::memory_order_relaxed)) {
    const int Next = pickNextLocked(Self);
    if (Next >= 0)
      grantLocked(static_cast<unsigned>(Next));
  }
}

std::uint64_t
ScheduleController::run(std::vector<std::function<void()>> Bodies) {
  Manual = false;
  const unsigned N = static_cast<unsigned>(Bodies.size());
  spawn(std::move(Bodies));
  {
    std::unique_lock<std::mutex> Lock(M);
    const int First = pickNextLocked(static_cast<unsigned>(-1));
    assert(First >= 0 && "no runnable thread at schedule start");
    grantLocked(static_cast<unsigned>(First));
    MainCv.wait(Lock, [&] { return DoneCount == N; });
  }
  for (auto &W : Workers)
    W->Thread.join();
  Joined = true;
  return steps();
}

void ScheduleController::start(std::vector<std::function<void()>> Bodies) {
  Manual = true;
  spawn(std::move(Bodies));
}

bool ScheduleController::step(unsigned Thread, std::uint64_t Points) {
  assert(Manual && "step() requires start()");
  std::unique_lock<std::mutex> Lock(M);
  Worker &W = *Workers[Thread];
  if (W.Phase == ThreadPhase::Done)
    return false;
  W.Budget = Points;
  grantLocked(Thread);
  MainCv.wait(Lock, [&] {
    return (!W.Go && W.Phase != ThreadPhase::Running) ||
           FreeRun.load(std::memory_order_relaxed);
  });
  return W.Phase != ThreadPhase::Done;
}

void ScheduleController::finish() {
  {
    std::unique_lock<std::mutex> Lock(M);
    FreeRun.store(true, std::memory_order_release);
    for (auto &W : Workers)
      W->Cv.notify_all();
  }
  for (auto &W : Workers)
    if (W->Thread.joinable())
      W->Thread.join();
  Joined = true;
}

void ScheduleController::yield(Site) {
  if (FreeRun.load(std::memory_order_acquire))
    return;
  const unsigned Self = TlsSelf;
  std::unique_lock<std::mutex> Lock(M);
  if (FreeRun.load(std::memory_order_relaxed))
    return;
  const std::uint64_t Step =
      Steps.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Step >= Opts.MaxSteps) {
    // Runaway schedule (livelock-shaped): abandon control, free-run to
    // completion so the scenario can report it.
    FreeRun.store(true, std::memory_order_release);
    for (auto &W : Workers)
      W->Cv.notify_all();
    MainCv.notify_all();
    return;
  }

  if (Manual) {
    Worker &W = *Workers[Self];
    assert(W.Budget > 0 && "running manual thread without budget");
    if (--W.Budget > 0)
      return;
    parkSelfLocked(Lock, Self);
    return;
  }

  // Auto mode: preempt only at the seeded PCT change points.
  if (NextChange >= ChangePoints.size() || Step < ChangePoints[NextChange])
    return;
  ++NextChange;
  Worker &W = *Workers[Self];
  W.Priority = LowWater--; // Demote below every other thread.
  const int Next = pickNextLocked(Self);
  if (Next < 0 || Workers[Next]->Priority <= W.Priority)
    return; // Nobody else runnable; keep going.
  grantLocked(static_cast<unsigned>(Next));
  parkSelfLocked(Lock, Self);
}

bool ScheduleController::shouldFailCas(Site S) {
  if (FreeRun.load(std::memory_order_acquire))
    return false;
  std::unique_lock<std::mutex> Lock(M);
  if (Opts.CasFailPercent == 0 || CasBudgetLeft == 0 ||
      !((Opts.CasFailSiteMask >> static_cast<unsigned>(S)) & 1))
    return false;
  if (nextRand() % 100 >= Opts.CasFailPercent)
    return false;
  --CasBudgetLeft;
  ForcedFails.fetch_add(1, std::memory_order_relaxed);
  return true;
}
