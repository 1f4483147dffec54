//===- lockfree/HazardPointers.cpp - Safe memory reclamation --------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "lockfree/HazardPointers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <pthread.h>

using namespace lfm;

namespace {

std::atomic<std::uint64_t> NextDomainId{1};

/// Immortal registry of live domain ids. Thread-exit cleanup consults it
/// so a cached record pointer into an already-destroyed domain (e.g. a
/// test-scoped domain that died before the thread) is skipped instead of
/// dereferenced. Lock-free: slots hold an id or 0.
class DomainRegistry {
public:
  static constexpr unsigned Capacity = 4096;

  static DomainRegistry &instance() {
    static DomainRegistry Registry;
    return Registry;
  }

  void add(std::uint64_t Id) {
    for (auto &Slot : Slots) {
      std::uint64_t Expected = 0;
      if (Slot.compare_exchange_strong(Expected, Id,
                                       std::memory_order_acq_rel))
        return;
    }
    std::fprintf(stderr, "lfmalloc: more than %u live hazard domains\n",
                 Capacity);
    std::abort();
  }

  void remove(std::uint64_t Id) {
    for (auto &Slot : Slots)
      if (Slot.load(std::memory_order_relaxed) == Id) {
        Slot.store(0, std::memory_order_release);
        return;
      }
  }

  bool isLive(std::uint64_t Id) const {
    for (const auto &Slot : Slots)
      if (Slot.load(std::memory_order_acquire) == Id)
        return true;
    return false;
  }

private:
  DomainRegistry() = default;

  std::atomic<std::uint64_t> Slots[Capacity] = {};
};

} // namespace

namespace lfm {

/// Per-thread map from domain to acquired record. Trivially destructible
/// by design: records are released through a pthread key destructor, NOT
/// a C++ TLS destructor. The distinction matters because other pthread
/// key destructors (the allocator's thread-cache exit drain) legitimately
/// run hazard-protected operations during thread teardown — after
/// __call_tls_dtors has already run. A C++ destructor here would mean
/// such late use either touches a destroyed object or, on a thread whose
/// first hazard use IS the teardown path, registers with
/// __cxa_thread_atexit too late to ever run (leaking the registration
/// and abandoning the record). The key-destructor protocol handles both:
/// every insert re-arms the key, and pthreads re-runs destructors while
/// any key value is non-null, so a record acquired during another key's
/// destructor is released one iteration later.
struct HazardThreadCache {
  struct Entry {
    HazardDomain *Domain;
    std::uint64_t Id;
    void *Record; // HazardDomain::Record*, type-erased to keep this POD-ish.
  };
  static constexpr unsigned Capacity = 64;

  Entry Entries[Capacity] = {};
  unsigned Count = 0;

  void releaseAll();

  void *lookup(const HazardDomain *Domain, std::uint64_t Id) const {
    for (unsigned I = 0; I < Count; ++I)
      if (Entries[I].Domain == Domain && Entries[I].Id == Id)
        return Entries[I].Record;
    return nullptr;
  }

  void insert(HazardDomain *Domain, std::uint64_t Id, void *Record) {
    if (Count >= Capacity) {
      // Evict entries for domains that no longer exist (their records died
      // with them); common when tests construct many short-lived domains.
      unsigned Kept = 0;
      for (unsigned I = 0; I < Count; ++I)
        if (DomainRegistry::instance().isLive(Entries[I].Id))
          Entries[Kept++] = Entries[I];
      Count = Kept;
    }
    if (Count >= Capacity) {
      std::fprintf(stderr,
                   "lfmalloc: thread uses more than %u hazard domains\n",
                   Capacity);
      std::abort();
    }
    Entries[Count++] = Entry{Domain, Id, Record};
    armExitRelease(this);
  }

  static void armExitRelease(HazardThreadCache *Cache);
};

} // namespace lfm

namespace {

thread_local HazardThreadCache TlsHazardCache;

pthread_key_t HazardExitKey;
pthread_once_t HazardExitKeyOnce = PTHREAD_ONCE_INIT;

extern "C" void lfmHazardExitRelease(void *Arg) {
  static_cast<HazardThreadCache *>(Arg)->releaseAll();
}

void makeHazardExitKey() {
  if (pthread_key_create(&HazardExitKey, lfmHazardExitRelease) != 0) {
    // Without the key, exiting threads abandon their records (bounded by
    // MaxRecords); keep running rather than aborting at first use.
    std::fprintf(stderr, "lfmalloc: cannot create hazard exit key\n");
  }
}

} // namespace

void HazardThreadCache::armExitRelease(HazardThreadCache *Cache) {
  pthread_once(&HazardExitKeyOnce, makeHazardExitKey);
  // Re-armed on EVERY insert: pthreads nulls the value before each
  // destructor pass, so a record acquired inside another key's destructor
  // re-sets it and earns one more pass.
  pthread_setspecific(HazardExitKey, Cache);
}

void HazardThreadCache::releaseAll() {
  for (unsigned I = 0; I < Count; ++I) {
    // Domains this thread outlived are gone along with their records;
    // releasing into them would be a use-after-free. The registry check
    // is exact because domain ids are never reused.
    if (!DomainRegistry::instance().isLive(Entries[I].Id))
      continue;
    Entries[I].Domain->releaseRecord(
        static_cast<HazardDomain::Record *>(Entries[I].Record));
  }
  Count = 0;
}

HazardDomain::HazardDomain()
    : DomainId(NextDomainId.fetch_add(1, std::memory_order_relaxed)) {
  Records = static_cast<Record *>(Pages.map(sizeof(Record) * MaxRecords));
  if (!Records) {
    std::fprintf(stderr, "lfmalloc: cannot map hazard records\n");
    std::abort();
  }
  // mmap memory is zeroed: Slots null, Active false, retired lists empty.
  DomainRegistry::instance().add(DomainId);
}

HazardDomain::~HazardDomain() {
  // All user threads are gone per the lifetime contract, so every retired
  // object is reclaimable.
  drainAll();
  DomainRegistry::instance().remove(DomainId);
  Pages.unmap(Records, sizeof(Record) * MaxRecords);
}

HazardDomain &HazardDomain::global() {
  // Immortal storage: constructed on first use, never destroyed, so threads
  // exiting at any point in process shutdown can still release records
  // safely (and no static destructor ordering hazards exist).
  alignas(HazardDomain) static unsigned char Storage[sizeof(HazardDomain)];
  static HazardDomain *Instance = new (Storage) HazardDomain();
  return *Instance;
}

HazardDomain::Record *HazardDomain::myRecord() {
  if (void *Cached = TlsHazardCache.lookup(this, DomainId))
    return static_cast<Record *>(Cached);

  // Try to adopt a released record first.
  const unsigned Watermark =
      RecordWatermarkCount.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Watermark; ++I) {
    bool Expected = false;
    if (!Records[I].Active.load(std::memory_order_relaxed) &&
        Records[I].Active.compare_exchange_strong(
            Expected, true, std::memory_order_acq_rel)) {
      TlsHazardCache.insert(this, DomainId, &Records[I]);
      return &Records[I];
    }
  }

  // Mint a fresh record. The bump publishes the slot to adopters before
  // this thread owns it, so the claim must be the same CAS the adopt path
  // uses: an adopter that wins the window keeps the record and this thread
  // mints the next one.
  for (;;) {
    const unsigned Mine =
        RecordWatermarkCount.fetch_add(1, std::memory_order_acq_rel);
    if (Mine >= MaxRecords) {
      std::fprintf(stderr, "lfmalloc: more than %u threads in hazard domain\n",
                   MaxRecords);
      std::abort();
    }
    LFM_SCHED_POINT(HazardClaim);
    bool Expected = false;
    if (Records[Mine].Active.compare_exchange_strong(
            Expected, true, std::memory_order_acq_rel)) {
      TlsHazardCache.insert(this, DomainId, &Records[Mine]);
      return &Records[Mine];
    }
  }
}

void HazardDomain::publishHazard(unsigned Slot, void *Ptr) {
  assert(Slot < SlotsPerThread && "hazard slot out of range");
  Record *Rec = myRecord();
  // Release, like clear(): this store may overwrite the hazard on a node
  // this thread just read (MSQueue::dequeue reads Next->Value, then a
  // failed head CAS loops back here). A scanner that acquire-loads the new
  // value must see those reads as done before it reclaims the old node;
  // a relaxed store here leaves no such edge, and the node's next owner's
  // plain write would race with the read.
  Rec->Slots[Slot].store(Ptr, std::memory_order_release);
  // Order the publication before the validating re-read in protect() and
  // against the scanner's collection pass. This fence pairs with the one at
  // the top of scan().
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void HazardDomain::clear(unsigned Slot) {
  assert(Slot < SlotsPerThread && "hazard slot out of range");
  myRecord()->Slots[Slot].store(nullptr, std::memory_order_release);
}

void HazardDomain::clearAll() {
  Record *Rec = myRecord();
  for (unsigned I = 0; I < SlotsPerThread; ++I)
    Rec->Slots[I].store(nullptr, std::memory_order_release);
}

void HazardDomain::retire(HazardErasable *Obj,
                          void (*Reclaim)(HazardErasable *, void *),
                          void *Ctx) {
  assert(Obj && Reclaim && "retire needs an object and a reclaimer");
  Obj->Reclaim = Reclaim;
  Obj->ReclaimCtx = Ctx;
  Record *Rec = myRecord();
  Obj->RetiredNext = Rec->RetiredHead;
  Rec->RetiredHead = Obj;
  const std::uint32_t Pending =
      Rec->RetiredCount.load(std::memory_order_relaxed) + 1;
  Rec->RetiredCount.store(Pending, std::memory_order_relaxed);
  if (Pending >= ScanThreshold)
    scan(Rec);
}

void HazardDomain::scan(Record *Rec) {
  // Stage 1: snapshot every active hazard. Pairs with the fence in
  // publishHazard(): any protect() that validated before this fence is
  // visible here; any that validates after will re-read the source and
  // cannot observe an object we are about to reclaim (it was unlinked
  // before retire()).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  void *Hazards[MaxRecords * SlotsPerThread];
  unsigned NumHazards = 0;
  const unsigned Watermark =
      RecordWatermarkCount.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Watermark; ++I) {
    for (unsigned S = 0; S < SlotsPerThread; ++S) {
      // Read slots of inactive records too: releaseRecord() clears them,
      // but a racing release could otherwise hide a still-set hazard.
      if (void *Ptr = Records[I].Slots[S].load(std::memory_order_acquire))
        Hazards[NumHazards++] = Ptr;
    }
  }
  std::sort(Hazards, Hazards + NumHazards);

  // Stage 2: reclaim every retired object not present in the snapshot.
  // Detach the list first: reclaim callbacks may re-enter retire() (e.g.
  // freeing a queue node can empty a superblock, which retires its
  // descriptor), appending to Rec->RetiredHead while we work.
  HazardErasable *Survivors = nullptr;
  std::uint32_t SurvivorCount = 0;
  HazardErasable *Obj = Rec->RetiredHead;
  Rec->RetiredHead = nullptr;
  Rec->RetiredCount.store(0, std::memory_order_relaxed);
  while (Obj) {
    HazardErasable *Next = Obj->RetiredNext;
    if (std::binary_search(Hazards, Hazards + NumHazards,
                           static_cast<void *>(Obj))) {
      Obj->RetiredNext = Survivors;
      Survivors = Obj;
      ++SurvivorCount;
    } else {
      Obj->Reclaim(Obj, Obj->ReclaimCtx);
      Reclaims.fetch_add(1, std::memory_order_relaxed);
    }
    Obj = Next;
  }
  Scans.fetch_add(1, std::memory_order_relaxed);
  // Prepend survivors to whatever re-entrant retires accumulated — do
  // not overwrite, or those objects would leak unreclaimed.
  if (Survivors) {
    HazardErasable *Tail = Survivors;
    while (Tail->RetiredNext)
      Tail = Tail->RetiredNext;
    Tail->RetiredNext = Rec->RetiredHead;
    Rec->RetiredHead = Survivors;
    Rec->RetiredCount.store(
        Rec->RetiredCount.load(std::memory_order_relaxed) + SurvivorCount,
        std::memory_order_relaxed);
  }
}

void HazardDomain::releaseRecord(Record *Rec) {
  for (unsigned I = 0; I < SlotsPerThread; ++I)
    Rec->Slots[I].store(nullptr, std::memory_order_release);
  // Try to shed this thread's retired backlog before handing the record
  // (and any survivors, which the next owner adopts) back to the pool.
  if (Rec->RetiredCount.load(std::memory_order_relaxed) > 0)
    scan(Rec);
  Rec->Active.store(false, std::memory_order_release);
}

void HazardDomain::drainAll() {
  // Quiescent-state operation: with no concurrent users, scanning each
  // record reclaims everything no longer protected (normally everything).
  const unsigned Watermark =
      RecordWatermarkCount.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Watermark; ++I)
    if (Records[I].RetiredHead)
      scan(&Records[I]);
}

std::uint64_t HazardDomain::retiredCount() const {
  std::uint64_t Total = 0;
  const unsigned Watermark =
      RecordWatermarkCount.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Watermark; ++I)
    Total += Records[I].RetiredCount.load(std::memory_order_relaxed);
  return Total;
}

unsigned HazardDomain::recordWatermark() const {
  return RecordWatermarkCount.load(std::memory_order_relaxed);
}
