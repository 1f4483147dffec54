//===- tools/lfm-top.cpp - Out-of-process allocator inspector -------------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Attaches to a live (or dead) lfmalloc process through its
// lfm-shmstats-v2 shared-memory segment and renders the allocator's
// telemetry without any cooperation from the target: no ctl call, no
// signal, no exporter thread — the segment is parsed with seqlock'd
// copies that stay consistent even while the target spins in a retry
// storm. Deliberately not linked against the allocator; the wire format
// and JSON writer headers are the only shared code. Scalars are rendered
// from the segment's own name/section/type table, so a new registry row
// shows up here without a change to this tool.
//
//   lfm-top --pid <pid>            attach via /proc/<pid>/fd (memfd segment)
//   lfm-top --segment <path>       attach to a file-backed segment
//   lfm-top --core <corefile>      extract the final frame from a core dump
//   lfm-top --once [--json]        one snapshot (JSON for scripting)
//   lfm-top --interval <ms>        watch mode refresh period (default 1000)
//
//===----------------------------------------------------------------------===//

#include "telemetry/JsonWriter.h"
#include "telemetry/ShmStatsFormat.h"

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <elf.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

using namespace lfm;

namespace {

struct Options {
  long Pid = -1;
  const char *SegmentPath = nullptr;
  const char *CorePath = nullptr;
  bool Once = false;
  bool Json = false;
  std::uint64_t IntervalMs = 1000;
};

[[noreturn]] void usage(int Rc) {
  std::fprintf(
      Rc == 0 ? stdout : stderr,
      "usage: lfm-top (--pid <pid> | --segment <path> | --core <file>)\n"
      "               [--once] [--json] [--interval <ms>]\n"
      "\n"
      "Attaches to an lfmalloc process via its lfm-shmstats-v2 segment\n"
      "(LFM_SHM_STATS=1 or =<path> in the target's environment) and shows\n"
      "live op rates, latency quantiles, CAS retry distributions,\n"
      "superblock heat, and watchdog verdicts. --core extracts the final\n"
      "published frame from a core dump. --once --json emits one\n"
      "machine-readable snapshot.\n");
  std::exit(Rc);
}

[[noreturn]] void die(const char *Fmt, const char *Arg = nullptr) {
  std::fprintf(stderr, "lfm-top: ");
  std::fprintf(stderr, Fmt, Arg);
  std::fprintf(stderr, "\n");
  std::exit(1);
}

std::uint64_t nowWallNs() {
  timespec Ts{};
  clock_gettime(CLOCK_REALTIME, &Ts);
  return static_cast<std::uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(Ts.tv_nsec);
}

/// A mapped (or loaded) segment plus how it may be read.
struct Attachment {
  const void *Buf = nullptr;
  std::size_t Len = 0;
  bool Live = false; ///< Concurrently written: use the retry loop.
  long Pid = -1;     ///< Target pid when known (for /proc RSS).
};

/// --segment / --pid attach: mmap the backing read-only and read it live.
Attachment attachFile(const char *Path, long Pid) {
  const int Fd = ::open(Path, O_RDONLY);
  if (Fd < 0)
    die("cannot open %s", Path);
  struct stat St{};
  if (::fstat(Fd, &St) != 0 || St.st_size <= 0)
    die("cannot stat %s", Path);
  void *Map = ::mmap(nullptr, static_cast<std::size_t>(St.st_size), PROT_READ,
                     MAP_SHARED, Fd, 0);
  ::close(Fd); // The mapping keeps the segment alive.
  if (Map == MAP_FAILED)
    die("cannot map %s", Path);
  Attachment A;
  A.Buf = Map;
  A.Len = static_cast<std::size_t>(St.st_size);
  A.Live = true;
  A.Pid = Pid;
  return A;
}

/// --pid attach: find the memfd named lfm-shmstats among the target's
/// open descriptors and map it through /proc. Requires the same access a
/// debugger needs (same user or CAP_SYS_PTRACE).
Attachment attachPid(long Pid) {
  char Dir[64];
  std::snprintf(Dir, sizeof(Dir), "/proc/%ld/fd", Pid);
  DIR *D = ::opendir(Dir);
  if (D == nullptr)
    die("cannot read %s (is the pid right, and yours?)", Dir);
  char Found[320] = "";
  while (dirent *E = ::readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    char LinkPath[320], Target[256];
    std::snprintf(LinkPath, sizeof(LinkPath), "/proc/%ld/fd/%s", Pid,
                  E->d_name);
    const ssize_t N = ::readlink(LinkPath, Target, sizeof(Target) - 1);
    if (N <= 0)
      continue;
    Target[N] = '\0';
    if (std::strstr(Target, "memfd:lfm-shmstats") != nullptr) {
      std::memcpy(Found, LinkPath, std::strlen(LinkPath) + 1);
      break;
    }
  }
  ::closedir(D);
  if (Found[0] == '\0')
    die("pid %s has no lfm-shmstats memfd (target needs LFM_SHM_STATS=1; "
        "file-backed segments attach with --segment <path>)",
        Dir + 6); // Skip "/proc/" for the message.
  return attachFile(Found, Pid);
}

/// --core attach: scan every PT_LOAD segment's file bytes for the magic
/// and keep the candidate whose stable frame has the highest epoch. The
/// segment is a shared mapping, which default coredump_filter settings
/// (bits 0x3) include in full.
Attachment attachCore(const char *Path) {
  const int Fd = ::open(Path, O_RDONLY);
  if (Fd < 0)
    die("cannot open %s", Path);
  struct stat St{};
  if (::fstat(Fd, &St) != 0 || St.st_size < (off_t)sizeof(Elf64_Ehdr))
    die("cannot stat %s (or not a core file)", Path);
  const std::size_t Len = static_cast<std::size_t>(St.st_size);
  const void *Map = ::mmap(nullptr, Len, PROT_READ, MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Map == MAP_FAILED)
    die("cannot map %s", Path);
  const auto *Bytes = static_cast<const unsigned char *>(Map);
  const auto *Eh = reinterpret_cast<const Elf64_Ehdr *>(Bytes);
  if (std::memcmp(Eh->e_ident, ELFMAG, SELFMAG) != 0 ||
      Eh->e_ident[EI_CLASS] != ELFCLASS64 || Eh->e_type != ET_CORE)
    die("%s is not an ELF64 core file", Path);
  const unsigned char *Best = nullptr;
  std::uint64_t BestEpoch = 0;
  std::size_t BestLen = 0;
  for (unsigned I = 0; I < Eh->e_phnum; ++I) {
    const auto *Ph = reinterpret_cast<const Elf64_Phdr *>(
        Bytes + Eh->e_phoff + static_cast<std::size_t>(I) * Eh->e_phentsize);
    if (Ph->p_type != PT_LOAD || Ph->p_filesz == 0)
      continue;
    if (Ph->p_offset + Ph->p_filesz > Len)
      continue; // Clipped core; skip rather than read past the file.
    const unsigned char *Seg = Bytes + Ph->p_offset;
    const std::size_t SegLen = static_cast<std::size_t>(Ph->p_filesz);
    for (std::size_t Off = 0; Off + sizeof(std::uint64_t) <= SegLen;
         Off += 4096) {
      std::uint64_t Word;
      std::memcpy(&Word, Seg + Off, sizeof(Word));
      if (Word != shmstats::Magic)
        continue;
      shmstats::Frame F;
      const shmstats::ReadStatus S =
          shmstats::readLatestFrame(Seg + Off, SegLen - Off, F, false);
      if (S == shmstats::ReadStatus::Ok && F.Epoch >= BestEpoch) {
        Best = Seg + Off;
        BestEpoch = F.Epoch;
        BestLen = SegLen - Off;
      }
    }
  }
  if (Best == nullptr)
    die("no stable lfm-shmstats-v2 segment found in %s (was the target "
        "running with LFM_SHM_STATS, and did it ever publish?)",
        Path);
  Attachment A;
  A.Buf = Best;
  A.Len = BestLen;
  A.Live = false;
  return A;
}

/// Target resident set in bytes via /proc (0 when unknown/not attached by
/// pid) — the one gauge the segment cannot carry itself.
std::uint64_t targetRssBytes(long Pid) {
  if (Pid < 0)
    return 0;
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/proc/%ld/statm", Pid);
  std::FILE *F = std::fopen(Path, "r");
  if (F == nullptr)
    return 0;
  unsigned long long Size = 0, Rss = 0;
  const int N = std::fscanf(F, "%llu %llu", &Size, &Rss);
  std::fclose(F);
  if (N != 2)
    return 0;
  return Rss * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

const shmstats::Segment *segment(const Attachment &A) {
  return static_cast<const shmstats::Segment *>(A.Buf);
}

/// Looks a counter up by its wire name (the tool has no compiled-in enum
/// knowledge; the segment is self-describing). 0 when absent.
std::uint64_t counterOr0(const shmstats::Segment *S, const shmstats::Frame &F,
                         const char *Name) {
  for (unsigned C = 0; C < S->H.NumCounters; ++C)
    if (std::strncmp(S->N.CounterNames[C], Name, shmstats::NameCap) == 0)
      return F.P.Counters[C];
  return 0;
}

bool sectionIs(const shmstats::Segment *S, unsigned I, const char *Section) {
  return std::strncmp(S->N.ScalarSections[I], Section, shmstats::NameCap) == 0;
}

telemetry::ScalarType scalarType(const shmstats::Segment *S, unsigned I) {
  return static_cast<telemetry::ScalarType>(S->N.ScalarTypes[I]);
}

// ---------------------------------------------------------------- JSON --

using Json = telemetry::JsonWriter;

/// Opens object \p Key and writes every scalar of \p Section from the
/// segment's table into it, typed as the allocator's metrics JSON types
/// it. The caller closes the object.
void jsonSection(Json &W, const shmstats::Segment *S, const shmstats::Frame &F,
                 const char *Key, const char *Section) {
  W.key(Key);
  W.beginObject();
  for (unsigned I = 0; I < S->H.NumScalars; ++I)
    if (sectionIs(S, I, Section))
      W.field(S->N.ScalarKeys[I], scalarType(S, I), F.P.Scalars[I]);
}

void emitJson(const Attachment &A, const shmstats::Frame &F) {
  const shmstats::Segment *S = segment(A);
  const shmstats::Payload &P = F.P;
  Json W(stdout);
  W.beginObject();
  W.field("schema", "lfm-top-v1");
  W.field("source", A.Live ? "live" : "static");
  W.key("segment");
  W.beginObject();
  W.field("pid", std::uint64_t{S->H.Pid});
  W.field("start_wall_ns", S->H.StartWallNs);
  W.field("publishes", F.Epoch);
  W.field("bytes", std::uint64_t{shmstats::SegmentBytes});
  W.endObject();
  W.key("frame");
  W.beginObject();
  W.field("epoch", F.Epoch);
  W.field("wall_ns", F.WallNs);
  W.field("mono_ns", F.MonoNs);
  W.endObject();
  W.field("rss_bytes", targetRssBytes(A.Pid));

  W.key("counters");
  W.beginObject();
  for (unsigned C = 0; C < S->H.NumCounters; ++C)
    W.field(S->N.CounterNames[C], P.Counters[C]);
  W.endObject();

  jsonSection(W, S, F, "space", "space");
  W.endObject();

  // The Prometheus gauge view of the unprefixed families (config echo and
  // subsystem gauges), numbers only, as lfm-top-v1 has always shown it.
  W.key("gauges");
  W.beginObject();
  constexpr auto Gauge = static_cast<std::uint8_t>(telemetry::PromKind::Gauge);
  for (unsigned I = 0; I < S->H.NumScalars; ++I)
    if ((sectionIs(S, I, "config") || sectionIs(S, I, "gauges")) &&
        S->N.ScalarProm[I] == Gauge)
      W.field(S->N.ScalarKeys[I], P.Scalars[I]);
  W.endObject();

  jsonSection(W, S, F, "latency", "latency");
  W.key("paths");
  W.beginObject();
  for (unsigned I = 0; I < S->H.NumLatencyPaths; ++I) {
    const telemetry::LatencyPathStats &L = P.Latency[I];
    W.key(S->N.LatencyPathNames[I]);
    W.beginObject();
    W.field("count", L.Count);
    W.field("sum_ns", L.SumNs);
    W.field("max_ns", L.MaxNs);
    W.field("p50_upper_ns", L.P50UpperNs);
    W.field("p99_upper_ns", L.P99UpperNs);
    W.field("p999_upper_ns", L.P999UpperNs);
    W.endObject();
  }
  W.endObject();
  W.endObject();

  jsonSection(W, S, F, "contention", "contention");
  W.key("sites");
  W.beginObject();
  for (unsigned I = 0; I < S->H.NumContentionSites; ++I) {
    const telemetry::ContentionSiteStats &C = P.Contention[I];
    W.key(S->N.ContentionSiteNames[I]);
    W.beginObject();
    W.field("count", C.Count);
    W.field("retries_sum", C.RetriesSum);
    W.field("retries_max", C.RetriesMax);
    W.field("retries_p50", C.RetriesP50);
    W.field("retries_p99", C.RetriesP99);
    W.field("loop_p99_upper_ns", C.LoopP99UpperNs);
    W.endObject();
  }
  W.endObject();
  // lfm-top-v1's "heat" is the top-K list, so the heat-table scalars go
  // beside it as "heat_table".
  W.key("heat");
  W.beginArray();
  for (std::uint64_t I = 0; I < P.ContentionHeatCount; ++I) {
    const shmstats::HeatEntry &H = P.ContentionHeat[I];
    W.beginObject();
    W.field("sb", H.Sb);
    W.field("class", H.Class);
    W.field("retries", H.Retries);
    W.endObject();
  }
  W.endArray();
  jsonSection(W, S, F, "heat_table", "contention.heat");
  W.endObject();
  jsonSection(W, S, F, "watchdog", "contention.watchdog");
  W.endObject();
  W.endObject();

  jsonSection(W, S, F, "shmstats", "shmstats");
  W.endObject();
  jsonSection(W, S, F, "config", "config");
  W.endObject();
  W.endObject();
  W.newline();
}

// ---------------------------------------------------------------- text --

void fmtBytes(std::uint64_t B, char *Out, std::size_t Cap) {
  const char *Units[] = {"B", "K", "M", "G", "T"};
  double V = static_cast<double>(B);
  unsigned U = 0;
  while (V >= 1024.0 && U < 4) {
    V /= 1024.0;
    ++U;
  }
  std::snprintf(Out, Cap, U == 0 ? "%.0f%s" : "%.1f%s", V, Units[U]);
}

void fmtCount(double V, char *Out, std::size_t Cap) {
  if (V >= 1e9)
    std::snprintf(Out, Cap, "%.2fG", V / 1e9);
  else if (V >= 1e6)
    std::snprintf(Out, Cap, "%.2fM", V / 1e6);
  else if (V >= 1e3)
    std::snprintf(Out, Cap, "%.1fk", V / 1e3);
  else
    std::snprintf(Out, Cap, "%.0f", V);
}

/// Formats one scalar for the text view: byte-sized keys in binary units
/// (~0, the "no limit" watermark, as unbounded), bools as yes/no, the
/// policy by name.
void fmtScalar(const shmstats::Segment *S, unsigned I, std::uint64_t V,
               char *Out, std::size_t Cap) {
  switch (scalarType(S, I)) {
  case telemetry::ScalarType::Bool:
    std::snprintf(Out, Cap, "%s", V ? "yes" : "no");
    return;
  case telemetry::ScalarType::I64:
    std::snprintf(Out, Cap, "%" PRId64, static_cast<std::int64_t>(V));
    return;
  case telemetry::ScalarType::Policy:
    std::snprintf(Out, Cap, "%s", V ? "fifo" : "lifo");
    return;
  case telemetry::ScalarType::U64:
    break;
  }
  if (std::strstr(S->N.ScalarKeys[I], "bytes") == nullptr)
    std::snprintf(Out, Cap, "%" PRIu64, V);
  else if (V == ~std::uint64_t{0})
    std::snprintf(Out, Cap, "unbounded");
  else
    fmtBytes(V, Out, Cap);
}

/// One line group per scalar section: "<section> key value ..." for the
/// section's non-zero scalars, wrapped at roughly 100 columns. Sections
/// with nothing to show print nothing.
void textScalars(const shmstats::Segment *S, const shmstats::Frame &F) {
  int Col = 0; // 0: no line open for the current section.
  for (unsigned I = 0; I < S->H.NumScalars; ++I) {
    const char *Section = S->N.ScalarSections[I];
    if (Col > 0 && !sectionIs(S, I - 1, Section)) {
      std::printf("\n");
      Col = 0;
    }
    if (F.P.Scalars[I] == 0)
      continue;
    char V[32];
    fmtScalar(S, I, F.P.Scalars[I], V, sizeof(V));
    const int Need =
        static_cast<int>(std::strlen(S->N.ScalarKeys[I]) + std::strlen(V)) + 2;
    if (Col == 0)
      Col = std::printf("%-19s", Section);
    else if (Col + Need > 100)
      Col = std::printf("\n%-19s", "") - 1;
    Col += std::printf(" %s %s", S->N.ScalarKeys[I], V);
  }
  if (Col > 0)
    std::printf("\n");
}

/// One human-readable refresh. \p Prev (epoch > 0) enables rate columns.
void emitText(const Attachment &A, const shmstats::Frame &F,
              const shmstats::Frame &Prev) {
  const shmstats::Segment *S = segment(A);
  const shmstats::Payload &P = F.P;
  const bool HaveRates = Prev.Epoch > 0 && F.MonoNs > Prev.MonoNs;
  const double Dt =
      HaveRates ? static_cast<double>(F.MonoNs - Prev.MonoNs) / 1e9 : 0.0;

  const std::uint64_t AgeNs =
      nowWallNs() > F.WallNs ? nowWallNs() - F.WallNs : 0;
  std::printf("lfm-top  pid %u  epoch %" PRIu64 "  published %.1fs ago  "
              "segment %zu bytes%s\n",
              S->H.Pid, F.Epoch, static_cast<double>(AgeNs) / 1e9,
              shmstats::SegmentBytes, A.Live ? "" : "  [post-mortem]");

  const std::uint64_t Mallocs = counterOr0(S, F, "mallocs");
  const std::uint64_t Frees = counterOr0(S, F, "frees");
  char B1[32], B2[32], B3[32], B4[32];
  fmtCount(static_cast<double>(Mallocs), B1, sizeof(B1));
  fmtCount(static_cast<double>(Frees), B2, sizeof(B2));
  std::printf("ops      mallocs %-10s frees %-10s", B1, B2);
  if (HaveRates) {
    const std::uint64_t PM = counterOr0(S, Prev, "mallocs");
    const std::uint64_t PF = counterOr0(S, Prev, "frees");
    fmtCount((static_cast<double>(Mallocs - PM)) / Dt, B3, sizeof(B3));
    fmtCount((static_cast<double>(Frees - PF)) / Dt, B4, sizeof(B4));
    std::printf("  rate %s/s malloc, %s/s free", B3, B4);
  }
  std::printf("\n");
  if (A.Pid >= 0) {
    fmtBytes(targetRssBytes(A.Pid), B1, sizeof(B1));
    std::printf("process  rss %s\n", B1);
  }

  textScalars(S, F);

  bool AnyPath = false;
  for (unsigned I = 0; I < S->H.NumLatencyPaths; ++I)
    AnyPath |= P.Latency[I].Count != 0;
  if (AnyPath) {
    std::printf("latency  %-22s %10s %9s %9s %9s\n", "path", "count", "p50ns",
                "p99ns", "p999ns");
    for (unsigned I = 0; I < S->H.NumLatencyPaths; ++I) {
      const telemetry::LatencyPathStats &L = P.Latency[I];
      if (L.Count == 0)
        continue;
      std::printf("         %-22s %10" PRIu64 " %9" PRIu64 " %9" PRIu64
                  " %9" PRIu64 "\n",
                  S->N.LatencyPathNames[I], L.Count, L.P50UpperNs, L.P99UpperNs,
                  L.P999UpperNs);
    }
  }

  bool AnySite = false;
  for (unsigned I = 0; I < S->H.NumContentionSites; ++I)
    AnySite |= P.Contention[I].Count != 0;
  if (AnySite) {
    std::printf("cas      %-22s %10s %9s %12s\n", "site", "count", "ret-p99",
                "loop-p99ns");
    for (unsigned I = 0; I < S->H.NumContentionSites; ++I) {
      const telemetry::ContentionSiteStats &C = P.Contention[I];
      if (C.Count == 0)
        continue;
      std::printf("         %-22s %10" PRIu64 " %9" PRIu64 " %12" PRIu64 "\n",
                  S->N.ContentionSiteNames[I], C.Count, C.RetriesP99,
                  C.LoopP99UpperNs);
    }
  }
  for (std::uint64_t I = 0; I < P.ContentionHeatCount; ++I) {
    const shmstats::HeatEntry &H = P.ContentionHeat[I];
    std::printf("heat     sb 0x%-14" PRIx64 " class %-3" PRIu64
                " retries %" PRIu64 "\n",
                H.Sb, H.Class, H.Retries);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(1);
      return Argv[++I];
    };
    if (std::strcmp(A, "--pid") == 0 || std::strcmp(A, "-p") == 0)
      Opt.Pid = std::strtol(Next(), nullptr, 10);
    else if (std::strcmp(A, "--segment") == 0 || std::strcmp(A, "-s") == 0)
      Opt.SegmentPath = Next();
    else if (std::strcmp(A, "--core") == 0 || std::strcmp(A, "-c") == 0)
      Opt.CorePath = Next();
    else if (std::strcmp(A, "--once") == 0 || std::strcmp(A, "-1") == 0)
      Opt.Once = true;
    else if (std::strcmp(A, "--json") == 0 || std::strcmp(A, "-j") == 0)
      Opt.Json = true;
    else if (std::strcmp(A, "--interval") == 0 || std::strcmp(A, "-i") == 0)
      Opt.IntervalMs = std::strtoull(Next(), nullptr, 10);
    else if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0)
      usage(0);
    else
      usage(1);
  }
  const int Sources = (Opt.Pid >= 0) + (Opt.SegmentPath != nullptr) +
                      (Opt.CorePath != nullptr);
  if (Sources != 1)
    usage(1);
  if (Opt.Json)
    Opt.Once = true; // JSON is a scripting snapshot, not a watch UI.
  if (Opt.CorePath != nullptr)
    Opt.Once = true; // A core has exactly one final frame.
  if (Opt.IntervalMs == 0)
    Opt.IntervalMs = 1000;

  Attachment A;
  if (Opt.Pid >= 0)
    A = attachPid(Opt.Pid);
  else if (Opt.SegmentPath != nullptr)
    A = attachFile(Opt.SegmentPath, -1);
  else
    A = attachCore(Opt.CorePath);

  shmstats::Frame Prev{};
  for (;;) {
    shmstats::Frame F;
    const shmstats::ReadStatus S =
        shmstats::readLatestFrame(A.Buf, A.Len, F, A.Live);
    if (S != shmstats::ReadStatus::Ok)
      die("cannot read segment: %s", shmstats::readStatusName(S));
    if (Opt.Json) {
      emitJson(A, F);
    } else {
      if (!Opt.Once)
        std::printf("\033[H\033[2J"); // Clear like top(1).
      emitText(A, F, Prev);
      std::fflush(stdout);
    }
    if (Opt.Once)
      break;
    Prev = F;
    timespec Ts{};
    Ts.tv_sec = static_cast<time_t>(Opt.IntervalMs / 1000);
    Ts.tv_nsec = static_cast<long>((Opt.IntervalMs % 1000) * 1000000ull);
    nanosleep(&Ts, nullptr);
  }
  return 0;
}
