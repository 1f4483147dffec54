//===- profiling/HeapTopology.cpp - Topology JSON serialization -----------===//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "profiling/HeapTopology.h"

#include "telemetry/JsonWriter.h"

using namespace lfm;
using namespace lfm::profiling;

const char *lfm::profiling::sbStateLabel(std::uint8_t State) {
  switch (State) {
  case 0:
    return "active";
  case 1:
    return "full";
  case 2:
    return "partial";
  case 3:
    return "empty";
  default:
    return "invalid";
  }
}

void lfm::profiling::writeTopologyJson(const TopologySnapshot &T,
                                       const SbMapEntry *Map,
                                       std::size_t MapCount,
                                       std::uint64_t TruncatedCount,
                                       std::FILE *Out) {
  telemetry::JsonWriter W(Out);
  W.beginObject();
  W.field("schema", "lfm-heaptopology-v1");
  W.key("config");
  W.beginObject();
  W.field("superblock_bytes", std::uint64_t{T.SuperblockBytes});
  W.field("class_count", std::uint64_t{T.ClassCount});
  W.field("profiler_attached", T.ProfilerAttached);
  W.field("retain_max_bytes", T.RetainMaxBytes);
  W.field("retain_decay_ms", T.RetainDecayMs);
  W.endObject();

  W.key("space");
  W.beginObject();
  W.field("bytes_in_use", T.Space.BytesInUse);
  W.field("peak_bytes", T.Space.PeakBytes);
  W.field("map_calls", T.Space.MapCalls);
  W.field("unmap_calls", T.Space.UnmapCalls);
  W.endObject();

  // The large-object backend's spans sit outside the superblock
  // topology below; this section is their whole footprint story.
  W.key("large_backend");
  W.beginObject();
  W.field("kind", T.LargeBackendState.Buddy ? "buddy" : "os");
  W.field("spans_reserved", T.LargeBackendState.SpansReserved);
  W.field("span_bytes", T.LargeBackendState.SpanBytes);
  W.field("bytes_reserved", T.LargeBackendState.BytesReserved);
  W.field("bytes_committed", T.LargeBackendState.BytesCommitted);
  W.field("bytes_allocated", T.LargeBackendState.BytesAllocated);
  W.field("free_committed_bytes", T.LargeBackendState.FreeCommittedBytes);
  W.field("min_order_bytes", T.LargeBackendState.MinOrderBytes);
  W.key("free_bytes_by_order");
  W.beginArray();
  for (std::uint64_t O = 0; O < T.LargeBackendState.NumOrders; ++O)
    W.value(T.LargeBackendState.FreeBytesByOrder[O]);
  W.endArray();
  W.endObject();

  W.key("totals");
  W.beginObject();
  W.field("superblocks", T.TotalSuperblocks);
  W.field("blocks", T.TotalBlocks);
  W.field("used_blocks", T.TotalUsedBlocks);
  W.field("tcache_cached_blocks", T.TcacheCachedBlocks);
  W.field("cached_superblocks", T.CachedSuperblocks);
  W.field("retained_bytes", T.RetainedBytes);
  W.field("decommitted_superblocks", T.DecommittedSuperblocks);
  W.field("parked_hyperblocks", T.ParkedHyperblocks);
  W.field("descriptors_minted", T.DescriptorsMinted);
  W.field("ext_frag", T.externalFragRatio());
  if (T.ProfilerAttached)
    W.field("int_frag", T.internalFragRatio());
  W.endObject();

  W.key("classes");
  W.beginArray();
  for (unsigned C = 0; C < T.ClassCount; ++C) {
    const ClassTopology &Cl = T.Classes[C];
    W.beginObject();
    W.field("class", std::uint64_t{C});
    W.field("block_size", std::uint64_t{Cl.BlockSize});
    W.field("superblocks", Cl.Superblocks);
    W.key("states");
    W.beginObject();
    W.field("active", Cl.ActiveSbs);
    W.field("full", Cl.FullSbs);
    W.field("partial", Cl.PartialSbs);
    W.endObject();
    W.field("blocks", Cl.TotalBlocks);
    W.field("used_blocks", Cl.UsedBlocks);
    W.field("cached_blocks", Cl.CachedBlocks);
    W.field("free_blocks", Cl.freeBlocks());
    W.field("ext_frag", Cl.externalFragRatio(T.SuperblockBytes));
    if (T.ProfilerAttached && Cl.LiveEstBlockBytes != 0) {
      W.field("int_frag", Cl.internalFragRatio());
      W.field("live_est_req_bytes", Cl.LiveEstReqBytes);
      W.field("live_est_block_bytes", Cl.LiveEstBlockBytes);
    }
    W.key("occupancy_hist");
    W.beginArray();
    for (unsigned B = 0; B < TopoOccBuckets; ++B)
      W.value(Cl.OccHist[B]);
    W.endArray();
    W.endObject();
  }
  W.endArray();

  if (T.ProfilerAttached) {
    W.key("large");
    W.beginObject();
    W.field("live_est_req_bytes", T.LargeLiveEstReqBytes);
    W.field("live_est_block_bytes", T.LargeLiveEstBlockBytes);
    W.endObject();
  }

  W.key("heap_map");
  W.beginArray();
  char Addr[2 + 16 + 1];
  for (std::size_t I = 0; I < MapCount; ++I) {
    const SbMapEntry &E = Map[I];
    W.beginObject();
    std::snprintf(Addr, sizeof(Addr), "0x%llx",
                  static_cast<unsigned long long>(E.Addr));
    W.field("addr", static_cast<const char *>(Addr));
    W.field("block_size", std::uint64_t{E.BlockSize});
    W.field("state", sbStateLabel(E.State));
    W.field("used", std::uint64_t{E.Used});
    W.field("max", std::uint64_t{E.MaxCount});
    W.endObject();
  }
  W.endArray();
  W.field("heap_map_truncated", TruncatedCount);
  W.endObject();
  std::fputc('\n', Out);
}
