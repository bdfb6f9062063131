#include "mem/eviction.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "check/check.hpp"

namespace uvmsim {

ChunkNum LruEviction::pick(const std::vector<ChunkNum>& candidates, const BlockTable& table,
                           const AccessCounterTable& /*counters*/) const {
  ChunkNum best = candidates.front();
  Cycle best_ts = std::numeric_limits<Cycle>::max();
  for (ChunkNum c : candidates) {
    const Cycle ts = table.chunk(c).last_access;
    if (ts < best_ts) {
      best_ts = ts;
      best = c;
    }
  }
  return best;
}

std::uint64_t LfuEviction::chunk_frequency(ChunkNum c, const BlockTable& table,
                                           const AccessCounterTable& counters) {
  std::uint64_t total = 0;
  table.for_each_resident_block(c, [&](BlockNum b) {
    total += counters.range_count(addr_of_block(b), kBasicBlockSize);
  });
  return total;
}

ChunkNum LfuEviction::pick(const std::vector<ChunkNum>& candidates, const BlockTable& table,
                           const AccessCounterTable& counters) const {
  // Order: lowest frequency first; read-only (never written) before written;
  // then least recently used. The recency tie-break is what makes the policy
  // collapse to LRU when frequencies are uniform (regular applications).
  using Key = std::tuple<std::uint64_t, bool, Cycle>;
  ChunkNum best = candidates.front();
  Key best_key{std::numeric_limits<std::uint64_t>::max(), true,
               std::numeric_limits<Cycle>::max()};
  for (ChunkNum c : candidates) {
    const ChunkResidency& cr = table.chunk(c);
    Key key{chunk_frequency(c, table, counters), cr.written_ever, cr.last_access};
    if (key < best_key) {
      best_key = key;
      best = c;
    }
  }
  return best;
}

void tree_eviction_subtree_into(ChunkNum c, const BlockTable& table,
                                std::vector<BlockNum>& out) {
  // LRU block among the chunk's resident blocks.
  BlockNum lru = 0;
  Cycle lru_ts = std::numeric_limits<Cycle>::max();
  table.for_each_resident_block(c, [&](BlockNum b) {
    if (table.block_last_access(b) < lru_ts) {
      lru_ts = table.block_last_access(b);
      lru = b;
    }
  });
  if (lru_ts == std::numeric_limits<Cycle>::max()) return;

  // Grow the subtree around the LRU leaf while it stays fully resident.
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t device = table.masks(c).device;
  const auto leaf = static_cast<std::uint32_t>(lru - first);
  std::uint32_t best_lo = leaf, best_size = 1;
  for (std::uint32_t size = 2; size <= table.chunk_num_blocks(c); size <<= 1) {
    const std::uint32_t lo = leaf / size * size;
    const std::uint32_t span = low_bits(size) << lo;
    if ((device & span) != span) break;
    best_lo = lo;
    best_size = size;
  }

  out.reserve(out.size() + best_size);
  for (std::uint32_t i = best_lo; i < best_lo + best_size; ++i) out.push_back(first + i);
}

std::vector<BlockNum> tree_eviction_subtree(ChunkNum c, const BlockTable& table) {
  std::vector<BlockNum> out;
  tree_eviction_subtree_into(c, table, out);
  return out;
}

std::unique_ptr<EvictionPolicy> make_eviction_policy(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kLru:
    case EvictionKind::kTree:  // tree mode reuses LRU chunk selection
      return std::make_unique<LruEviction>();
    case EvictionKind::kLfu:
      return std::make_unique<LfuEviction>();
  }
  return nullptr;
}

EvictionManager::EvictionManager(EvictionKind kind, std::uint64_t granularity_bytes,
                                 bool splinter_on_evict)
    : policy_(make_eviction_policy(kind)),
      kind_(kind),
      granularity_(granularity_bytes),
      splinter_on_evict_(splinter_on_evict) {}

void EvictionManager::attach_index(BlockTable& table, AccessCounterTable& counters) {
  index_.attach(&table, &counters);
  table.set_eviction_index(&index_);
  counters.set_eviction_index(&index_);
}

std::vector<BlockNum> EvictionManager::select_victims_reference(
    const BlockTable& table, const AccessCounterTable& counters,
    const VictimQuery& q) const {
  // Gather candidate chunks: resident blocks present, not the faulting
  // chunk, and (preferably) not under active access by scheduled warps.
  const Cycle cutoff =
      q.now > q.protect_window ? q.now - q.protect_window : 0;
  std::vector<ChunkNum> full, partial, busy_full, busy_partial;
  for (ChunkNum c = 0; c < table.num_chunks(); ++c) {
    if (q.has_faulting_chunk && c == q.faulting_chunk) continue;
    if (table.masks(c).device == 0) continue;
    const bool busy = q.protect_window != 0 && table.chunk(c).last_access >= cutoff;
    const bool fully = table.chunk_fully_resident(c);
    (fully ? (busy ? busy_full : full) : (busy ? busy_partial : partial)).push_back(c);
  }

  const std::vector<ChunkNum>& pool = !full.empty()      ? full
                                      : !partial.empty() ? partial
                                      : !busy_full.empty() ? busy_full
                                                           : busy_partial;
  if (pool.empty()) return {};
  const ChunkNum victim = policy_->pick(pool, table, counters);
  UVM_CHECK(table.resident_blocks(victim) > 0,
            "EvictionManager: policy " << policy_->name() << " picked chunk "
                << victim << " with no resident blocks");
  UVM_CHECK(!q.has_faulting_chunk || victim != q.faulting_chunk,
            "EvictionManager: policy " << policy_->name()
                << " picked the faulting chunk " << victim);

  std::vector<BlockNum> out;
  emit_victims(victim, table, counters, out);
  return out;
}

ChunkNum EvictionManager::pick_fast(const BlockTable& table,
                                    const AccessCounterTable& /*counters*/,
                                    const VictimQuery& q) const {
  const Cycle cutoff = q.now > q.protect_window ? q.now - q.protect_window : 0;
  const bool protect = q.protect_window != 0;

  if (kind_ != EvictionKind::kLfu) {
    // LRU (and tree, which reuses the LRU chunk pick): the list order IS the
    // LRU key order, so the first list entry of the highest-priority class
    // wins. Busy chunks (last_access >= cutoff) form a suffix of the sorted
    // list, which lets the walk stop as soon as a class is decided.
    ChunkNum first_partial = kNilChunk;
    ChunkNum first_busy_partial = kNilChunk;
    for (ChunkNum c = index_.head(); c != kNilChunk; c = index_.next_of(c)) {
      if (q.has_faulting_chunk && c == q.faulting_chunk) continue;
      const bool busy = protect && table.chunk(c).last_access >= cutoff;
      if (!busy) {
        if (table.chunk_fully_resident(c)) return c;  // minimal full non-busy
        if (first_partial == kNilChunk) first_partial = c;
      } else {
        // Entering the busy suffix finalizes the non-busy classes.
        if (first_partial != kNilChunk) return first_partial;
        if (table.chunk_fully_resident(c)) return c;  // minimal busy full
        if (first_busy_partial == kNilChunk) first_busy_partial = c;
      }
    }
    return first_partial != kNilChunk ? first_partial : first_busy_partial;
  }

  // LFU: one linear sweep over the chunk array with O(1) aggregate lookups,
  // tracking the best key per candidate class. This replays the reference
  // scan's ascending-chunk iteration and strict-< key compare verbatim (so
  // ties resolve to the lowest chunk exactly like the reference), but the
  // per-candidate range_count sweep collapses to the running frequency, and
  // the sequential membership/residency reads are prefetcher-friendly —
  // unlike a pointer-chase through the recency list.
  using Key = std::tuple<std::uint64_t, bool, Cycle>;
  constexpr Key kMaxKey{std::numeric_limits<std::uint64_t>::max(), true,
                        std::numeric_limits<Cycle>::max()};
  ChunkNum best[4] = {kNilChunk, kNilChunk, kNilChunk, kNilChunk};
  Key best_key[4] = {kMaxKey, kMaxKey, kMaxKey, kMaxKey};
  const ChunkNum n = table.num_chunks();
  for (ChunkNum c = 0; c < n; ++c) {
    if (!index_.in_list(c)) continue;
    if (q.has_faulting_chunk && c == q.faulting_chunk) continue;
    const ChunkResidency& cr = table.chunk(c);
    const bool busy = protect && cr.last_access >= cutoff;
    const bool fully = table.chunk_fully_resident(c);
    const int cls = fully ? (busy ? 2 : 0) : (busy ? 3 : 1);
    const Key key{index_.frequency(c), cr.written_ever, cr.last_access};
    if (key < best_key[cls]) {
      best_key[cls] = key;
      best[cls] = c;
    }
  }
  for (const ChunkNum c : best) {
    if (c != kNilChunk) return c;
  }
  return kNilChunk;
}

void EvictionManager::emit_victims(ChunkNum victim, const BlockTable& table,
                                   const AccessCounterTable& counters,
                                   std::vector<BlockNum>& out) const {
  // A coalesced victim chunk is one 2 MB mapping: unless the configuration
  // splinters it first, it leaves device memory atomically — every resident
  // block, regardless of the tree subtree or the 64 KB granularity below.
  // Checked before the tree/granularity paths so neither can emit a partial
  // set out of a huge mapping.
  if (!splinter_on_evict_ && table.chunk_coalesced(victim)) {
    out.reserve(out.size() + table.resident_blocks(victim));
    table.for_each_resident_block(victim, [&](BlockNum b) { out.push_back(b); });
    return;
  }

  if (kind_ == EvictionKind::kTree) {
    tree_eviction_subtree_into(victim, table, out);
    if (!out.empty()) return;
  }

  if (granularity_ == kLargePageSize || table.resident_blocks(victim) <= 1) {
    out.reserve(out.size() + table.resident_blocks(victim));
    table.for_each_resident_block(victim, [&](BlockNum b) { out.push_back(b); });
    return;
  }

  // 64 KB eviction granularity: evict only the coldest block of the chunk.
  BlockNum coldest = kNilChunk;
  std::uint64_t coldest_cnt = std::numeric_limits<std::uint64_t>::max();
  Cycle coldest_ts = std::numeric_limits<Cycle>::max();
  table.for_each_resident_block(victim, [&](BlockNum b) {
    const std::uint64_t cnt = counters.range_count(addr_of_block(b), kBasicBlockSize);
    const Cycle ts = table.block_last_access(b);
    if (std::tie(cnt, ts) < std::tie(coldest_cnt, coldest_ts)) {
      coldest_cnt = cnt;
      coldest_ts = ts;
      coldest = b;
    }
  });
  if (coldest != kNilChunk) out.push_back(coldest);
}

std::vector<BlockNum> EvictionManager::select_victims(const BlockTable& table,
                                                      const AccessCounterTable& counters,
                                                      const VictimQuery& q) const {
  std::vector<BlockNum> out;
  select_victims_into(table, counters, q, out);
  return out;
}

void EvictionManager::select_victims_into(const BlockTable& table,
                                          const AccessCounterTable& counters,
                                          const VictimQuery& q,
                                          std::vector<BlockNum>& out) const {
  out.clear();
  if (!index_.attached_to(&table, &counters)) {
    // Hand-built tables (tests, standalone tooling) have no index feeding
    // them mutation hooks: fall back to the reference scan.
    out = select_victims_reference(table, counters, q);
    return;
  }
  const ChunkNum victim = pick_fast(table, counters, q);
  if (victim == kNilChunk) return;
  UVM_CHECK(table.resident_blocks(victim) > 0,
            "EvictionManager: policy " << policy_->name() << " picked chunk "
                << victim << " with no resident blocks");
  UVM_CHECK(!q.has_faulting_chunk || victim != q.faulting_chunk,
            "EvictionManager: policy " << policy_->name()
                << " picked the faulting chunk " << victim);
  emit_victims(victim, table, counters, out);
}

}  // namespace uvmsim
