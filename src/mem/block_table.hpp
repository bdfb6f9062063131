// Per-basic-block (64 KB) migration state plus per-chunk (2 MB) residency
// aggregates. This is the driver-side page table abstraction: the unit of
// migration is the basic block; the unit of eviction is the large page.
//
// Chunk occupancy (docs/PERF.md "Chunk occupancy masks"): each chunk keeps
// two 32-bit leaf bitmaps, `device` (resident blocks) and `non_host`
// (resident or in-flight blocks), updated only by the three residence
// transitions. Every chunk scan — prefetch expansion, victim emission, the
// tree evictor, LFU aggregates, the full-residency gate — reads them instead
// of walking the chunk's blocks.
//
// Hot-path layout (see docs/PERF.md): block state is stored SoA — residence
// and the four status flags packed into one byte per block, with last-access
// cycles and round-trip counts in parallel arrays — so the access/eviction
// paths that scan residence or recency touch one dense byte/word array
// instead of striding over ~24-byte AoS records. `block()` materializes a
// BlockState snapshot for cold paths (audits, tests, diagnostics); hot code
// uses the per-field accessors.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "check/check.hpp"
#include "mem/address_space.hpp"
#include "mem/eviction_index.hpp"
#include "sim/types.hpp"

namespace uvmsim {

/// A by-value snapshot of one block's state (see BlockTable::block).
struct BlockState {
  Residence residence = Residence::kHost;
  bool dirty = false;         ///< written while device-resident (needs writeback)
  bool dirty_on_arrival = false;  ///< a write is waiting on the in-flight migration
  bool written_ever = false;  ///< block has ever been written by the GPU
  bool thrashed_once = false; ///< has been re-migrated after an eviction
  std::uint32_t round_trips = 0;  ///< number of evictions suffered (r)
  Cycle last_access = 0;
};

struct ChunkResidency {
  Cycle last_access = 0;       ///< LRU key: most recent access to any block
  Cycle migrated_at = 0;       ///< when the chunk first became (partly) resident
  bool written_ever = false;   ///< any block in chunk ever written
};

/// Occupancy bitmaps of one chunk: bit i stands for block
/// `first_block_of_chunk(c) + i`. Bits at or above the chunk's mapped block
/// count are never set.
struct ChunkMasks {
  std::uint32_t device = 0;    ///< device-resident blocks
  std::uint32_t non_host = 0;  ///< device-resident or in-flight blocks
};

/// Bitmap of the low `n` leaves (n <= 32).
[[nodiscard]] constexpr std::uint32_t low_bits(std::uint32_t n) noexcept {
  return n >= 32 ? ~0u : (1u << n) - 1u;
}

/// Call `fn(i)` for every set bit i of `mask`, in ascending order.
template <typename Fn>
void for_each_bit(std::uint32_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) fn(static_cast<std::uint32_t>(std::countr_zero(mask)));
}

class BlockTable {
 public:
  static_assert(kBlocksPerLargePage == 32, "chunk masks hold one bit per block of a 2 MB chunk");

  explicit BlockTable(const AddressSpace& space);

  /// Snapshot of block `b`. Returns by value (the underlying storage is SoA);
  /// existing `const BlockState&` bindings keep working via lifetime
  /// extension. Hot paths should prefer the single-field accessors below.
  [[nodiscard]] BlockState block(BlockNum b) const noexcept {
    const std::uint8_t st = state_[b];
    BlockState s;
    s.residence = static_cast<Residence>(st & kResidenceMask);
    s.dirty = (st & kDirtyBit) != 0;
    s.dirty_on_arrival = (st & kDirtyOnArrivalBit) != 0;
    s.written_ever = (st & kWrittenEverBit) != 0;
    s.thrashed_once = (st & kThrashedOnceBit) != 0;
    s.round_trips = round_trips_[b];
    s.last_access = last_access_[b];
    return s;
  }

  [[nodiscard]] Residence residence(BlockNum b) const noexcept {
    return static_cast<Residence>(state_[b] & kResidenceMask);
  }
  [[nodiscard]] bool dirty(BlockNum b) const noexcept {
    return (state_[b] & kDirtyBit) != 0;
  }
  [[nodiscard]] std::uint32_t round_trips(BlockNum b) const noexcept {
    return round_trips_[b];
  }
  [[nodiscard]] Cycle block_last_access(BlockNum b) const noexcept {
    return last_access_[b];
  }

  [[nodiscard]] const ChunkResidency& chunk(ChunkNum c) const { return chunks_[c]; }
  [[nodiscard]] ChunkResidency& chunk(ChunkNum c) { return chunks_[c]; }

  [[nodiscard]] const ChunkMasks& masks(ChunkNum c) const noexcept { return masks_[c]; }
  /// Device-resident blocks of chunk `c`.
  [[nodiscard]] std::uint32_t resident_blocks(ChunkNum c) const noexcept {
    return static_cast<std::uint32_t>(std::popcount(masks_[c].device));
  }

  [[nodiscard]] BlockNum num_blocks() const noexcept { return last_access_.size(); }
  [[nodiscard]] ChunkNum num_chunks() const noexcept { return chunks_.size(); }
  /// Mapped blocks of chunk `c` (cached from the address space: this is on
  /// the full-residency fast path, tens of millions of calls per run).
  [[nodiscard]] std::uint32_t chunk_num_blocks(ChunkNum c) const noexcept {
    return chunk_nblocks_[c];
  }

  /// Record a GPU access to a resident or host block (recency bookkeeping).
  /// Inline: this is one of the handful of calls on the per-access fast path
  /// (docs/PERF.md), and the common read case is two stores plus the index
  /// reposition check. The chunk stamp happens before the index hook, so the
  /// hook's `now` is the chunk's new LRU key.
  void touch(BlockNum b, AccessType type, Cycle now) {
    last_access_[b] = now;
    ChunkResidency& c = chunks_[chunk_of_block(b)];
    c.last_access = now;
    if (type == AccessType::kWrite) {
      const std::uint8_t st = state_[b];
      const auto res = static_cast<Residence>(st & kResidenceMask);
      std::uint8_t next = st | kWrittenEverBit;
      if (res == Residence::kDevice) {
        next |= kDirtyBit;
      } else if (res == Residence::kInFlight) {
        // The write replays once the migration lands; the block arrives dirty.
        next |= kDirtyOnArrivalBit;
      }
      state_[b] = next;
      c.written_ever = true;
    }
    if (index_ != nullptr) index_->on_touch(b, now);
  }

  /// Latch dirty-on-arrival for an in-flight block whose triggering access
  /// was a write (the driver learns the access type after raising the fault).
  void set_dirty_on_arrival(BlockNum b) noexcept { state_[b] |= kDirtyOnArrivalBit; }

  /// Record that re-migrated block `b` has thrashed; returns true the first
  /// time (the distinct-pages counter increments exactly once per block).
  bool note_thrashed_once(BlockNum b) noexcept {
    const bool first = (state_[b] & kThrashedOnceBit) == 0;
    state_[b] |= kThrashedOnceBit;
    return first;
  }

  /// Transition `b` host -> in-flight (migration enqueued).
  void mark_in_flight(BlockNum b);
  /// Transition `b` in-flight -> device (migration arrived).
  void mark_resident(BlockNum b, Cycle now);
  /// Transition `b` device -> host (evicted); returns true if it was dirty.
  bool mark_evicted(BlockNum b);

  /// Visit the device-resident blocks of chunk `c` in ascending block order
  /// without materializing a vector (the eviction/audit hot path).
  template <typename Fn>
  void for_each_resident_block(ChunkNum c, Fn&& fn) const {
    const BlockNum first = first_block_of_chunk(c);
    for_each_bit(masks_[c].device, [&](std::uint32_t i) { fn(first + i); });
  }

  /// True when every mapped block of chunk `c` is resident. Zero-mapped
  /// chunks are never "fully resident" — there is nothing to map.
  [[nodiscard]] bool chunk_fully_resident(ChunkNum c) const noexcept {
    const std::uint32_t n = chunk_nblocks_[c];
    return n != 0 && masks_[c].device == low_bits(n);
  }

  /// Mapping granularity of chunk `c` (docs/GRANULARITY.md). Split is the
  /// paper's fixed per-block state; coalesced models one 2 MB mapping.
  [[nodiscard]] MappingGranularity granularity(ChunkNum c) const noexcept {
    return coalesced_[c] != 0 ? MappingGranularity::kCoalesced
                              : MappingGranularity::kSplit;
  }
  [[nodiscard]] bool chunk_coalesced(ChunkNum c) const noexcept {
    return coalesced_[c] != 0;
  }
  /// Chunks currently coalesced; O(1), maintained on every transition (the
  /// policy feature snapshot reads this per consultation).
  [[nodiscard]] std::uint64_t coalesced_chunks() const noexcept { return num_coalesced_; }

  /// Promote chunk `c` to a coalesced 2 MB mapping if the gates hold: fully
  /// resident and never written (the read-mostly heuristic — a written-ever
  /// chunk would splinter on its very next write anyway). Returns true on
  /// the split -> coalesced transition, false when any gate fails or the
  /// chunk is already coalesced. Pure state change: counters and TraceSink
  /// hooks are the caller's (driver's) job.
  bool try_coalesce(ChunkNum c);
  /// Demote chunk `c` back to per-block mappings. The chunk must be
  /// coalesced; the caller decides why (write sharing, partial eviction,
  /// atomic whole-chunk eviction) and accounts for it.
  void splinter(ChunkNum c);

  [[nodiscard]] const AddressSpace& space() const noexcept { return space_; }

  /// Wire the incremental eviction index that mirrors this table's residency
  /// and recency transitions (nullptr detaches). Owned by EvictionManager.
  void set_eviction_index(EvictionIndex* index) noexcept { index_ = index; }

  /// Fault injection for the auditor's negative tests: overwrite raw block
  /// state or a chunk's masks, bypassing transition checks, the other chunk
  /// aggregates and the eviction index. Never called by the simulator proper.
  void testonly_corrupt_residence(BlockNum b, Residence r) noexcept {
    state_[b] = static_cast<std::uint8_t>(
        (state_[b] & ~kResidenceMask) | static_cast<std::uint8_t>(r));
  }
  void testonly_corrupt_dirty(BlockNum b, bool dirty) noexcept {
    if (dirty)
      state_[b] |= kDirtyBit;
    else
      state_[b] &= static_cast<std::uint8_t>(~kDirtyBit);
  }
  void testonly_corrupt_masks(ChunkNum c, ChunkMasks m) noexcept { masks_[c] = m; }

 private:
  // Packed per-block state byte: residence enum in the low bits, flags above.
  static constexpr std::uint8_t kResidenceMask = 0x03;
  static constexpr std::uint8_t kDirtyBit = 0x04;
  static constexpr std::uint8_t kDirtyOnArrivalBit = 0x08;
  static constexpr std::uint8_t kWrittenEverBit = 0x10;
  static constexpr std::uint8_t kThrashedOnceBit = 0x20;
  static_assert(static_cast<std::uint8_t>(Residence::kHost) <= kResidenceMask &&
                    static_cast<std::uint8_t>(Residence::kInFlight) <= kResidenceMask &&
                    static_cast<std::uint8_t>(Residence::kDevice) <= kResidenceMask,
                "Residence must fit the packed state byte");

  /// Bit of block `b` in its chunk's masks.
  static std::uint32_t chunk_bit(BlockNum b) noexcept {
    return 1u << (b & (kBlocksPerLargePage - 1));
  }

  const AddressSpace& space_;
  std::vector<std::uint8_t> state_;        ///< packed residence + flags
  std::vector<Cycle> last_access_;         ///< recency, parallel to state_
  std::vector<std::uint32_t> round_trips_; ///< eviction count, parallel to state_
  std::vector<std::uint32_t> chunk_nblocks_;  ///< cached space_.chunk_num_blocks
  std::vector<ChunkResidency> chunks_;
  std::vector<ChunkMasks> masks_;
  std::vector<std::uint8_t> coalesced_;  ///< 1 = chunk holds a 2 MB mapping
  std::uint64_t num_coalesced_ = 0;      ///< invariant: popcount of coalesced_
  EvictionIndex* index_ = nullptr;
};

/// Per-access counter-delta hook (declared in eviction_index.hpp). Defined
/// here because it reads block residency: eviction_index.hpp cannot include
/// this header (this header includes it), so the inline definition lives
/// below the class it depends on. Every caller reaches it through
/// AccessCounterTable, whose header includes this one.
inline void EvictionIndex::on_unit_count(std::uint64_t unit, std::uint32_t old_count,
                                         std::uint32_t new_count) {
  if (freq_stale_) return;  // the next rebuild reads the registers directly
  const BlockNum b = unit >> units_per_block_shift_;
  if (b >= table_->num_blocks()) return;
  if (table_->residence(b) != Residence::kDevice) return;
  const ChunkNum c = chunk_of_block(b);
  UVM_CHECK(freq_[c] >= old_count, "EvictionIndex: chunk " << c << " aggregate "
                << freq_[c] << " below unit " << unit << " old count " << old_count);
  freq_[c] = freq_[c] - old_count + new_count;
}

}  // namespace uvmsim
