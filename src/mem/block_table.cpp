#include "mem/block_table.hpp"

#include "check/check.hpp"
#include "mem/eviction_index.hpp"

namespace uvmsim {

BlockTable::BlockTable(const AddressSpace& space) : space_(space) {
  const BlockNum nblocks = space.total_blocks();
  state_.assign(nblocks, static_cast<std::uint8_t>(Residence::kHost));
  last_access_.assign(nblocks, 0);
  round_trips_.assign(nblocks, 0);
  // An empty address space has zero chunks — the old `chunk_of_block(0) + 1`
  // expression manufactured a phantom chunk with no mapped blocks.
  chunks_.resize(nblocks == 0 ? 0 : chunk_of_block(nblocks - 1) + 1);
  chunk_nblocks_.resize(chunks_.size());
  masks_.resize(chunks_.size());
  coalesced_.assign(chunks_.size(), 0);
  for (ChunkNum c = 0; c < chunks_.size(); ++c) {
    chunk_nblocks_[c] = space.chunk_num_blocks(c);
  }
}

void BlockTable::mark_in_flight(BlockNum b) {
  UVM_CHECK(residence(b) == Residence::kHost,
            "BlockTable: in-flight transition requires host residence; block=" << b
                << " state=" << to_cstr(residence(b)) << " round_trips=" << round_trips_[b]);
  state_[b] = static_cast<std::uint8_t>(
      (state_[b] & ~kResidenceMask) | static_cast<std::uint8_t>(Residence::kInFlight));
  masks_[chunk_of_block(b)].non_host |= chunk_bit(b);
}

void BlockTable::mark_resident(BlockNum b, Cycle now) {
  UVM_CHECK(residence(b) == Residence::kInFlight,
            "BlockTable: resident transition requires in-flight state; block=" << b
                << " state=" << to_cstr(residence(b)) << " now=" << now);
  std::uint8_t st = state_[b];
  st = static_cast<std::uint8_t>((st & ~kResidenceMask) |
                                 static_cast<std::uint8_t>(Residence::kDevice));
  // A write that raced the migration makes the block arrive dirty.
  if ((st & kDirtyOnArrivalBit) != 0)
    st |= kDirtyBit;
  else
    st &= static_cast<std::uint8_t>(~kDirtyBit);
  st &= static_cast<std::uint8_t>(~kDirtyOnArrivalBit);
  state_[b] = st;
  const ChunkNum c = chunk_of_block(b);
  if (masks_[c].device == 0) chunks_[c].migrated_at = now;
  masks_[c].device |= chunk_bit(b);
  if (index_ != nullptr) index_->on_resident(b);
}

bool BlockTable::mark_evicted(BlockNum b) {
  UVM_CHECK(residence(b) == Residence::kDevice,
            "BlockTable: eviction requires device residence; block=" << b
                << " state=" << to_cstr(residence(b)) << " dirty=" << dirty(b));
  UVM_CHECK(coalesced_[chunk_of_block(b)] == 0,
            "BlockTable: evicting block " << b << " from coalesced chunk "
                << chunk_of_block(b) << " without splintering first");
  const std::uint8_t st = state_[b];
  const bool was_dirty = (st & kDirtyBit) != 0;
  state_[b] = static_cast<std::uint8_t>(
      (st & ~(kResidenceMask | kDirtyBit)) | static_cast<std::uint8_t>(Residence::kHost));
  ++round_trips_[b];
  ChunkMasks& m = masks_[chunk_of_block(b)];
  UVM_CHECK((m.device & chunk_bit(b)) != 0,
            "BlockTable: chunk " << chunk_of_block(b)
                << " device mask misses evicted block " << b);
  m.device &= ~chunk_bit(b);
  m.non_host &= ~chunk_bit(b);
  if (index_ != nullptr) index_->on_evicted(b);
  return was_dirty;
}

bool BlockTable::try_coalesce(ChunkNum c) {
  if (coalesced_[c] != 0) return false;
  if (!chunk_fully_resident(c)) return false;
  if (chunks_[c].written_ever) return false;  // read-mostly gate
  coalesced_[c] = 1;
  ++num_coalesced_;
  return true;
}

void BlockTable::splinter(ChunkNum c) {
  UVM_CHECK(coalesced_[c] != 0, "BlockTable: splinter on split chunk " << c);
  coalesced_[c] = 0;
  --num_coalesced_;
}

}  // namespace uvmsim
