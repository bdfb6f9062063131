#include "mem/eviction_index.hpp"

#include "check/check.hpp"
#include "mem/access_counters.hpp"
#include "mem/block_table.hpp"

namespace uvmsim {

void EvictionIndex::attach(const BlockTable* table, const AccessCounterTable* counters) {
  UVM_CHECK(table != nullptr && counters != nullptr,
            "EvictionIndex: attach requires a block table and a counter table");
  UVM_CHECK(counters->unit_shift() <= kBasicBlockShift,
            "EvictionIndex: counter units larger than a basic block (shift="
                << counters->unit_shift() << ") are not supported");
  table_ = table;
  counters_ = counters;
  units_per_block_shift_ =
      static_cast<std::uint32_t>(kBasicBlockShift) - counters->unit_shift();

  const ChunkNum n = table->num_chunks();
  prev_.assign(n, kNilChunk);
  next_.assign(n, kNilChunk);
  in_list_.assign(n, 0);
  key_.assign(n, 0);
  freq_.assign(n, 0);
  head_ = tail_ = kNilChunk;
  size_ = 0;
  freq_stale_ = false;

  for (ChunkNum c = 0; c < n; ++c) {
    if (table->masks(c).device == 0) continue;
    key_[c] = table->chunk(c).last_access;
    insert_sorted(c);
    in_list_[c] = 1;
    ++size_;
    std::uint64_t total = 0;
    table->for_each_resident_block(c, [&](BlockNum b) { total += block_count_sum(b); });
    freq_[c] = total;
  }
}

std::uint64_t EvictionIndex::block_count_sum(BlockNum b) const {
  // Mirrors AccessCounterTable::range_count over the block's span, including
  // the clip at the table end (reference parity matters more than symmetry).
  const std::uint64_t first = b << units_per_block_shift_;
  const std::uint64_t last = first + (1ull << units_per_block_shift_);
  const std::uint64_t end = counters_->units() < last ? counters_->units() : last;
  std::uint64_t total = 0;
  for (std::uint64_t u = first; u < end; ++u) total += counters_->count_unit(u);
  return total;
}

void EvictionIndex::insert_sorted(ChunkNum c) {
  // Walk back from the tail past entries with a larger (last_access, chunk)
  // key. Touches carry monotone timestamps, so in the steady state this
  // walk only skips same-cycle ties with a larger chunk number.
  const Cycle la = key_[c];
  ChunkNum p = tail_;
  while (p != kNilChunk) {
    const Cycle pla = key_[p];
    if (pla < la || (pla == la && p < c)) break;
    p = prev_[p];
  }
  if (p == kNilChunk) {
    prev_[c] = kNilChunk;
    next_[c] = head_;
    if (head_ != kNilChunk) prev_[head_] = c;
    head_ = c;
    if (tail_ == kNilChunk) tail_ = c;
  } else {
    next_[c] = next_[p];
    prev_[c] = p;
    if (next_[p] != kNilChunk) prev_[next_[p]] = c;
    next_[p] = c;
    if (tail_ == p) tail_ = c;
  }
}

void EvictionIndex::unlink(ChunkNum c) {
  if (prev_[c] != kNilChunk) next_[prev_[c]] = next_[c];
  if (next_[c] != kNilChunk) prev_[next_[c]] = prev_[c];
  if (head_ == c) head_ = next_[c];
  if (tail_ == c) tail_ = prev_[c];
  prev_[c] = next_[c] = kNilChunk;
}

void EvictionIndex::on_resident(BlockNum b) {
  const ChunkNum c = chunk_of_block(b);
  if (!freq_stale_) freq_[c] += block_count_sum(b);
  if (in_list_[c] == 0) {
    // The chunk may have been touched while unlisted (on_touch early-outs
    // without maintaining key_), so refresh the key before inserting.
    key_[c] = table_->chunk(c).last_access;
    insert_sorted(c);
    in_list_[c] = 1;
    ++size_;
  }
}

void EvictionIndex::on_evicted(BlockNum b) {
  const ChunkNum c = chunk_of_block(b);
  if (!freq_stale_) {
    const std::uint64_t sum = block_count_sum(b);
    UVM_CHECK(freq_[c] >= sum, "EvictionIndex: chunk " << c << " aggregate "
                  << freq_[c] << " under-counts evicted block " << b
                  << " (sum=" << sum << ')');
    freq_[c] -= sum;
  }
  if (table_->masks(c).device == 0) {
    UVM_CHECK(in_list_[c] != 0, "EvictionIndex: chunk " << c
                  << " emptied while absent from the candidate list");
    unlink(c);
    in_list_[c] = 0;
    --size_;
    // An empty chunk aggregates to zero by definition; reset unconditionally
    // so a stale value cannot leak into the chunk's next residency episode.
    freq_[c] = 0;
  }
}

void EvictionIndex::rebuild_frequencies() const {
  for (ChunkNum c = head_; c != kNilChunk; c = next_[c]) {
    std::uint64_t total = 0;
    table_->for_each_resident_block(c, [&](BlockNum b) { total += block_count_sum(b); });
    freq_[c] = total;
  }
  freq_stale_ = false;
}

}  // namespace uvmsim
