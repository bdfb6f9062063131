// Random residency maps for the chunk-mask differential tests
// (tests/mem/test_chunk_masks.cpp, tests/prefetch/test_prefetch_masks.cpp).
// Every mapped block ends host-resident, in flight or device-resident with a
// random last access; the last chunk is a partially mapped tail; a share of
// the resident blocks is evicted again so the masks also see mark_evicted.
#pragma once

#include <memory>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/block_table.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace uvmsim::testing_support {

class RandomResidency {
 public:
  explicit RandomResidency(std::uint64_t seed) : rng_(seed) {
    space_.allocate("full", 3 * kLargePageSize);
    space_.allocate("tail", (1 + rng_.below(31)) * kBasicBlockSize);
    table_ = std::make_unique<BlockTable>(space_);
    for (ChunkNum c = 0; c < table_->num_chunks(); ++c) {
      // Mix fully resident, empty and partly occupied chunks.
      const std::uint64_t mode = rng_.below(4);
      const double p_device = mode == 0 ? 1.0 : mode == 1 ? 0.0 : rng_.uniform();
      const double p_in_flight = mode < 2 ? 0.0 : rng_.uniform() * 0.3;
      for (BlockNum b = first_block_of_chunk(c); b < end_of_chunk(c); ++b) {
        if (rng_.chance(p_device)) {
          table_->mark_in_flight(b);
          const Cycle ts = 1 + rng_.below(64);  // small range: recency ties occur
          table_->mark_resident(b, ts);
          table_->touch(b, AccessType::kRead, ts);
          if (mode >= 2 && rng_.chance(0.2)) table_->mark_evicted(b);
        } else if (rng_.chance(p_in_flight)) {
          table_->mark_in_flight(b);
        }
      }
    }
  }

  [[nodiscard]] BlockTable& table() { return *table_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] BlockNum end_of_chunk(ChunkNum c) const {
    return first_block_of_chunk(c) + table_->chunk_num_blocks(c);
  }

  /// A random mapped block of chunk `c`.
  [[nodiscard]] BlockNum block_in(ChunkNum c) {
    return first_block_of_chunk(c) + rng_.below(table_->chunk_num_blocks(c));
  }

  /// A selection already holding blocks of chunk `c` and of other chunks,
  /// as a fault batch's earlier prefetch expansions would leave it.
  [[nodiscard]] std::vector<BlockNum> random_out(ChunkNum c) {
    std::vector<BlockNum> out;
    const std::uint64_t n = rng_.below(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      const ChunkNum from = rng_.chance(0.7) ? c : rng_.below(table_->num_chunks());
      const BlockNum b = block_in(from);
      if (table_->residence(b) == Residence::kHost) out.push_back(b);
    }
    return out;
  }

 private:
  Rng rng_;
  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
};

}  // namespace uvmsim::testing_support
