// Differential tests: BlockTable's per-chunk occupancy masks and the chunk
// scans built on them (for_each_resident_block, chunk_fully_resident, the
// tree evictor, LFU chunk frequency) against per-block-scan references on
// random residency maps with in-flight blocks and a partially mapped tail.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "mem/access_counters.hpp"
#include "mem/eviction.hpp"
#include "random_residency.hpp"

namespace uvmsim {
namespace {

using testing_support::RandomResidency;

std::vector<BlockNum> ref_resident_blocks(ChunkNum c, const BlockTable& table) {
  std::vector<BlockNum> out;
  const BlockNum first = first_block_of_chunk(c);
  for (BlockNum b = first; b < first + table.chunk_num_blocks(c); ++b) {
    if (table.residence(b) == Residence::kDevice) out.push_back(b);
  }
  return out;
}

void ref_tree_subtree(ChunkNum c, const BlockTable& table, std::vector<BlockNum>& out) {
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n == 0) return;
  BlockNum lru = first;
  Cycle lru_ts = std::numeric_limits<Cycle>::max();
  bool found = false;
  for (BlockNum b = first; b < first + n; ++b) {
    if (table.residence(b) == Residence::kDevice && table.block_last_access(b) < lru_ts) {
      lru_ts = table.block_last_access(b);
      lru = b;
      found = true;
    }
  }
  if (!found) return;
  const auto leaf = static_cast<std::uint32_t>(lru - first);
  std::uint32_t best_lo = leaf, best_size = 1;
  for (std::uint32_t size = 2; size <= n; size <<= 1) {
    const std::uint32_t lo = leaf / size * size;
    bool full = true;
    for (std::uint32_t i = lo; i < lo + size && full; ++i) {
      full = i < n && table.residence(first + i) == Residence::kDevice;
    }
    if (!full) break;
    best_lo = lo;
    best_size = size;
  }
  for (std::uint32_t i = best_lo; i < best_lo + best_size; ++i) out.push_back(first + i);
}

constexpr std::uint64_t kSeeds = 300;

TEST(ChunkMasks, MasksMatchBlockScan) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    const BlockTable& t = m.table();
    for (ChunkNum c = 0; c < t.num_chunks(); ++c) {
      ChunkMasks scan;
      for (BlockNum b = first_block_of_chunk(c); b < m.end_of_chunk(c); ++b) {
        const std::uint32_t bit = 1u << (b - first_block_of_chunk(c));
        if (t.residence(b) == Residence::kDevice) scan.device |= bit;
        if (t.residence(b) != Residence::kHost) scan.non_host |= bit;
      }
      ASSERT_EQ(t.masks(c).device, scan.device) << "seed " << seed << " chunk " << c;
      ASSERT_EQ(t.masks(c).non_host, scan.non_host) << "seed " << seed << " chunk " << c;
    }
  }
}

TEST(ChunkMasks, ResidentBlockVisitsMatchBlockScan) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    const BlockTable& t = m.table();
    for (ChunkNum c = 0; c < t.num_chunks(); ++c) {
      const std::vector<BlockNum> want = ref_resident_blocks(c, t);
      std::vector<BlockNum> got;
      t.for_each_resident_block(c, [&](BlockNum b) { got.push_back(b); });
      ASSERT_EQ(got, want) << "seed " << seed << " chunk " << c;
      ASSERT_EQ(t.resident_blocks(c), want.size()) << "seed " << seed << " chunk " << c;
      const std::uint32_t n = t.chunk_num_blocks(c);
      ASSERT_EQ(t.chunk_fully_resident(c), n != 0 && want.size() == n)
          << "seed " << seed << " chunk " << c;
    }
  }
}

TEST(ChunkMasks, TreeSubtreeMatchesBlockScan) {
  std::uint64_t multi_block = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    const BlockTable& t = m.table();
    for (ChunkNum c = 0; c < t.num_chunks(); ++c) {
      // Appends to a non-empty vector: the eviction hot path reuses buffers.
      std::vector<BlockNum> got{7, 9};
      std::vector<BlockNum> want = got;
      tree_eviction_subtree_into(c, t, got);
      ref_tree_subtree(c, t, want);
      ASSERT_EQ(got, want) << "seed " << seed << " chunk " << c;
      if (got.size() > 3) ++multi_block;
    }
  }
  EXPECT_GT(multi_block, 0u);  // subtrees larger than one leaf occur
}

TEST(ChunkMasks, LfuChunkFrequencyMatchesBlockScan) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    const BlockTable& t = m.table();
    AccessCounterTable counters(div_ceil(t.space().span_end(), kBasicBlockSize), 16);
    for (BlockNum b = 0; b < t.num_blocks(); ++b) {
      counters.record_access(addr_of_block(b),
                             static_cast<std::uint32_t>(m.rng().below(100)));
    }
    for (ChunkNum c = 0; c < t.num_chunks(); ++c) {
      std::uint64_t want = 0;
      for (const BlockNum b : ref_resident_blocks(c, t)) {
        want += counters.range_count(addr_of_block(b), kBasicBlockSize);
      }
      ASSERT_EQ(LfuEviction::chunk_frequency(c, t, counters), want)
          << "seed " << seed << " chunk " << c;
    }
  }
}

}  // namespace
}  // namespace uvmsim
