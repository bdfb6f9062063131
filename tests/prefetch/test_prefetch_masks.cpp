// Differential tests: the mask-based prefetchers against per-block-scan
// reference implementations (the pre-mask code, kept here as the oracle) on
// random residency maps with in-flight blocks, a partially mapped tail chunk
// and a non-empty selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../mem/random_residency.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

using testing_support::RandomResidency;

bool ref_prefetchable(BlockNum b, const BlockTable& table, const std::vector<BlockNum>& out) {
  if (b >= table.num_blocks()) return false;
  if (table.residence(b) != Residence::kHost) return false;
  return std::find(out.begin(), out.end(), b) == out.end();
}

void ref_sequential(BlockNum b, std::uint32_t degree, const BlockTable& table,
                    std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  std::uint32_t taken = 0;
  for (BlockNum nb = b + 1; nb < first + n && taken < degree; ++nb) {
    if (ref_prefetchable(nb, table, out)) {
      out.push_back(nb);
      ++taken;
    }
  }
}

void ref_random(BlockNum b, Rng& rng, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;
  const BlockNum nb = first + rng.below(n);
  if (nb != b && ref_prefetchable(nb, table, out)) out.push_back(nb);
}

void ref_tree(BlockNum b, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;
  std::uint32_t occupied = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (table.residence(first + i) != Residence::kHost) occupied |= 1u << i;
  }
  for (BlockNum sel : out) {
    if (chunk_of_block(sel) == c) occupied |= 1u << static_cast<std::uint32_t>(sel - first);
  }
  const auto leaf = static_cast<std::uint32_t>(b - first);
  occupied |= 1u << leaf;
  const std::uint32_t mask =
      TreePrefetcher::expand_mask(occupied, leaf, n) & (n >= 32 ? ~0u : (1u << n) - 1u);
  for (std::uint32_t i = 0; i < n; ++i) {
    if ((mask >> i) & 1u) out.push_back(first + i);
  }
}

constexpr std::uint64_t kSeeds = 200;
constexpr int kProbesPerChunk = 4;

TEST(PrefetchMasks, TreeMatchesBlockScan) {
  TreePrefetcher pf;
  std::uint64_t selected = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    for (ChunkNum c = 0; c < m.table().num_chunks(); ++c) {
      for (int probe = 0; probe < kProbesPerChunk; ++probe) {
        const BlockNum b = m.block_in(c);
        std::vector<BlockNum> got = m.random_out(c);
        std::vector<BlockNum> want = got;
        const std::size_t before = got.size();
        pf.expand(b, m.table(), got);
        selected += got.size() - before;
        ref_tree(b, m.table(), want);
        ASSERT_EQ(got, want) << "seed " << seed << " chunk " << c << " block " << b;
      }
    }
  }
  EXPECT_GT(selected, 0u);  // the maps exercise non-empty expansions
}

TEST(PrefetchMasks, SequentialMatchesBlockScan) {
  std::uint64_t selected = 0;
  for (const std::uint32_t degree : {1u, 3u, 32u}) {
    SequentialPrefetcher pf(degree);
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      RandomResidency m(seed);
      for (ChunkNum c = 0; c < m.table().num_chunks(); ++c) {
        for (int probe = 0; probe < kProbesPerChunk; ++probe) {
          const BlockNum b = m.block_in(c);
          std::vector<BlockNum> got = m.random_out(c);
          std::vector<BlockNum> want = got;
          const std::size_t before = got.size();
          pf.expand(b, m.table(), got);
          selected += got.size() - before;
          ref_sequential(b, degree, m.table(), want);
          ASSERT_EQ(got, want) << "degree " << degree << " seed " << seed << " block " << b;
        }
      }
    }
  }
  EXPECT_GT(selected, 0u);
}

TEST(PrefetchMasks, RandomMatchesBlockScan) {
  constexpr std::uint64_t kPrefetchSeed = 0x5eed;
  RandomPrefetcher pf(kPrefetchSeed);
  Rng ref_rng(kPrefetchSeed);  // replays the prefetcher's probe sequence
  std::uint64_t selected = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    RandomResidency m(seed);
    for (ChunkNum c = 0; c < m.table().num_chunks(); ++c) {
      for (int probe = 0; probe < kProbesPerChunk; ++probe) {
        const BlockNum b = m.block_in(c);
        std::vector<BlockNum> got = m.random_out(c);
        std::vector<BlockNum> want = got;
        const std::size_t before = got.size();
        pf.expand(b, m.table(), got);
        selected += got.size() - before;
        ref_random(b, ref_rng, m.table(), want);
        ASSERT_EQ(got, want) << "seed " << seed << " chunk " << c << " block " << b;
      }
    }
  }
  EXPECT_GT(selected, 0u);
}

}  // namespace
}  // namespace uvmsim
