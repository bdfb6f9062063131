#include "prefetch/prefetcher.hpp"

#include <bit>

namespace uvmsim {

namespace {

/// Leaves of chunk `c` that `out` already selected.
std::uint32_t selected_in_chunk(ChunkNum c, const std::vector<BlockNum>& out) {
  std::uint32_t bits = 0;
  for (BlockNum sel : out) {
    if (chunk_of_block(sel) == c) bits |= 1u << (sel - first_block_of_chunk(c));
  }
  return bits;
}

}  // namespace

void SequentialPrefetcher::expand(BlockNum b, const BlockTable& table,
                                  std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const auto leaf = static_cast<std::uint32_t>(b - first);
  // Host-resident, unselected leaves above the demand leaf, lowest first.
  std::uint32_t free = ~(table.masks(c).non_host | selected_in_chunk(c, out)) &
                       low_bits(table.chunk_num_blocks(c)) & ~low_bits(leaf + 1);
  for (std::uint32_t taken = 0; free != 0 && taken < degree_; ++taken) {
    out.push_back(first + static_cast<std::uint32_t>(std::countr_zero(free)));
    free &= free - 1;
  }
}

void RandomPrefetcher::expand(BlockNum b, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;
  // One random probe; a miss (occupied/duplicate) simply prefetches nothing,
  // mirroring the low hit rate that makes this baseline weak.
  const BlockNum nb = first + rng_.below(n);
  const std::uint32_t taken =
      table.masks(c).non_host | selected_in_chunk(c, out) | (1u << (b - first));
  if (((taken >> (nb - first)) & 1u) == 0) out.push_back(nb);
}

std::uint32_t TreePrefetcher::expand_mask(std::uint32_t occupied, std::uint32_t leaf,
                                          std::uint32_t num_leaves) noexcept {
  if (num_leaves <= 1) return 0;
  std::uint32_t selected = 0;
  // Subtree sizes 2, 4, ..., num_leaves containing the faulted leaf.
  for (std::uint32_t size = 2; size <= num_leaves; size <<= 1) {
    const std::uint32_t mask = low_bits(size) << (leaf / size * size);
    const std::uint32_t present = (occupied | selected) & mask;
    const auto count = static_cast<std::uint32_t>(std::popcount(present));
    if (count * 2 > size) {
      selected |= mask & ~occupied;
    }
  }
  // The faulted leaf is occupied, never prefetched.
  selected &= ~(1u << leaf);
  return selected;
}

void TreePrefetcher::expand(BlockNum b, const BlockTable& table, std::vector<BlockNum>& out) {
  const ChunkNum c = chunk_of_block(b);
  const BlockNum first = first_block_of_chunk(c);
  const std::uint32_t n = table.chunk_num_blocks(c);
  if (n <= 1) return;

  // Occupied leaves: device-resident, in-flight, already selected, and the
  // demand leaf itself. Selected leaves are therefore host-resident and
  // new; subtrees stay below leaf n because AddressSpace rounds chunk block
  // counts to powers of two, and the low_bits(n) mask keeps that true for
  // any n.
  const auto leaf = static_cast<std::uint32_t>(b - first);
  const std::uint32_t occupied =
      table.masks(c).non_host | selected_in_chunk(c, out) | (1u << leaf);
  for_each_bit(expand_mask(occupied, leaf, n) & low_bits(n),
               [&](std::uint32_t i) { out.push_back(first + i); });
}

std::unique_ptr<Prefetcher> make_prefetcher(PrefetcherKind kind, std::uint64_t seed) {
  switch (kind) {
    case PrefetcherKind::kNone: return std::make_unique<NoPrefetcher>();
    case PrefetcherKind::kSequential: return std::make_unique<SequentialPrefetcher>();
    case PrefetcherKind::kRandom: return std::make_unique<RandomPrefetcher>(seed);
    case PrefetcherKind::kTree: return std::make_unique<TreePrefetcher>();
  }
  return nullptr;
}

}  // namespace uvmsim
