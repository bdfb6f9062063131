#include "gpu/tlb.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace uvmsim {
namespace {

/// Generation source for tests where no block is ever evicted.
constexpr auto kGen0 = [] { return std::uint32_t{0}; };

TEST(Tlb, MissThenHit) {
  Tlb t(16);
  EXPECT_FALSE(t.access(5, kGen0));
  EXPECT_TRUE(t.access(5, kGen0));
}

TEST(Tlb, DirectMappedConflict) {
  Tlb t(16);
  EXPECT_FALSE(t.access(3, kGen0));
  EXPECT_FALSE(t.access(3 + 16, kGen0));  // same slot, evicts
  EXPECT_FALSE(t.access(3, kGen0));       // miss again
}

TEST(Tlb, DistinctSlotsCoexist) {
  Tlb t(16);
  for (PageNum p = 0; p < 16; ++p) EXPECT_FALSE(t.access(p, kGen0));
  for (PageNum p = 0; p < 16; ++p) EXPECT_TRUE(t.access(p, kGen0));
}

TEST(Tlb, StaleGenerationMissesOnceThenHits) {
  Tlb t(16);
  std::uint32_t gen = 0;
  const auto g = [&] { return gen; };
  EXPECT_FALSE(t.access(7, g));
  ++gen;  // page 7's block was evicted
  EXPECT_FALSE(t.access(7, g));  // the stale entry misses ...
  EXPECT_TRUE(t.access(7, g));   // ... and is reinstalled at the new generation
}

TEST(Tlb, OtherBlockEvictionKeepsEntry) {
  // Pages 7 and 7 + 16 share a slot but live in different blocks: evicting
  // the other page's block must not drop page 7.
  Tlb t(16);
  std::vector<std::uint32_t> gen(2, 0);
  const auto g = [&](PageNum p) { return [&gen, p] { return gen[block_of_page(p)]; }; };
  EXPECT_FALSE(t.access(7, g(7)));
  ++gen[block_of_page(7 + 16)];
  EXPECT_TRUE(t.access(7, g(7)));
}

TEST(Tlb, GenerationReadOnlyOnTagMatchOrFill) {
  // A hit on an unchanged block reads the generation once; nothing else on
  // the lookup path calls it.
  Tlb t(16);
  int reads = 0;
  const auto g = [&] {
    ++reads;
    return std::uint32_t{0};
  };
  EXPECT_FALSE(t.access(9, g));
  EXPECT_EQ(reads, 1);
  EXPECT_TRUE(t.access(9, g));
  EXPECT_EQ(reads, 2);
}

/// Reference: the eager-shootdown TLB the generation tags replace — a
/// direct-mapped page cache whose entries are dropped on every eviction of
/// their block.
class EagerTlb {
 public:
  explicit EagerTlb(std::size_t entries) : slots_(entries, kEmpty) {}
  bool access(PageNum p) {
    PageNum& s = slots_[p % slots_.size()];
    if (s == p) return true;
    s = p;
    return false;
  }
  void evict_block(BlockNum b) {
    for (PageNum& s : slots_) {
      if (s != kEmpty && block_of_page(s) == b) s = kEmpty;
    }
  }

 private:
  static constexpr PageNum kEmpty = ~PageNum{0};
  std::vector<PageNum> slots_;
};

TEST(Tlb, MatchesEagerShootdownReference) {
  // Interleaved random access/evict streams over a few blocks, for a
  // power-of-two and a non-power-of-two capacity: the generation-tagged TLB
  // must produce the reference's hit/miss sequence exactly.
  for (const std::uint32_t entries : {16u, 12u, 64u}) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      std::mt19937_64 rng(seed * 7919 + entries);
      constexpr BlockNum kBlocks = 6;
      std::vector<std::uint32_t> gen(kBlocks, 0);
      Tlb tlb(entries);
      EagerTlb ref(entries);
      std::uint64_t hits = 0, evictions = 0;
      for (int i = 0; i < 20000; ++i) {
        if (rng() % 8 == 0) {
          const BlockNum b = rng() % kBlocks;
          ++gen[b];
          ref.evict_block(b);
          ++evictions;
          continue;
        }
        const PageNum p = rng() % (kBlocks * kPagesPerBlock);
        const bool got = tlb.access(p, [&] { return gen[block_of_page(p)]; });
        const bool want = ref.access(p);
        ASSERT_EQ(got, want) << "entries=" << entries << " seed=" << seed << " op=" << i
                             << " page=" << p;
        hits += got ? 1 : 0;
      }
      // Both outcomes and evictions must actually occur for the check to bite.
      EXPECT_GT(hits, 0u);
      EXPECT_GT(evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace uvmsim
