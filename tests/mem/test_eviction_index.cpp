// Golden-parity tests for the incremental eviction index (mem/eviction_index):
// on randomized residency/counter histories the index-backed fast path must
// pick the exact victim sequence of the reference scan for LRU, LFU and tree
// eviction — including the written-ever and protect-window tie-breaks, both
// counter granularities, and global counter halvings.
#include "mem/eviction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/rng.hpp"

namespace uvmsim {
namespace {

constexpr Cycle kWindow = 512;

/// A (table, counters, manager) trio with the index attached — the driver's
/// wiring, minus the driver — plus a randomized-history driver.
class IndexHarness {
 public:
  IndexHarness(EvictionKind kind, std::uint64_t granularity, ChunkNum chunks,
               std::uint32_t counter_shift, std::uint64_t seed)
      : rng_(seed) {
    space_.allocate("a", chunks * kLargePageSize);
    table_ = std::make_unique<BlockTable>(space_);
    counters_ = std::make_unique<AccessCounterTable>(
        div_ceil(space_.span_end(), std::uint64_t{1} << counter_shift), counter_shift);
    manager_ = std::make_unique<EvictionManager>(kind, granularity);
    manager_->attach_index(*table_, *counters_);
  }

  BlockTable& table() { return *table_; }
  AccessCounterTable& counters() { return *counters_; }
  EvictionManager& manager() { return *manager_; }

  /// One random history step: migrations, touches, counter traffic, direct
  /// evictions and occasional Volta-style count resets.
  void random_step() {
    now_ += rng_.below(4);
    const BlockNum b = rng_.below(table_->num_blocks());
    switch (rng_.below(8)) {
      case 0:
      case 1: {  // migrate a host block in
        if (table_->block(b).residence == Residence::kHost) {
          table_->mark_in_flight(b);
          table_->mark_resident(b, now_);
        }
        break;
      }
      case 2:
      case 3: {  // touch (read or write)
        const AccessType t = rng_.chance(0.3) ? AccessType::kWrite : AccessType::kRead;
        table_->touch(b, t, now_);
        break;
      }
      case 4: {  // counter traffic; occasionally enough to force a halving
        const std::uint32_t n = rng_.chance(0.02)
                                    ? AccessCounterTable::kCountMax - 2
                                    : static_cast<std::uint32_t>(rng_.between(1, 64));
        counters_->record_access(addr_of_block(b), n);
        break;
      }
      case 5: {  // evict one resident block directly
        if (table_->block(b).residence == Residence::kDevice) {
          table_->mark_evicted(b);
          counters_->record_round_trip(addr_of_block(b));
        }
        break;
      }
      case 6: {  // Volta-style reset of a block's count fields
        if (rng_.chance(0.2)) counters_->reset_range(addr_of_block(b), kBasicBlockSize);
        break;
      }
      default: {  // apply a full selection round through the manager
        apply_one_selection();
        break;
      }
    }
  }

  /// select_victims through the manager (fast path), assert it matches the
  /// reference scan, then actually evict the victims — so the test walks an
  /// entire victim *sequence*, not independent one-shot picks.
  void apply_one_selection() {
    const VictimQuery q = random_query();
    const std::vector<BlockNum> fast = manager_->select_victims(*table_, *counters_, q);
    const std::vector<BlockNum> ref =
        manager_->select_victims_reference(*table_, *counters_, q);
    ASSERT_EQ(fast, ref) << "victim divergence at step " << steps_ << ", now=" << now_;
    for (const BlockNum v : fast) {
      table_->mark_evicted(v);
      counters_->record_round_trip(addr_of_block(v));
    }
    ++steps_;
  }

  /// Fast-vs-reference parity for a spread of queries at the current state.
  void check_parity() {
    for (const Cycle window : {Cycle{0}, kWindow}) {
      for (const ChunkNum fc : {ChunkNum{0}, table_->num_chunks() - 1}) {
        for (const bool has_fc : {false, true}) {
          const VictimQuery q{fc, has_fc, now_, window};
          EXPECT_EQ(manager_->select_victims(*table_, *counters_, q),
                    manager_->select_victims_reference(*table_, *counters_, q))
              << "window=" << window << " faulting=" << (has_fc ? fc : kNilChunk)
              << " now=" << now_;
        }
      }
    }
    check_aggregates();
  }

  /// Structural parity: membership, running frequencies, visitor agreement.
  void check_aggregates() {
    const EvictionIndex& idx = manager_->index();
    std::uint64_t listed = 0;
    for (ChunkNum c = 0; c < table_->num_chunks(); ++c) {
      ASSERT_EQ(idx.in_list(c), table_->resident_blocks(c) > 0) << "chunk " << c;
      if (!idx.in_list(c)) continue;
      ++listed;
      EXPECT_EQ(idx.frequency(c), LfuEviction::chunk_frequency(c, *table_, *counters_))
          << "chunk " << c;
      std::vector<BlockNum> visited;
      table_->for_each_resident_block(c, [&](BlockNum b) { visited.push_back(b); });
      // Reference: a plain scan over the chunk's mapped block range.
      std::vector<BlockNum> expected;
      const BlockNum first = first_block_of_chunk(c);
      for (BlockNum b = first; b < first + table_->chunk_num_blocks(c); ++b) {
        if (table_->residence(b) == Residence::kDevice) expected.push_back(b);
      }
      EXPECT_EQ(visited, expected) << "chunk " << c;
    }
    EXPECT_EQ(idx.size(), listed);
  }

  [[nodiscard]] Cycle now() const { return now_; }

 private:
  [[nodiscard]] VictimQuery random_query() {
    VictimQuery q;
    q.has_faulting_chunk = rng_.chance(0.5);
    q.faulting_chunk = rng_.below(table_->num_chunks());
    q.now = now_;
    q.protect_window = rng_.chance(0.5) ? kWindow : 0;
    return q;
  }

  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
  std::unique_ptr<AccessCounterTable> counters_;
  std::unique_ptr<EvictionManager> manager_;
  Rng rng_;
  Cycle now_ = 1;
  std::uint64_t steps_ = 0;
};

void run_history(IndexHarness& h, int steps) {
  for (int i = 0; i < steps; ++i) {
    h.random_step();
    if (i % 16 == 0) h.check_parity();
  }
  h.check_parity();
}

TEST(EvictionIndexParity, RandomizedLruHistory) {
  IndexHarness h(EvictionKind::kLru, kLargePageSize, 8, 16, 0xA11CE);
  run_history(h, 600);
}

TEST(EvictionIndexParity, RandomizedLfuHistory) {
  IndexHarness h(EvictionKind::kLfu, kLargePageSize, 8, 16, 0xB0B);
  run_history(h, 600);
}

TEST(EvictionIndexParity, RandomizedTreeHistory) {
  IndexHarness h(EvictionKind::kTree, kLargePageSize, 8, 16, 0xCAFE);
  run_history(h, 600);
}

TEST(EvictionIndexParity, RandomizedLfuWith4kCounters) {
  IndexHarness h(EvictionKind::kLfu, kLargePageSize, 6, 12, 0xD00D);
  run_history(h, 400);
}

TEST(EvictionIndexParity, RandomizedLruBlockGranularity) {
  // 64 KB eviction granularity exercises the coldest-block emission path.
  IndexHarness h(EvictionKind::kLru, kBasicBlockSize, 6, 16, 0xFEED);
  run_history(h, 400);
}

TEST(EvictionIndexParity, RandomizedLfuBlockGranularity) {
  IndexHarness h(EvictionKind::kLfu, kBasicBlockSize, 6, 16, 0xBEEF);
  run_history(h, 400);
}

TEST(EvictionIndexParity, HalvingMarksAggregatesStaleThenRebuilds) {
  IndexHarness h(EvictionKind::kLfu, kLargePageSize, 4, 16, 1);
  BlockTable& table = h.table();
  for (BlockNum b : {BlockNum{0}, BlockNum{1}, first_block_of_chunk(1)}) {
    table.mark_in_flight(b);
    table.mark_resident(b, 10);
  }
  h.counters().record_access(addr_of_block(0), 100);
  EXPECT_FALSE(h.manager().index().frequencies_stale());
  h.counters().halve_all();
  EXPECT_TRUE(h.manager().index().frequencies_stale());
  // The lazy rebuild must land on the reference recomputation.
  EXPECT_EQ(h.manager().index().frequency(0),
            LfuEviction::chunk_frequency(0, table, h.counters()));
  EXPECT_FALSE(h.manager().index().frequencies_stale());
  h.check_parity();
}

// Regression (stale-aggregate window): a global counter halving can REORDER
// the LFU ranking — floor division collapses 3 vs 2 into a tie that then
// falls to recency. A selection issued immediately after halve_all, with no
// intervening touch to refresh the index, must consult the lazily rebuilt
// aggregates, never the stale pre-halving ones.
TEST(EvictionIndexParity, HalveThenImmediateSelectUsesRebuiltAggregates) {
  IndexHarness h(EvictionKind::kLfu, kLargePageSize, 4, 16, 4);
  BlockTable& table = h.table();
  for (ChunkNum c : {ChunkNum{0}, ChunkNum{1}}) {
    const BlockNum first = first_block_of_chunk(c);
    for (BlockNum b = first; b < first + kBlocksPerLargePage; ++b) {
      table.mark_in_flight(b);
      table.mark_resident(b, 10);
      table.touch(b, AccessType::kRead, 10 + c);  // chunk 0 older than chunk 1
    }
  }
  h.counters().record_access(addr_of_block(first_block_of_chunk(0)), 3);
  h.counters().record_access(addr_of_block(first_block_of_chunk(1)), 2);

  // Pre-halving the ranking is unambiguous: chunk 1 (frequency 2) loses.
  const VictimQuery q{3, true, 100, 0};
  const auto before = h.manager().select_victims(table, h.counters(), q);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(chunk_of_block(before.front()), 1u);

  h.counters().halve_all();
  ASSERT_TRUE(h.manager().index().frequencies_stale());

  // 3 and 2 both halve to 1: the tie now falls to recency, which chunk 0
  // (older) loses. Stale aggregates would still name chunk 1.
  const auto fast = h.manager().select_victims(table, h.counters(), q);
  const auto ref = h.manager().select_victims_reference(table, h.counters(), q);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(fast, ref);
  EXPECT_EQ(chunk_of_block(fast.front()), 0u);
  for (ChunkNum c : {ChunkNum{0}, ChunkNum{1}}) {
    EXPECT_EQ(h.manager().index().frequency(c),
              LfuEviction::chunk_frequency(c, table, h.counters()))
        << "chunk " << c;
  }
  h.check_parity();
}

TEST(EvictionIndexParity, WrittenEverTieBreakMatchesReference) {
  IndexHarness h(EvictionKind::kLfu, kLargePageSize, 4, 16, 2);
  BlockTable& table = h.table();
  // Two fully-resident chunks, identical frequency; chunk 0 written (later),
  // chunk 1 read-only but more recent: LFU must evict the read-only one.
  for (ChunkNum c : {ChunkNum{0}, ChunkNum{1}}) {
    const BlockNum first = first_block_of_chunk(c);
    for (BlockNum b = first; b < first + kBlocksPerLargePage; ++b) {
      table.mark_in_flight(b);
      table.mark_resident(b, 10);
      table.touch(b, AccessType::kRead, 10 + c);
    }
    h.counters().record_access(c * kLargePageSize, 25);
  }
  table.touch(first_block_of_chunk(0), AccessType::kWrite, 20);
  const VictimQuery q{2, true, h.now(), 0};
  const auto fast = h.manager().select_victims(table, h.counters(), q);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(chunk_of_block(fast.front()), 1u);
  EXPECT_EQ(fast, h.manager().select_victims_reference(table, h.counters(), q));
}

TEST(EvictionIndexParity, ProtectWindowBusySuffixMatchesReference) {
  IndexHarness h(EvictionKind::kLru, kLargePageSize, 4, 16, 3);
  BlockTable& table = h.table();
  const Cycle now = 10000;
  // Chunk 0: old (evictable). Chunks 1, 2: accessed within the window (busy).
  for (ChunkNum c : {ChunkNum{0}, ChunkNum{1}, ChunkNum{2}}) {
    const BlockNum first = first_block_of_chunk(c);
    for (BlockNum b = first; b < first + kBlocksPerLargePage; ++b) {
      table.mark_in_flight(b);
      table.mark_resident(b, 100);
      table.touch(b, AccessType::kRead, c == 0 ? 100 : now - kWindow / 2);
    }
  }
  const VictimQuery protected_q{3, true, now, kWindow};
  const auto fast = h.manager().select_victims(table, h.counters(), protected_q);
  ASSERT_FALSE(fast.empty());
  EXPECT_EQ(chunk_of_block(fast.front()), 0u);
  EXPECT_EQ(fast, h.manager().select_victims_reference(table, h.counters(), protected_q));

  // Evict chunk 0 entirely: only busy chunks remain, and the busy-fallback
  // pick must still match the reference (lowest last_access, then chunk id).
  for (const BlockNum v : fast) table.mark_evicted(v);
  const auto busy_fast = h.manager().select_victims(table, h.counters(), protected_q);
  const auto busy_ref =
      h.manager().select_victims_reference(table, h.counters(), protected_q);
  ASSERT_FALSE(busy_fast.empty());
  EXPECT_EQ(busy_fast, busy_ref);
  EXPECT_EQ(chunk_of_block(busy_fast.front()), 1u);
}

TEST(EvictionIndexParity, DetachedManagerStillUsesReferenceScan) {
  // No attach_index: hand-built tables keep working through the fallback.
  AddressSpace space;
  space.allocate("a", 2 * kLargePageSize);
  BlockTable table(space);
  AccessCounterTable counters(64, 16);
  EvictionManager mgr(EvictionKind::kLru, kLargePageSize);
  EXPECT_FALSE(mgr.index().attached());
  for (BlockNum b = 0; b < kBlocksPerLargePage; ++b) {
    table.mark_in_flight(b);
    table.mark_resident(b, 5);
  }
  const auto victims = mgr.select_victims(table, counters, VictimQuery{0, false, 10, 0});
  EXPECT_EQ(victims.size(), kBlocksPerLargePage);
}

}  // namespace
}  // namespace uvmsim
