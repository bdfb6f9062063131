#include "mem/block_table.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace uvmsim {
namespace {

class BlockTableTest : public ::testing::Test {
 protected:
  BlockTableTest() {
    space_.allocate("a", 2 * kLargePageSize);  // blocks 0..63, chunks 0..1
    table_ = std::make_unique<BlockTable>(space_);
  }
  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
};

TEST_F(BlockTableTest, StartsHostResident) {
  for (BlockNum b = 0; b < table_->num_blocks(); ++b) {
    EXPECT_EQ(table_->block(b).residence, Residence::kHost);
    EXPECT_FALSE(table_->block(b).dirty);
    EXPECT_EQ(table_->block(b).round_trips, 0u);
  }
  EXPECT_EQ(table_->resident_blocks(0), 0u);
}

TEST_F(BlockTableTest, MigrationLifecycle) {
  table_->mark_in_flight(3);
  EXPECT_EQ(table_->block(3).residence, Residence::kInFlight);
  table_->mark_resident(3, 100);
  EXPECT_EQ(table_->block(3).residence, Residence::kDevice);
  EXPECT_EQ(table_->resident_blocks(0), 1u);
  EXPECT_EQ(table_->chunk(0).migrated_at, 100u);

  const bool dirty = table_->mark_evicted(3);
  EXPECT_FALSE(dirty);
  EXPECT_EQ(table_->block(3).residence, Residence::kHost);
  EXPECT_EQ(table_->block(3).round_trips, 1u);
  EXPECT_EQ(table_->resident_blocks(0), 0u);
}

TEST_F(BlockTableTest, WriteWhileResidentMakesDirty) {
  table_->mark_in_flight(0);
  table_->mark_resident(0, 10);
  table_->touch(0, AccessType::kWrite, 20);
  EXPECT_TRUE(table_->block(0).dirty);
  EXPECT_TRUE(table_->block(0).written_ever);
  EXPECT_TRUE(table_->chunk(0).written_ever);
  EXPECT_TRUE(table_->mark_evicted(0));  // dirty -> writeback required
}

TEST_F(BlockTableTest, WriteWhileOnHostIsNotDirty) {
  table_->touch(5, AccessType::kWrite, 20);
  EXPECT_FALSE(table_->block(5).dirty);
  EXPECT_TRUE(table_->block(5).written_ever);
}

TEST_F(BlockTableTest, TouchUpdatesRecency) {
  table_->touch(0, AccessType::kRead, 42);
  EXPECT_EQ(table_->block(0).last_access, 42u);
  EXPECT_EQ(table_->chunk(0).last_access, 42u);
  table_->touch(33, AccessType::kRead, 50);  // chunk 1
  EXPECT_EQ(table_->chunk(1).last_access, 50u);
  EXPECT_EQ(table_->chunk(0).last_access, 42u);
}

TEST_F(BlockTableTest, IllegalTransitionsThrow) {
  EXPECT_THROW(table_->mark_resident(0, 1), std::logic_error);  // not in flight
  EXPECT_THROW(table_->mark_evicted(0), std::logic_error);      // not resident
  table_->mark_in_flight(0);
  EXPECT_THROW(table_->mark_in_flight(0), std::logic_error);    // double in-flight
}

TEST_F(BlockTableTest, EvictionClearsDirtyForNextRound) {
  table_->mark_in_flight(1);
  table_->mark_resident(1, 5);
  table_->touch(1, AccessType::kWrite, 6);
  table_->mark_evicted(1);
  table_->mark_in_flight(1);
  table_->mark_resident(1, 10);
  EXPECT_FALSE(table_->block(1).dirty);
  EXPECT_FALSE(table_->mark_evicted(1));
}

TEST_F(BlockTableTest, ChunkFullyResident) {
  EXPECT_FALSE(table_->chunk_fully_resident(0));
  for (BlockNum b = 0; b < kBlocksPerLargePage; ++b) {
    table_->mark_in_flight(b);
    table_->mark_resident(b, 1);
  }
  EXPECT_TRUE(table_->chunk_fully_resident(0));
  table_->mark_evicted(7);
  EXPECT_FALSE(table_->chunk_fully_resident(0));
}

TEST_F(BlockTableTest, ResidentBlocksOfChunk) {
  table_->mark_in_flight(2);
  table_->mark_resident(2, 1);
  table_->mark_in_flight(9);
  table_->mark_resident(9, 1);
  std::vector<BlockNum> blocks;
  table_->for_each_resident_block(0, [&](BlockNum b) { blocks.push_back(b); });
  EXPECT_EQ(blocks, (std::vector<BlockNum>{2, 9}));
  blocks.clear();
  table_->for_each_resident_block(1, [&](BlockNum b) { blocks.push_back(b); });
  EXPECT_TRUE(blocks.empty());
}

TEST(BlockTablePartialChunk, FullyResidentUsesMappedCount) {
  AddressSpace space;
  space.allocate("a", 256 * 1024);  // one chunk with 4 blocks
  BlockTable t(space);
  for (BlockNum b = 0; b < 4; ++b) {
    t.mark_in_flight(b);
    t.mark_resident(b, 1);
  }
  EXPECT_TRUE(t.chunk_fully_resident(0));
}

// Boundary sweep: the chunk axis must cover exactly the mapped blocks — no
// phantom trailing chunk past the last block, none at all for an empty
// space, and a cached per-chunk block count that agrees with the address
// space at every index including the final partially-mapped chunk.

TEST(BlockTableBoundary, EmptySpaceHasNoChunks) {
  AddressSpace space;
  BlockTable t(space);
  EXPECT_EQ(t.num_blocks(), 0u);
  EXPECT_EQ(t.num_chunks(), 0u);
}

TEST(BlockTableBoundary, ExactChunkMultipleHasNoPhantomChunk) {
  AddressSpace space;
  space.allocate("a", kLargePageSize);  // exactly one chunk, 32 blocks
  BlockTable t(space);
  EXPECT_EQ(t.num_blocks(), kBlocksPerLargePage);
  EXPECT_EQ(t.num_chunks(), 1u);
  EXPECT_EQ(t.chunk_num_blocks(0), kBlocksPerLargePage);
}

TEST(BlockTableBoundary, SingleBlockSpaceHasOneChunk) {
  AddressSpace space;
  space.allocate("a", kBasicBlockSize);
  BlockTable t(space);
  // The VA span is padded to the next 2 MB boundary, so the block axis
  // covers the whole chunk — but only one block of it is mapped.
  EXPECT_EQ(t.num_blocks(), kBlocksPerLargePage);
  EXPECT_EQ(t.num_chunks(), 1u);
  EXPECT_EQ(t.chunk_num_blocks(0), 1u);
  EXPECT_FALSE(t.chunk_fully_resident(0));
  t.mark_in_flight(0);
  t.mark_resident(0, 1);
  EXPECT_TRUE(t.chunk_fully_resident(0));
}

TEST(BlockTableBoundary, FinalPartialChunkCountsAndResidency) {
  // A 3-block user tail rounds up to a 4-block mapped tail (partial chunks
  // are padded to a power-of-two block count).
  AddressSpace space;
  space.allocate("a", kLargePageSize + 3 * kBasicBlockSize);
  BlockTable t(space);
  ASSERT_EQ(t.num_chunks(), 2u);
  for (ChunkNum c = 0; c < t.num_chunks(); ++c) {
    EXPECT_EQ(t.chunk_num_blocks(c), space.chunk_num_blocks(c)) << "chunk " << c;
  }
  ASSERT_EQ(t.chunk_num_blocks(1), 4u);

  // The tail chunk reaches fully-resident at its mapped count, not at 32.
  const BlockNum first = first_block_of_chunk(1);
  for (BlockNum b = first; b < first + 4; ++b) {
    EXPECT_FALSE(t.chunk_fully_resident(1));
    t.mark_in_flight(b);
    t.mark_resident(b, 1);
  }
  EXPECT_TRUE(t.chunk_fully_resident(1));

  // for_each_resident_block stays inside the mapped range of the tail chunk.
  std::vector<BlockNum> visited;
  t.for_each_resident_block(1, [&](BlockNum b) { visited.push_back(b); });
  EXPECT_EQ(visited, (std::vector<BlockNum>{first, first + 1, first + 2, first + 3}));

  // Evicting one tail block drops the flag again (aggregate bookkeeping).
  t.mark_evicted(first + 1);
  EXPECT_FALSE(t.chunk_fully_resident(1));
  EXPECT_EQ(t.resident_blocks(1), 3u);
}

}  // namespace
}  // namespace uvmsim
