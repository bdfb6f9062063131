#include "gpu/gpu_model.hpp"

#include <gtest/gtest.h>

#include "core/uvm_driver.hpp"

namespace uvmsim {
namespace {

/// Minimal kernel issuing a fixed access list split across tasks.
class ListKernel final : public Kernel {
 public:
  ListKernel(std::vector<Access> accesses, std::uint64_t per_task)
      : accesses_(std::move(accesses)), per_task_(per_task) {}
  [[nodiscard]] std::string name() const override { return "list"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(accesses_.size(), per_task_);
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const std::size_t first = task * per_task_;
    const std::size_t last = std::min(accesses_.size(), first + per_task_);
    out.insert(out.end(), accesses_.begin() + static_cast<std::ptrdiff_t>(first),
               accesses_.begin() + static_cast<std::ptrdiff_t>(last));
  }

 private:
  std::vector<Access> accesses_;
  std::uint64_t per_task_;
};

class GpuModelTest : public ::testing::Test {
 protected:
  GpuModelTest() {
    cfg_.gpu.num_sms = 2;
    cfg_.gpu.warps_per_sm = 2;
    cfg_.mem.device_capacity_bytes = 8 * kLargePageSize;
    space_.allocate("a", 4 * kLargePageSize);
    driver_ = std::make_unique<UvmDriver>(cfg_, space_, cfg_.mem.device_capacity_bytes,
                                          queue_, stats_);
    gpu_ = std::make_unique<GpuModel>(cfg_, queue_, *driver_, stats_);
  }

  SimConfig cfg_;
  AddressSpace space_;
  EventQueue queue_;
  SimStats stats_;
  std::unique_ptr<UvmDriver> driver_;
  std::unique_ptr<GpuModel> gpu_;
};

TEST_F(GpuModelTest, RunsAllAccessesToCompletion) {
  std::vector<Access> accesses;
  for (std::uint64_t i = 0; i < 256; ++i) {
    accesses.push_back(Access{i * kWarpAccessBytes, AccessType::kRead, 1, 10});
  }
  ListKernel k(accesses, 32);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stats_.total_accesses, 256u);
  EXPECT_FALSE(gpu_->busy());
}

TEST_F(GpuModelTest, EmptyKernelCompletes) {
  ListKernel k({}, 32);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
}

TEST_F(GpuModelTest, FarFaultsStallAndReplay) {
  std::vector<Access> accesses{
      Access{0, AccessType::kRead, 1, 0},
      Access{kBasicBlockSize, AccessType::kRead, 1, 0},
  };
  ListKernel k(accesses, 2);
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_GE(stats_.far_faults, 1u);
  EXPECT_GE(stats_.replayed_accesses, 1u);
  // Both blocks ended up resident.
  EXPECT_EQ(driver_->blocks().block(0).residence, Residence::kDevice);
}

TEST_F(GpuModelTest, SecondKernelReusesResidentData) {
  std::vector<Access> accesses{Access{0, AccessType::kRead, 1, 0}};
  ListKernel k(accesses, 1);
  bool done1 = false, done2 = false;
  gpu_->launch(k, [&] { done1 = true; });
  queue_.run();
  const auto faults_after_first = stats_.far_faults;
  gpu_->launch(k, [&] { done2 = true; });
  queue_.run();
  EXPECT_TRUE(done1);
  EXPECT_TRUE(done2);
  EXPECT_EQ(stats_.far_faults, faults_after_first);  // no new faults
  EXPECT_GE(stats_.local_accesses, 1u);
}

TEST_F(GpuModelTest, LaunchWhileBusyThrows) {
  std::vector<Access> accesses{Access{0, AccessType::kRead, 1, 0}};
  ListKernel k(accesses, 1);
  gpu_->launch(k, [] {});
  EXPECT_THROW(gpu_->launch(k, [] {}), std::logic_error);
  queue_.run();
}

TEST_F(GpuModelTest, TlbHitsOnRepeatedPageAccess) {
  std::vector<Access> accesses;
  for (int i = 0; i < 16; ++i) {
    accesses.push_back(Access{0, AccessType::kRead, 1, 0});  // same page
  }
  ListKernel k(accesses, 16);  // one task -> one warp
  gpu_->launch(k, [] {});
  queue_.run();
  EXPECT_EQ(stats_.tlb_misses, 1u);
  EXPECT_EQ(stats_.tlb_hits, 15u);
}

/// One warp touches page 0, then one page in each block of the next chunk,
/// then page 0 again. The chunk-1 pages avoid page 0's TLB slot (and L2
/// set), so the second page-0 lookup hits unless block 0 was evicted in
/// between.
struct RevisitResult {
  std::uint64_t tlb_hits;
  std::uint64_t l2_hits;
  std::uint32_t block0_round_trips;
};
RevisitResult run_revisit(std::uint64_t capacity_bytes, bool l2) {
  SimConfig cfg;
  cfg.gpu.num_sms = 1;
  cfg.gpu.warps_per_sm = 1;
  cfg.gpu.l2.enabled = l2;
  AddressSpace space;
  space.allocate("a", 2 * kLargePageSize);
  EventQueue queue;
  SimStats stats;
  UvmDriver driver(cfg, space, capacity_bytes, queue, stats);
  GpuModel gpu(cfg, queue, driver, stats);
  std::vector<Access> accesses{Access{0, AccessType::kRead, 1, 0}};
  for (BlockNum b = kBlocksPerLargePage; b < 2 * kBlocksPerLargePage; ++b) {
    accesses.push_back(Access{addr_of_block(b) + kPageSize, AccessType::kRead, 1, 0});
  }
  accesses.push_back(Access{0, AccessType::kRead, 1, 0});
  ListKernel k(accesses, accesses.size());
  gpu.launch(k, [] {});
  queue.run();
  return {stats.tlb_hits, stats.l2_hits, driver.blocks().round_trips(0)};
}

TEST(GpuModelEviction, EvictedBlockMissesInTlbOnReaccess) {
  for (const bool l2 : {false, true}) {
    // Room for both chunks: block 0 stays resident and its entries hit.
    const RevisitResult kept = run_revisit(8 * kLargePageSize, l2);
    EXPECT_EQ(kept.block0_round_trips, 0u);
    EXPECT_EQ(kept.tlb_hits, 1u);
    EXPECT_EQ(kept.l2_hits, l2 ? 1u : 0u);
    // Room for one chunk: chunk 1 evicts block 0, so the TLB entry is stale
    // and the L2 line was invalidated through the driver's eviction hook.
    const RevisitResult evicted = run_revisit(kLargePageSize, l2);
    ASSERT_GE(evicted.block0_round_trips, 1u);
    EXPECT_EQ(evicted.tlb_hits, 0u);
    EXPECT_EQ(evicted.l2_hits, 0u);
  }
}

TEST_F(GpuModelTest, GapDelaysNextIssue) {
  // Two accesses with a large gap; the kernel cannot finish before the gap.
  std::vector<Access> accesses{
      Access{0, AccessType::kRead, 1, 5000},
      Access{128, AccessType::kRead, 1, 0},
  };
  ListKernel k(accesses, 2);
  gpu_->launch(k, [] {});
  queue_.run();
  EXPECT_GE(queue_.now(), 5000u);
}

TEST_F(GpuModelTest, ManyTasksDistributeOverWarps) {
  std::vector<Access> accesses;
  for (std::uint64_t i = 0; i < 64; ++i) {
    accesses.push_back(Access{i * kPageSize, AccessType::kRead, 1, 50});
  }
  ListKernel k(accesses, 4);  // 16 tasks over 4 warp contexts
  bool done = false;
  gpu_->launch(k, [&] { done = true; });
  queue_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(stats_.total_accesses, 64u);
}

}  // namespace
}  // namespace uvmsim
