// Fault-injection tests for the opt-in audit tier: corrupt each structure
// the auditor cross-validates and assert the corresponding invariant fires,
// plus clean oversubscribed end-to-end runs reporting zero violations.
#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/simulator.hpp"
#include "mem/access_counters.hpp"
#include "mem/address_space.hpp"
#include "mem/block_table.hpp"
#include "mem/device_memory.hpp"
#include "mem/eviction.hpp"
#include "sim/event_queue.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"

namespace uvmsim {
namespace {

bool mentions(const AuditReport& r, const std::string& needle) {
  for (const std::string& v : r.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() {
    space_.allocate("a", 4 * kLargePageSize);
    table_ = std::make_unique<BlockTable>(space_);
    device_ = std::make_unique<DeviceMemory>(2 * kLargePageSize);
    counters_ = std::make_unique<AccessCounterTable>(
        div_ceil(space_.span_end(), kBasicBlockSize), 16);
    eviction_ = std::make_unique<EvictionManager>(EvictionKind::kLru, kLargePageSize);
    policy_cfg_.policy = PolicyKind::kAdaptive;
    policy_ = make_policy(policy_cfg_);
  }

  /// Properly migrate one block: reserve a frame, transition the table, and
  /// stamp the recency keys — the auditor must see this as consistent.
  void migrate(BlockNum b, Cycle now) {
    table_->mark_in_flight(b);
    ASSERT_TRUE(device_->reserve(1));
    table_->mark_resident(b, now);
    table_->touch(b, AccessType::kRead, now);
  }

  [[nodiscard]] AuditScope scope() const {
    AuditScope s;
    s.table = table_.get();
    s.device = device_.get();
    s.counters = counters_.get();
    s.eviction = eviction_.get();
    s.queue = &queue_;
    s.stats = &stats_;
    s.policy = policy_.get();
    s.policy_cfg = &policy_cfg_;
    PolicyFeatures f;
    f.resident_pages = device_->used_pages();
    f.capacity_pages = device_->capacity_pages();
    f.oversubscribed = device_->ever_full();
    f.overcommitted = true;
    s.policy_features = f;
    s.historic_counters = true;
    return s;
  }

  [[nodiscard]] InvariantAuditor auditor(std::uint64_t interval = 1,
                                         bool fail_fast = true) const {
    AuditConfig cfg;
    cfg.enabled = true;
    cfg.interval_events = interval;
    cfg.fail_fast = fail_fast;
    return InvariantAuditor(cfg);
  }

  AddressSpace space_;
  std::unique_ptr<BlockTable> table_;
  std::unique_ptr<DeviceMemory> device_;
  std::unique_ptr<AccessCounterTable> counters_;
  std::unique_ptr<EvictionManager> eviction_;
  PolicyConfig policy_cfg_;
  std::unique_ptr<MigrationPolicy> policy_;
  EventQueue queue_;
  SimStats stats_;
};

TEST_F(AuditTest, CleanStateAuditsClean) {
  for (BlockNum b = 0; b < kBlocksPerLargePage; ++b) migrate(b, 10 + b);
  migrate(kBlocksPerLargePage + 2, 100);  // partial chunk 1
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_TRUE(r.clean()) << r.violations.front();
  EXPECT_GT(r.checks, 0u);
  EXPECT_EQ(aud.violations(), 0u);
}

TEST_F(AuditTest, CorruptBlockResidenceIsCaught) {
  migrate(0, 5);
  // Flip a block to device-resident behind the chunk aggregate's and the
  // device free-list's back.
  table_->testonly_corrupt_residence(5, Residence::kDevice);
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "residency: chunk 0"));
  EXPECT_TRUE(mentions(r, "device:"));
}

TEST_F(AuditTest, CorruptChunkAggregateIsCaught) {
  migrate(0, 5);
  table_->testonly_corrupt_masks(0, ChunkMasks{0x7f, 0x7f});  // scan says 0x1
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "masks device=0x7f non_host=0x7f but block scan gives device=0x1"));
}

TEST_F(AuditTest, CorruptNonHostMaskIsCaught) {
  migrate(0, 5);
  table_->mark_in_flight(3);
  // Drop the in-flight bit only: the device mask still agrees with the scan.
  table_->testonly_corrupt_masks(0, ChunkMasks{0x1, 0x1});
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "non_host=0x1 but block scan gives device=0x1 non_host=0x9"));
}

TEST_F(AuditTest, MaskBitBeyondMappedBlocksIsCaught) {
  AddressSpace space;
  space.allocate("tail", 4 * kBasicBlockSize);  // one chunk, 4 mapped blocks
  BlockTable table(space);
  table.testonly_corrupt_masks(0, ChunkMasks{0, 0x10});
  AuditScope s;
  s.table = &table;
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(s);
  EXPECT_TRUE(mentions(r, "has bits beyond its 4 mapped blocks"));
}

TEST_F(AuditTest, DirtyHostBlockIsCaught) {
  table_->testonly_corrupt_dirty(3, true);  // dirty implies device residence
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "dirty while host"));
}

TEST_F(AuditTest, DeviceAccountingLeakIsCaught) {
  migrate(0, 5);
  // Leak a frame: reserved but owned by no block and no transfer.
  ASSERT_TRUE(device_->reserve(1));
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "device: used"));
}

TEST_F(AuditTest, ForgedChunkLruKeyIsCaught) {
  migrate(0, 10);
  table_->chunk(0).last_access = 99999;  // no block carries this stamp
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "matches no mapped block"));
}

TEST_F(AuditTest, HistoricCounterRollbackIsCaught) {
  counters_->record_access(addr_of_block(0), 50);
  InvariantAuditor aud = auditor();
  EXPECT_TRUE(aud.audit_now(scope()).clean());  // snapshot pass
  // Historic counters must never be reset outside a global halving.
  counters_->reset_count(addr_of_block(0));
  const AuditReport r = aud.audit_now(scope());
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(mentions(r, "counters: historic count"));
}

TEST_F(AuditTest, FailFastOnEventThrowsAndRecordsStats) {
  migrate(0, 5);
  table_->testonly_corrupt_masks(0, ChunkMasks{0x7, 0x7});
  InvariantAuditor aud = auditor(/*interval=*/1, /*fail_fast=*/true);
  EXPECT_THROW(aud.on_event(scope(), stats_), CheckFailure);
  EXPECT_GE(stats_.audit_violations, 1u);
  EXPECT_FALSE(stats_.last_violation.empty());
}

TEST_F(AuditTest, NonFailFastAccumulatesViolations) {
  migrate(0, 5);
  table_->testonly_corrupt_masks(0, ChunkMasks{0x7, 0x7});
  InvariantAuditor aud = auditor(/*interval=*/1, /*fail_fast=*/false);
  EXPECT_NO_THROW(aud.on_event(scope(), stats_));
  EXPECT_NO_THROW(aud.on_event(scope(), stats_));
  EXPECT_GE(aud.violations(), 2u);
  EXPECT_EQ(stats_.audit_passes, 2u);
}

TEST_F(AuditTest, IntervalGatesPasses) {
  InvariantAuditor aud = auditor(/*interval=*/4);
  for (int i = 0; i < 3; ++i) aud.on_event(scope(), stats_);
  EXPECT_EQ(aud.passes(), 0u);
  aud.on_event(scope(), stats_);
  EXPECT_EQ(aud.passes(), 1u);
  for (int i = 0; i < 4; ++i) aud.on_event(scope(), stats_);
  EXPECT_EQ(aud.passes(), 2u);
}

TEST_F(AuditTest, FinalizeRunsUnconditionally) {
  InvariantAuditor aud = auditor(/*interval=*/1000000);
  aud.on_event(scope(), stats_);
  EXPECT_EQ(aud.passes(), 0u);
  aud.finalize(scope(), stats_);
  EXPECT_EQ(aud.passes(), 1u);
  EXPECT_EQ(stats_.audit_passes, 1u);
}

TEST_F(AuditTest, PartialScopeSkipsAbsentStructures) {
  AuditScope s;  // everything null
  InvariantAuditor aud = auditor();
  const AuditReport r = aud.audit_now(s);
  EXPECT_TRUE(r.clean());
}

// End-to-end: a full oversubscribed simulation in audit mode must complete
// with at least one pass and zero violations — the production invariants
// hold under eviction pressure.
TEST(AuditEndToEnd, CleanOversubscribedRun) {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.mem.eviction = EvictionKind::kLfu;
  cfg.audit.enabled = true;
  cfg.audit.interval_events = 512;
  WorkloadParams params;
  params.scale = 0.05;
  // 75 % residency: working set / capacity = 4/3.
  const RunResult r = run_workload("bfs", cfg, 4.0 / 3.0, params);
  EXPECT_GE(r.stats.audit_passes, 1u);
  EXPECT_EQ(r.stats.audit_violations, 0u);
  EXPECT_TRUE(r.stats.last_violation.empty()) << r.stats.last_violation;
}

TEST(AuditEndToEnd, BatchSurfacesAuditTelemetry) {
  RunRequest req;
  req.workload = "bfs";
  req.params.scale = 0.05;
  req.config.policy.policy = PolicyKind::kAdaptive;
  req.config.audit.enabled = true;
  req.config.audit.interval_events = 512;
  req.oversub = 1.5;
  BatchOptions opts;
  opts.jobs = 1;
  const BatchResult batch = run_batch({req}, opts);
  ASSERT_TRUE(batch.all_ok());
  EXPECT_GE(batch.entries[0].audit_passes, 1u);
  EXPECT_EQ(batch.entries[0].audit_violations, 0u);
  EXPECT_EQ(batch.audit_violations, 0u);
}

}  // namespace
}  // namespace uvmsim
