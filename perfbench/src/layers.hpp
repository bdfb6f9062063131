// Benchmark-side instrumentation for the traced run. Nothing here changes
// what the simulator does: TimedWorkload forwards every call to the real
// workload and only times gen_task(), and LayerCounter only observes the
// driver through the public TraceSink hooks. The traced run's SimStats are
// compared with the untraced run's to prove it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

namespace perfbench {

/// Time spent inside Kernel::gen_task across one traced pass.
struct GenTimer {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Wraps a workload so that every kernel it schedules times its gen_task()
/// calls into `timer`. Single-threaded use only (one traced run at a time).
class TimedWorkload final : public uvmsim::Workload {
 public:
  TimedWorkload(std::unique_ptr<uvmsim::Workload> inner, GenTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool irregular() const override { return inner_->irregular(); }
  void build(uvmsim::AddressSpace& space) override { inner_->build(space); }
  [[nodiscard]] std::vector<std::shared_ptr<const uvmsim::Kernel>> schedule() const override;

 private:
  std::unique_ptr<uvmsim::Workload> inner_;
  GenTimer& timer_;
};

/// Samples of a wait distribution, read back as nearest-rank percentiles.
struct Distribution {
  std::vector<std::uint64_t> samples;
  [[nodiscard]] std::uint64_t percentile(double p);
};

/// Counts the driver's work per layer from the TraceSink hooks: policy
/// verdicts, fault batches, evictions, migrations and their waits, and
/// whether each migrated block was used before it left the device.
class LayerCounter final : public uvmsim::TraceSink {
 public:
  std::uint64_t decide_migrate = 0;
  std::uint64_t decide_remote = 0;
  std::uint64_t write_forced = 0;
  std::uint64_t fault_batches = 0;
  std::uint64_t batched_faults = 0;    ///< sum of the blocks per fault batch
  std::uint64_t evictions = 0;
  std::uint64_t victims = 0;
  std::uint64_t migrations = 0;        ///< demand + prefetch enqueues
  std::uint64_t prefetched = 0;
  std::uint64_t prefetched_used = 0;   ///< prefetched blocks accessed before eviction
  std::uint64_t wasted = 0;            ///< migrated blocks evicted with no use
  /// Fault raised (policy verdict kMigrate) -> its transfer is enqueued.
  Distribution fault_wait;
  /// Transfer enqueued (on_migration) -> block lands (on_arrival).
  Distribution migration_wait;

  void on_layout(const uvmsim::AddressSpace& space) override;
  void on_access(uvmsim::Cycle now, uvmsim::VirtAddr addr, uvmsim::AccessType type,
                 std::uint32_t count, bool device_resident) override;
  void on_kernel_begin(std::uint32_t, const std::string&) override {}
  void on_decision(uvmsim::Cycle now, uvmsim::VirtAddr addr, uvmsim::AccessType type,
                   std::uint32_t post_count, std::uint32_t round_trips,
                   uvmsim::MigrationDecision decision, bool write_forced) override;
  void on_eviction(uvmsim::Cycle now, uvmsim::ChunkNum faulting_chunk,
                   const std::vector<uvmsim::BlockNum>& victims) override;
  void on_migration(uvmsim::Cycle now, uvmsim::BlockNum block, bool demand) override;
  void on_arrival(uvmsim::Cycle now, uvmsim::BlockNum block) override;
  void on_fault_batch(uvmsim::Cycle start, uvmsim::Cycle end, std::size_t blocks) override;

 private:
  struct Block {
    uvmsim::Cycle raised = 0;     ///< cycle of the pending far fault
    uvmsim::Cycle enqueued = 0;   ///< cycle of the pending transfer
    bool fault_pending = false;
    bool migrating = false;       ///< on the device or on its way there
    bool prefetch = false;        ///< current migration came from the prefetcher
    bool used = false;            ///< accessed (or demand-faulted) since enqueue
  };
  Block& block(uvmsim::BlockNum b);
  std::vector<Block> blocks_;
};

}  // namespace perfbench
